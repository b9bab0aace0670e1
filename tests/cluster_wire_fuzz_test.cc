// Seeded mutation fuzzing of every cluster decoder: valid encodings of
// all 16 payload structs, a frame header and a query graph are bit-
// flipped, truncated, extended and given inflated counts, and each
// mutant is decoded. A decoder must return a Result on any bytes, never
// crash or allocate without bound (the sanitizer builds run this too),
// and whatever decodes must re-encode to bytes that decode to the same
// value. Deterministic: every mutant comes from a fixed seed.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>

#include "cluster/frame.h"
#include "cluster/wire.h"
#include "common/random.h"
#include "query/graph_gen.h"

namespace rod::cluster {
namespace {

constexpr int kMutantsPerSeed = 1000;

/// One random mutation of `bytes`.
std::string Mutate(std::string bytes, Rng& rng) {
  switch (rng.NextIndex(4)) {
    case 0: {  // Flip 1-3 bits.
      if (bytes.empty()) break;
      for (uint64_t n = 1 + rng.NextIndex(3); n > 0; --n) {
        bytes[rng.NextIndex(bytes.size())] ^=
            static_cast<char>(1u << rng.NextIndex(8));
      }
      break;
    }
    case 1:  // Truncate.
      bytes.resize(rng.NextIndex(bytes.size() + 1));
      break;
    case 2:  // Extend with random bytes.
      for (uint64_t n = 1 + rng.NextIndex(16); n > 0; --n) {
        bytes += static_cast<char>(rng.NextIndex(256));
      }
      break;
    default: {  // Overwrite four bytes with an inflated little-endian count.
      if (bytes.size() < 4) break;
      static constexpr uint32_t kCounts[] = {
          0xffffffffu, kMaxWireCount, kMaxWireCount + 1, 1u << 16, 255};
      const uint32_t count = kCounts[rng.NextIndex(std::size(kCounts))];
      const size_t at = rng.NextIndex(bytes.size() - 3);
      for (int i = 0; i < 4; ++i) {
        bytes[at + i] = static_cast<char>((count >> (8 * i)) & 0xff);
      }
      break;
    }
  }
  return bytes;
}

template <class M>
void FuzzPayload(const char* name, const M& seed, Rng& rng) {
  SCOPED_TRACE(name);
  const std::string valid = Encode(seed);
  ASSERT_TRUE(Decode<M>(valid).ok());
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string mutant = Mutate(valid, rng);
    auto decoded = Decode<M>(mutant);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    const std::string canonical = Encode(*decoded);
    auto again = Decode<M>(canonical);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(Encode(*again), canonical);
  }
}

TEST(ClusterWireFuzzTest, EveryPayloadDecoderSurvivesMutation) {
  Rng rng(0xf022);
  WorkerCounters counters;
  counters.generated = 10;
  counters.latency_sum = 0.5;

  FuzzPayload("hello", HelloMsg{1, 2, 0.5, "worker-1"}, rng);
  FuzzPayload("welcome", WelcomeMsg{1, 3, 0.25, 1.0}, rng);
  PlanMsg plan;
  plan.version = 3;
  const auto in = plan.graph.AddInputStream("in");
  auto op = plan.graph.AddOperator(
      {.name = "f", .kind = query::OperatorKind::kFilter, .cost = 1e-4,
       .selectivity = 0.5},
      {query::StreamRef::Input(in)});
  ASSERT_TRUE(op.ok());
  plan.assignment = {1};
  plan.capacities = {1.0, 1.0};
  plan.endpoints = {{0, 4000}, {1, 4001}};
  plan.source_owner = {0};
  FuzzPayload("plan", plan, rng);
  FuzzPayload("plan_ack", PlanAckMsg{3, 1}, rng);
  FuzzPayload("start", StartMsg{2.0, 0.05, 7, {100.0, 50.0}}, rng);
  HeartbeatMsg hb;
  hb.worker_id = 1;
  hb.queue_depth = 4;
  hb.counters = counters;
  hb.loads = {{0, 10, 0.1}, {2, 20, 0.2}};
  FuzzPayload("heartbeat", hb, rng);
  FuzzPayload("tuples", TupleBatchMsg{1, 0, 32, 1, 0.5, 10.0}, rng);
  FuzzPayload("pause", PauseMsg{4, {0, 2}}, rng);
  FuzzPayload("plan_diff", PlanDiffMsg{4, {{0, 1, 0}, {2, 1, 0}}}, rng);
  FuzzPayload("final_stats", FinalStatsMsg{1, counters}, rng);
  FuzzPayload("ping", PingMsg{9, 1e6}, rng);
  FuzzPayload("pong", PongMsg{9, 1, 1e6, 2e6, 3e6}, rng);
  StatsReportMsg report;
  report.worker_id = 1;
  report.counters = {{"a", 1}, {"b", 2}};
  report.gauges = {{"g", 0.5}};
  report.histograms.push_back({"h", 2, 3.0, 1.0, 2.0, {{1.0, 1}, {2.0, 1}}});
  FuzzPayload("stats_report", report, rng);
  FuzzPayload("clock_sync", ClockSyncMsg{{{0, 1.0, 2.0}, {1, -1.0, 3.0}}},
              rng);
  FuzzPayload("freeze", FreezeMsg{1, "kind", "detail"}, rng);
  FuzzPayload("frozen_report", FrozenReportMsg{1, 0, "{\"a\": 1}"}, rng);
}

TEST(ClusterWireFuzzTest, QueryGraphDecoderSurvivesMutation) {
  query::GraphGenOptions options;
  options.num_input_streams = 2;
  options.ops_per_tree = 4;
  Rng gen_rng(5);
  WireWriter w;
  EncodeQueryGraph(query::GenerateRandomTrees(options, gen_rng), w);
  const std::string valid = w.str();

  Rng rng(0x9a4f);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string mutant = Mutate(valid, rng);
    WireReader r(mutant);
    auto graph = DecodeQueryGraph(r);
    if (!graph.ok()) {
      EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    WireWriter canonical;
    EncodeQueryGraph(*graph, canonical);
    WireReader again_reader(canonical.str());
    auto again = DecodeQueryGraph(again_reader);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    WireWriter again_bytes;
    EncodeQueryGraph(*again, again_bytes);
    EXPECT_EQ(again_bytes.str(), canonical.str());
  }
}

TEST(ClusterWireFuzzTest, FrameHeaderDecoderSurvivesMutation) {
  const std::string valid = EncodeFrame(MsgType::kTuples, "payload");
  Rng rng(0xf4a3);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string mutant = Mutate(valid, rng);
    auto header = DecodeFrameHeader(
        std::span(reinterpret_cast<const std::byte*>(mutant.data()),
                  mutant.size()),
        /*max_payload=*/1024);
    if (!header.ok()) {
      const StatusCode code = header.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kDataLoss)
          << header.status().ToString();
      continue;
    }
    // A header that decodes names a real type and a length under the cap,
    // and its bytes are exactly what EncodeFrame writes for them.
    EXPECT_LE(header->payload_len, 1024u);
    const std::string reencoded = EncodeFrame(
        header->type, std::string(header->payload_len, '\0'));
    EXPECT_EQ(reencoded.substr(0, 12), mutant.substr(0, 12));
  }
}

}  // namespace
}  // namespace rod::cluster
