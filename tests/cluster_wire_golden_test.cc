// Golden wire bytes of the cluster protocol: one filled instance of each
// of the 16 payload structs, and one frame, pinned as hex. A refactor of
// the payload codec must leave every byte where it is; a deliberate wire
// change bumps kFrameVersion and re-pins these strings. Each golden also
// decodes and re-encodes to itself, so the decoder's layout is pinned too.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "cluster/frame.h"
#include "cluster/wire.h"

namespace rod::cluster {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr,
                                       16));
  }
  return out;
}

// The two codec calls every golden goes through.
template <class M>
std::string EncodeBytes(const M& m) {
  return Encode(m);
}
template <class M>
Result<M> DecodeBytes(std::string_view payload) {
  return Decode<M>(payload);
}

template <class M>
void ExpectGolden(const char* name, const M& m, std::string_view golden) {
  SCOPED_TRACE(name);
  EXPECT_EQ(Hex(EncodeBytes(m)), golden);
  auto decoded = DecodeBytes<M>(Unhex(golden));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Hex(EncodeBytes(*decoded)), golden);
}

WorkerCounters FilledCounters() {
  WorkerCounters c;
  c.generated = 1;
  c.processed = 2;
  c.emitted = 3;
  c.delivered = 4;
  c.shipped = 5;
  c.received = 6;
  c.ship_failures = 7;
  c.lost_tuples = 8;
  c.paused_buffered = 9;
  c.busy_seconds = 0.5;
  c.latency_sum = 1.25;
  c.latency_max = -2.0;
  c.latency_count = 0x0102030405060708ull;
  return c;
}

TEST(ClusterWireGoldenTest, RegistrationAndStartPayloads) {
  HelloMsg hello;
  hello.data_port = 0x1234;
  hello.http_port = 0xabcd;
  hello.capacity = 0.75;
  hello.name = "w0";
  ExpectGolden("hello", hello,
               "3412cdab000000000000e83f020000007730");

  WelcomeMsg welcome{3, 5, 0.125, 2.5};
  ExpectGolden("welcome", welcome,
               "0300000005000000000000000000c03f0000000000000440");

  PlanAckMsg ack{0x1122334455667788ull, 7};
  ExpectGolden("plan_ack", ack,
               "887766554433221107000000");

  StartMsg start;
  start.duration = 12.5;
  start.tick_seconds = 0.25;
  start.seed = 0xfeedbeef;
  start.rates = {100.0, -1.0};
  ExpectGolden("start", start,
               "0000000000002940000000000000d03fefbeedfe0000000002000000"
               "0000000000005940000000000000f0bf");
}

TEST(ClusterWireGoldenTest, PlanPayload) {
  PlanMsg plan;
  plan.version = 9;
  const auto in = plan.graph.AddInputStream("in");
  auto f = plan.graph.AddOperator(
      {.name = "f", .kind = query::OperatorKind::kFilter, .cost = 0.5,
       .selectivity = 0.25},
      {query::StreamRef::Input(in)});
  ASSERT_TRUE(f.ok());
  auto j = plan.graph.AddOperator(
      {.name = "j",
       .kind = query::OperatorKind::kJoin,
       .cost = 2.0,
       .selectivity = 1.0,
       .window = 1.5,
       .variable_selectivity = true,
       .qos_weight = 3.0},
      {query::StreamRef::Op(*f), query::StreamRef::Input(in)}, {0.0, 0.5});
  ASSERT_TRUE(j.ok());
  plan.assignment = {0, 1};
  plan.capacities = {1.0, 0.5};
  plan.endpoints = {{0, 0x0102}, {1, 0x0304}};
  plan.source_owner = {1};
  ExpectGolden("plan", plan,
               "09000000000000000100000002000000696e02000000010000006600"
               "000000000000e03f000000000000d03f000000000000000000000000"
               "000000f03f0100000000000000000000000000000000010000006a05"
               "0000000000000040000000000000f03f000000000000f83f01000000"
               "00000008400200000001000000000000000000000000000000000000"
               "0000000000e03f020000000000000001000000020000000000000000"
               "00f03f000000000000e03f0200000000000000020101000000040301"
               "00000001000000");
}

TEST(ClusterWireGoldenTest, RuntimePayloads) {
  HeartbeatMsg hb;
  hb.worker_id = 2;
  hb.seq = 41;
  hb.uptime_seconds = 3.25;
  hb.plan_version = 9;
  hb.queue_depth = 17;
  hb.counters = FilledCounters();
  hb.loads = {{4, 400, 0.5}};
  ExpectGolden("heartbeat", hb,
               "0200000029000000000000000000000000000a400900000000000000"
               "11000000000000000100000000000000020000000000000003000000"
               "00000000040000000000000005000000000000000600000000000000"
               "07000000000000000800000000000000090000000000000000000000"
               "0000e03f000000000000f43f00000000000000c00807060504030201"
               "01000000040000009001000000000000000000000000e03f");

  TupleBatchMsg batch{12, 1, 64, 3, 2.75, 1024.5};
  ExpectGolden("tuples", batch,
               "0c000000010000004000000003000000000000000000064000000000"
               "00029040");

  PauseMsg pause;
  pause.plan_version = 4;
  pause.ops = {1, 0x01020304};
  ExpectGolden("pause", pause,
               "0400000000000000020000000100000004030201");

  PlanDiffMsg diff;
  diff.version = 5;
  diff.moves = {{1, 2, 0}, {5, 2, 1}};
  ExpectGolden("plan_diff", diff,
               "05000000000000000200000001000000020000000000000005000000"
               "0200000001000000");

  FinalStatsMsg stats{6, FilledCounters()};
  ExpectGolden("final_stats", stats,
               "06000000010000000000000002000000000000000300000000000000"
               "04000000000000000500000000000000060000000000000007000000"
               "0000000008000000000000000900000000000000000000000000e03f"
               "000000000000f43f00000000000000c00807060504030201");
}

TEST(ClusterWireGoldenTest, ObservabilityPayloads) {
  PingMsg ping{42, 1e6};
  ExpectGolden("ping", ping,
               "2a000000000000000000000080842e41");

  PongMsg pong{42, 2, 1e6, 5e5, 0.5};
  ExpectGolden("pong", pong,
               "2a00000000000000020000000000000080842e410000000080841e41"
               "000000000000e03f");

  StatsReportMsg report;
  report.worker_id = 1;
  report.counters = {{"c", 17}};
  report.gauges = {{"g", -0.5}};
  StatsReportMsg::HistogramState h;
  h.name = "h";
  h.count = 3;
  h.sum = 9.0;
  h.min = 1.0;
  h.max = 5.0;
  h.buckets = {{2.0, 1}, {8.0, 2}};
  report.histograms.push_back(h);
  ExpectGolden("stats_report", report,
               "01000000010000000100000063110000000000000001000000010000"
               "0067000000000000e0bf010000000100000068030000000000000000"
               "00000000002240000000000000f03f00000000000014400200000000"
               "00000000000040010000000000000000000000000020400200000000"
               "000000");

  ClockSyncMsg sync;
  sync.entries = {{0, -120.25, 60.0}, {1, 310.0, 42.5}};
  ExpectGolden("clock_sync", sync,
               "02000000000000000000000000105ec00000000000004e4001000000"
               "00000000006073400000000000404540");

  FreezeMsg freeze{7, "k", "why"};
  ExpectGolden("freeze", freeze,
               "0700000000000000010000006b03000000776879");

  FrozenReportMsg frozen{7, 2, "{}"};
  ExpectGolden("frozen_report", frozen,
               "070000000000000002000000020000007b7d");
}

TEST(ClusterWireGoldenTest, FrameHeaderBytes) {
  const std::string frame = EncodeFrame(MsgType::kPauseAck, "abc");
  EXPECT_EQ(Hex(frame),
            "524f44430109000003000000c2412435cb0a4301616263");
  auto header = DecodeFrameHeader(
      std::span(reinterpret_cast<const std::byte*>(frame.data()),
                kFrameHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, MsgType::kPauseAck);
  EXPECT_EQ(header->payload_len, 3u);
}

}  // namespace
}  // namespace rod::cluster
