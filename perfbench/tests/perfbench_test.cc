// Copyright (c) the ROD reproduction authors.
//
// The benchmark's own tests: deterministic decks, run-length-independent
// quality and counts, well-formed metrics, failed checks reaching the
// process report, and the self-time arithmetic behind the per-layer shares.
// run.py's own self-test covers the pooling into end-to-end metrics.

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness.h"
#include "telemetry/json_reader.h"

namespace perfbench {
namespace {

std::string Fingerprint(const rod::query::QueryGraph& g) {
  std::ostringstream out;
  out.precision(17);
  for (size_t j = 0; j < g.num_operators(); ++j) {
    out << g.spec(j).cost << ' ' << g.spec(j).selectivity << ':';
    for (const auto c : g.consumers_of(j)) out << c << ',';
    out << ';';
  }
  return out.str();
}

std::string DeckFingerprint(uint64_t seed) {
  rod::query::GraphGenOptions options;
  options.num_input_streams = 3;
  options.ops_per_tree = 10;
  std::string out;
  for (const auto& g : MakeForests(seed, 0, 4, options)) out += Fingerprint(g);
  return out;
}

RunConfig ShortRun(const std::string& workload) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.05;
  config.trace = true;
  config.out_dir = ".";
  return config;
}

TEST(Deck, DeterministicPerSeed) {
  EXPECT_EQ(DeckFingerprint(3), DeckFingerprint(3));
  EXPECT_NE(DeckFingerprint(3), DeckFingerprint(4));
  EXPECT_EQ(DeckSeeds(3, 1, 8), DeckSeeds(3, 1, 8));
  EXPECT_NE(DeckSeeds(3, 1, 8), DeckSeeds(3, 2, 8));
}

// Quality and every count metric come from the deck's first pass, so two
// runs of one seed agree exactly however many steps each fitted in.
TEST(Run, QualityAndCountsEqualAcrossTwoShortRuns) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    RunConfig shorter = ShortRun(workload);
    RunConfig longer = ShortRun(workload);
    longer.seconds = 0.5;
    const auto a = perfbench::Run(shorter);
    const auto b = perfbench::Run(longer);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->failed, 0u);
    EXPECT_EQ(b->failed, 0u);
    EXPECT_EQ(a->quality, b->quality);
    EXPECT_GT(a->quality, 0.0);
    for (const Metric& m : a->per_layer.metrics()) {
      if (m.deterministic) {
        EXPECT_EQ(m.value, b->per_layer.Get(m.name)) << m.name;
      }
    }
  }
}

TEST(Run, MetricNamesAreSafeAndValuesFinite) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const auto r = perfbench::Run(ShortRun(workload));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const Metric& m : r->per_layer.metrics()) {
      EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
    for (const double v : r->untraced_ms) EXPECT_TRUE(std::isfinite(v));
    for (const double v : r->setup_s) EXPECT_TRUE(std::isfinite(v));
    EXPECT_TRUE(std::isfinite(r->quality));
    EXPECT_GE(r->setup_s.size(), 1u);
    EXPECT_LE(r->setup_s.size(), kSetupsPerProcess);
    EXPECT_FALSE(r->traced_ms.empty());
    EXPECT_FALSE(r->untraced_ms.empty());
    EXPECT_EQ(r->failed, 0u);
    double shares = 0.0;
    for (size_t l = 0; l < kNumLayers; ++l) {
      shares += r->per_layer.Get(
          std::string(LayerName(static_cast<Layer>(l))) + ".self_share");
    }
    EXPECT_NEAR(shares, 1.0, 1e-9);
  }
}

TEST(Run, ForcedCheckFailureReachesTheReport) {
  RunConfig config = ShortRun("place");
  config.trace = false;
  config.sabotage_step = 0;
  const auto r = perfbench::Run(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->failed, 1u);
  EXPECT_GT(r->attempted, 1u);

  std::ostringstream out;
  PrintReport(config, *r, out);
  const std::string text = out.str();
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  const size_t last = text.rfind('\n', text.size() - 2);
  const auto line = rod::telemetry::ParseJson(text.substr(last + 1));
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  const auto* report = line->Find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->NumberOr("failed", 0), 1.0);
  EXPECT_EQ(report->NumberOr("attempted", 0), static_cast<double>(r->attempted));
  EXPECT_EQ(report->Find("untraced_ms")->items().size(),
            r->untraced_ms.size());
  EXPECT_EQ(report->Find("per_layer")->members().size(),
            PerLayerMetricTable().metrics().size());
}

TEST(Run, UnknownWorkloadIsAnError) {
  EXPECT_FALSE(perfbench::Run(ShortRun("nope")).ok());
}

// step [0,100] > query [10,40] > geometry [15,25]; step > runtime [50,90];
// a setup root and its child are excluded from the step shares.
TEST(Spans, SelfTimeShares) {
  const std::vector<SpanRecord> spans = {
      {"step", Layer::kHarness, 0, 100, -1},
      {"load_model", Layer::kQuery, 10, 40, 0},
      {"ratio", Layer::kGeometry, 15, 25, 1},
      {"simulate", Layer::kRuntime, 50, 90, 0},
      {"setup", Layer::kHarness, 100, 200, -1},
      {"compile", Layer::kRuntime, 110, 190, 4},
  };
  const std::vector<double> self = SelfSecondsByLayer(spans, "step");
  ASSERT_EQ(self.size(), kNumLayers);
  EXPECT_NEAR(self[size_t(Layer::kHarness)], 30e-9, 1e-18);
  EXPECT_NEAR(self[size_t(Layer::kQuery)], 20e-9, 1e-18);
  EXPECT_NEAR(self[size_t(Layer::kGeometry)], 10e-9, 1e-18);
  EXPECT_NEAR(self[size_t(Layer::kRuntime)], 40e-9, 1e-18);
  EXPECT_EQ(self[size_t(Layer::kPlacement)], 0.0);
  const std::vector<double> ratio = SpanSeconds(spans, "ratio", "step");
  ASSERT_EQ(ratio.size(), 1u);
  EXPECT_NEAR(ratio[0], 10e-9, 1e-18);
  EXPECT_TRUE(SpanSeconds(spans, "compile", "step").empty());
}

}  // namespace
}  // namespace perfbench
