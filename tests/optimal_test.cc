// Tests for the exhaustive optimal search, including the §7.3.1
// ROD-vs-optimal comparison on small graphs.

#include "placement/optimal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

using query::QueryGraph;

QueryGraph SmallRandomGraph(size_t inputs, size_t ops_per_tree, uint64_t seed) {
  query::GraphGenOptions gen;
  gen.num_input_streams = inputs;
  gen.ops_per_tree = ops_per_tree;
  Rng rng(seed);
  return query::GenerateRandomTrees(gen, rng);
}

TEST(OptimalTest, CanonicalEnumerationCountsSetPartitions) {
  // Homogeneous 2 nodes, m operators: 2^(m-1) canonical plans.
  const QueryGraph g = SmallRandomGraph(2, 3, 1);  // m = 6
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  OptimalOptions options;
  options.volume.num_samples = 2048;
  auto result = OptimalPlace(*model, SystemSpec::Homogeneous(2), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plans_evaluated, 32u);  // 2^5
}

TEST(OptimalTest, FullEnumerationWhenHeterogeneous) {
  const QueryGraph g = SmallRandomGraph(2, 2, 2);  // m = 4
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  OptimalOptions options;
  options.volume.num_samples = 1024;
  auto result = OptimalPlace(*model, SystemSpec{Vector{2.0, 1.0}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plans_evaluated, 16u);  // 2^4
}

TEST(OptimalTest, RefusesHugeSearchSpaces) {
  const QueryGraph g = SmallRandomGraph(3, 20, 3);  // m = 60
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(OptimalPlace(*model, SystemSpec::Homogeneous(4)).ok());
}

TEST(OptimalTest, FindsKnownOptimumOnPaperExample) {
  // Example 2 (Figure 4): the best 2-node split separates both streams,
  // e.g. {o1,o3}|{o2,o4} with weight rows (0.8, 1.636) and (1.2, 0.364).
  // Exact polygon area (vertices (0,0), (0.8333,0), (0.7609,0.2391),
  // (0,0.6111)) gives ratio 0.6642 — strictly better than the connected
  // plan {o1,o2}|{o3,o4} at 0.5.
  QueryGraph g;
  const auto i1 = g.AddInputStream("I1");
  const auto i2 = g.AddInputStream("I2");
  auto o1 = g.AddOperator({.name = "o1", .kind = query::OperatorKind::kMap,
                           .cost = 4.0},
                          {query::StreamRef::Input(i1)});
  auto o2 = g.AddOperator({.name = "o2", .kind = query::OperatorKind::kMap,
                           .cost = 6.0},
                          {query::StreamRef::Op(*o1)});
  auto o3 = g.AddOperator({.name = "o3", .kind = query::OperatorKind::kFilter,
                           .cost = 9.0, .selectivity = 0.5},
                          {query::StreamRef::Input(i2)});
  auto o4 = g.AddOperator({.name = "o4", .kind = query::OperatorKind::kMap,
                           .cost = 4.0},
                          {query::StreamRef::Op(*o3)});
  ASSERT_TRUE(o4.ok());
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());

  OptimalOptions options;
  options.volume.num_samples = 1u << 16;
  auto result = OptimalPlace(*model, SystemSpec::Homogeneous(2), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->ratio_to_ideal, 0.6642, 0.01);
  EXPECT_NE(result->placement.node_of(*o1), result->placement.node_of(*o2));
  EXPECT_NE(result->placement.node_of(*o3), result->placement.node_of(*o4));
}

TEST(OptimalTest, OptimalNeverWorseThanRod) {
  // §7.3.1's experiment in miniature: over several small graphs, optimal's
  // ratio upper-bounds ROD's, and ROD stays close (paper: avg 0.95,
  // min 0.82). The eight brute-force searches are independent, so they
  // run on a pool; each writes only its own slot, and the checks below
  // read the slots in order.
  struct Case {
    uint64_t seed = 0;
    size_t inputs = 0;
    Status status;
    double rod = 0.0;
    double optimal = 0.0;
  };
  std::vector<Case> cases;
  for (size_t inputs : {3u, 2u}) {  // The m = 12 searches dominate; first.
    for (uint64_t seed : {11u, 22u, 33u, 44u}) {
      Case c;
      c.seed = seed;
      c.inputs = inputs;
      cases.push_back(c);
    }
  }
  ThreadPool pool(4);
  ParallelFor(pool, 4, cases.size(), [&](size_t i) {
    Case& c = cases[i];
    const QueryGraph g = SmallRandomGraph(c.inputs, 4, c.seed);  // m = 8, 12
    auto model = query::BuildLoadModel(g);
    if (!model.ok()) {
      c.status = model.status();
      return;
    }
    const SystemSpec system = SystemSpec::Homogeneous(2);
    OptimalOptions options;
    options.volume.num_samples = 8192;
    auto optimal = OptimalPlace(*model, system, options);
    auto rod_plan = RodPlace(*model, system);
    if (!optimal.ok() || !rod_plan.ok()) {
      c.status = optimal.ok() ? rod_plan.status() : optimal.status();
      return;
    }
    const PlacementEvaluator eval(*model, system);
    auto rod_ratio = eval.RatioToIdeal(*rod_plan, options.volume);
    c.status = rod_ratio.status();
    if (!rod_ratio.ok()) return;
    c.rod = *rod_ratio;
    c.optimal = optimal->ratio_to_ideal;
  });

  double worst_gap = 1.0;
  double sum_gap = 0.0;
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed) + ", inputs " +
                 std::to_string(c.inputs));
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    EXPECT_LE(c.rod, c.optimal + 1e-9);
    const double gap = c.rod / c.optimal;
    worst_gap = std::min(worst_gap, gap);
    sum_gap += gap;
  }
  EXPECT_GE(worst_gap, 0.75);              // paper's min observed: 0.82
  EXPECT_GE(sum_gap / cases.size(), 0.90);  // paper's average: 0.95
}

TEST(OptimalTest, SymmetryExploitationPreservesTheOptimum) {
  // Canonical enumeration must find the same best ratio as the full
  // search on a homogeneous cluster — it only skips relabelings.
  const QueryGraph g = SmallRandomGraph(2, 3, 9);  // m = 6
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  OptimalOptions canonical;
  canonical.volume.num_samples = 4096;
  OptimalOptions full = canonical;
  full.exploit_node_symmetry = false;
  auto a = OptimalPlace(*model, system, canonical);
  auto b = OptimalPlace(*model, system, full);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->plans_evaluated, 32u);  // 2^5
  EXPECT_EQ(b->plans_evaluated, 64u);  // 2^6
  EXPECT_DOUBLE_EQ(a->ratio_to_ideal, b->ratio_to_ideal);
}

TEST(OptimalTest, RejectsEmptyModel) {
  QueryGraph g;
  g.AddInputStream("I");
  // No operators -> BuildLoadModel fails upstream; exercise the matrix
  // guard directly through a minimal valid model and a bad system instead.
  const QueryGraph good = SmallRandomGraph(1, 2, 5);
  auto model = query::BuildLoadModel(good);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(OptimalPlace(*model, SystemSpec{}).ok());
}

}  // namespace
}  // namespace rod::place
