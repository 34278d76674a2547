// Differential tests for partition-parallel execution: every operator
// must produce BIT-IDENTICAL tables at dop=1 and dop=N — same rows, same
// row order, same sort-prefix claim — across join strategies, seeded and
// unseeded closures, selections and projections, including empty and
// single-partition inputs. The parallel row threshold is lowered to 0 so
// small (fast) inputs still exercise the parallel code paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/binary_relation.h"
#include "eval/closure.h"
#include "graph/property_graph.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "api/stages.h"  // white-box stage access
#include "ra/ra_expr.h"
#include "test_fixtures.h"
#include "util/exec_context.h"
#include "util/radix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

// A pool with enough workers for dop=4 even on single-core CI boxes.
ThreadPool& TestPool() {
  static ThreadPool pool(3);
  return pool;
}

ExecContext At(int dop) {
  ExecContext ctx;
  ctx.dop = dop;
  ctx.parallel_min_rows = 0;  // parallelize regardless of input size
  ctx.pool = &TestPool();
  return ctx;
}

// Runs `plan` serially and at dop, asserting bit-identical results.
void ExpectDopAgnostic(const Catalog& catalog, const RaExprPtr& plan,
                       int dop = 4) {
  Executor executor(catalog);
  auto serial = executor.Run(plan, At(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = executor.Run(plan, At(dop));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->columns(), parallel->columns());
  EXPECT_EQ(serial->sort_prefix(), parallel->sort_prefix());
  // data() compares raw row-major storage: rows AND row order must match.
  EXPECT_EQ(serial->data(), parallel->data());
}

PropertyGraph RandomGraph(size_t nodes, size_t edges_per_label,
                          uint64_t seed) {
  Rng rng(seed);
  PropertyGraph graph;
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 64 == 0 ? "SEED" : "N");
  }
  for (size_t i = 0; i < edges_per_label; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e1",
                        static_cast<NodeId>(rng.Uniform(nodes)));
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "e2",
                        static_cast<NodeId>(rng.Uniform(nodes)));
  }
  return graph;
}

TEST(ParallelDifferentialTest, FlatHashJoin) {
  PropertyGraph graph = RandomGraph(2000, 8000, 11);
  Catalog catalog(graph);
  // Shared column trailing on the left, leading-but-unsorted via the
  // projection reorder on the right: hash fallback.
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kFlatHash);
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, RadixHashJoinWithRealPartitions) {
  // Build side above kRadixTargetPartitionRows => radix_bits >= 1, so the
  // per-partition build/probe loop actually fans out.
  PropertyGraph graph = RandomGraph(20000, 40000, 12);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kRadixHash);
  ASSERT_GE(RadixBitsFor(40000), 1);
  ExpectDopAgnostic(catalog, plan);
  ExpectDopAgnostic(catalog, plan, /*dop=*/2);
}

TEST(ParallelDifferentialTest, RadixAnnotationOnSmallBuildDegrades) {
  // Forced radix on a build below the partition target: radix_bits == 0,
  // single logical partition — the degrade path must stay dop-agnostic.
  PropertyGraph graph = RandomGraph(500, 2000, 13);
  Catalog catalog(graph);
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("e1", "x", "y"),
      RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                      {{"y", "y"}, {"z", "z"}}),
      JoinStrategy::kRadixHash);
  ASSERT_EQ(RadixBitsFor(2000), 0);
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, MergeAndOffsetJoins) {
  PropertyGraph graph = RandomGraph(2000, 8000, 14);
  Catalog catalog(graph);
  // Both sides sorted on the shared (x, y) prefix: merge.
  RaExprPtr merge = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                 RaExpr::EdgeScan("e2", "x", "y"),
                                 JoinStrategy::kMergeSorted);
  ExpectDopAgnostic(catalog, merge);
  // Right side sorted on the single shared column: offset.
  RaExprPtr offset = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                  RaExpr::EdgeScan("e2", "y", "z"),
                                  JoinStrategy::kOffset);
  ExpectDopAgnostic(catalog, offset);
}

TEST(ParallelDifferentialTest, SelectionAndProjection) {
  PropertyGraph graph = RandomGraph(300, 3000, 15);
  Catalog catalog(graph);
  RaExprPtr join = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                RaExpr::EdgeScan("e2", "y", "z"));
  // Non-identity projection (column reorder) over a selection.
  RaExprPtr plan = RaExpr::Project(RaExpr::SelectEq(join, "x", "z"),
                                   {{"z", "a"}, {"y", "b"}});
  ExpectDopAgnostic(catalog, plan);
}

TEST(ParallelDifferentialTest, SeededAndUnseededClosure) {
  PropertyGraph graph = RandomGraph(1500, 3000, 16);
  Catalog catalog(graph);
  for (SeedSide side : {SeedSide::kSource, SeedSide::kTarget}) {
    RaExprPtr plan = RaExpr::TransitiveClosure(
        RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
        RaExpr::NodeScan({"SEED"}, side == SeedSide::kSource ? "s" : "t"),
        side);
    ExpectDopAgnostic(catalog, plan);
  }
  RaExprPtr unseeded =
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e1", "s", "t"), "s", "t");
  ExpectDopAgnostic(catalog, unseeded);
}

TEST(ParallelDifferentialTest, BinaryRelationClosureMatchesAcrossDop) {
  Rng rng(17);
  std::vector<Edge> pairs;
  for (size_t i = 0; i < 4000; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(900)),
                       static_cast<NodeId>(rng.Uniform(900)));
  }
  BinaryRelation r = BinaryRelation::FromPairs(std::move(pairs));
  auto serial = BinaryRelation::TransitiveClosure(r, At(1));
  ASSERT_TRUE(serial.ok());
  for (int dop : {2, 4}) {
    auto parallel = BinaryRelation::TransitiveClosure(r, At(dop));
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->pairs(), parallel->pairs()) << "dop " << dop;
  }
}

TEST(ParallelDifferentialTest, SeededClosureRangeSplit) {
  testing::RangeSplitCase c = testing::MakeRangeSplitCase();
  for (const std::vector<NodeId>& seeds : c.seed_sets) {
    for (bool seed_source : {true, false}) {
      auto serial = SeededClosure(c.base, seeds, seed_source, At(1));
      auto parallel = SeededClosure(c.base, seeds, seed_source, At(4));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(serial->pairs(), parallel->pairs())
          << seeds.size() << " seeds, seed_source " << seed_source;
    }
  }
}

TEST(ParallelDifferentialTest, ResultCapFailsAlikeAtEveryDop) {
  // The chain 0 -> 1 -> ... -> 5793 has 5794 * 5793 / 2 = 16,782,321
  // closure pairs, just over the cap: the closure fails if and only if
  // its total crosses it, however the pairs split into ranges.
  constexpr NodeId kLast = 5793;
  ASSERT_GT(size_t{kLast + 1} * kLast / 2, kMaxPairs);
  std::vector<Edge> pairs;
  for (NodeId i = 0; i < kLast; ++i) pairs.emplace_back(i, i + 1);
  BinaryRelation chain = BinaryRelation::FromPairs(std::move(pairs));
  for (int dop : {1, 2, 4}) {
    auto closure = BinaryRelation::TransitiveClosure(chain, At(dop));
    ASSERT_FALSE(closure.ok()) << "dop " << dop;
    EXPECT_EQ(closure.status().ToString(),
              Status::ResourceExhausted(
                  "transitive closure exceeded the result cap")
                  .ToString())
        << "dop " << dop;
  }
}

TEST(ParallelDifferentialTest, EmptyInputs) {
  PropertyGraph graph = RandomGraph(100, 400, 18);
  Catalog catalog(graph);
  // "nope" has no edges: empty scans flow through every strategy.
  for (JoinStrategy s :
       {JoinStrategy::kAuto, JoinStrategy::kFlatHash, JoinStrategy::kRadixHash,
        JoinStrategy::kMergeSorted, JoinStrategy::kOffset}) {
    RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                  RaExpr::EdgeScan("nope", "y", "z"), s);
    ExpectDopAgnostic(catalog, plan);
  }
  RaExprPtr closure =
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("nope", "s", "t"), "s", "t");
  ExpectDopAgnostic(catalog, closure);
  RaExprPtr empty_probe = RaExpr::Join(RaExpr::EdgeScan("nope", "x", "y"),
                                       RaExpr::EdgeScan("e1", "y", "z"),
                                       JoinStrategy::kFlatHash);
  ExpectDopAgnostic(catalog, empty_probe);
}

TEST(ParallelDifferentialTest, FusedDistinctPaths) {
  PropertyGraph graph = RandomGraph(2000, 8000, 21);
  // A hub whose run of e1 rows is longer than a morsel: the cuts must
  // move past it.
  for (NodeId v = 0; v < 3000; ++v) {
    (void)graph.AddEdge(7, "e1", (v * 7) % 2000);
  }
  Catalog catalog(graph);
  auto step = [](RaExprPtr left, RaExprPtr right, const std::string& a,
                 const std::string& b) {
    return RaExpr::Distinct(RaExpr::Project(
        RaExpr::Join(std::move(left), std::move(right)), {{a, a}, {b, b}}));
  };
  RaExprPtr xy = RaExpr::EdgeScan("e1", "x", "y");
  RaExprPtr yz = RaExpr::EdgeScan("e2", "y", "z");
  for (int dop : {2, 4}) {
    // Composed: offset-indexed, a in the right input, hash-indexed,
    // self-join, and an empty side.
    ExpectDopAgnostic(catalog, step(xy, yz, "x", "z"), dop);
    ExpectDopAgnostic(catalog, step(yz, xy, "x", "z"), dop);
    ExpectDopAgnostic(
        catalog, step(xy, RaExpr::EdgeScan("e2", "z", "y"), "x", "z"), dop);
    ExpectDopAgnostic(
        catalog, step(xy, RaExpr::EdgeScan("e1", "y", "z"), "x", "z"), dop);
    ExpectDopAgnostic(
        catalog, step(xy, RaExpr::EdgeScan("nope", "y", "z"), "x", "z"),
        dop);
    // Not composed: the drive side is not sorted on the output's first
    // column.
    ExpectDopAgnostic(catalog, step(xy, yz, "z", "x"), dop);
    // Sorted unions merge; one-column distincts set bits.
    ExpectDopAgnostic(
        catalog,
        RaExpr::Distinct(RaExpr::Union(xy, RaExpr::EdgeScan("e2", "x", "y"))),
        dop);
    ExpectDopAgnostic(
        catalog, RaExpr::Distinct(RaExpr::Project(xy, {{"y", "y"}})), dop);
  }
}

TEST(ParallelDifferentialTest, OptimizedPlansEndToEnd) {
  // The full pipeline at a parallel-planning optimizer setting: annotated
  // plans (with p= hints) and an optimizer-seeded closure must execute
  // dop-agnostically too. "e3" is sparse so the closure stays small.
  Rng rng(19);
  PropertyGraph graph = RandomGraph(20000, 40000, 19);
  for (size_t i = 0; i < 6000; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(20000)), "e3",
                        static_cast<NodeId>(rng.Uniform(20000)));
  }
  Catalog catalog(graph);
  OptimizerOptions options;
  options.dop = 4;
  RaExprPtr plan = RaExpr::Join(
      RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                   RaExpr::Project(RaExpr::EdgeScan("e2", "z", "y"),
                                   {{"y", "y"}, {"z", "z"}})),
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("e3", "z", "w"), "z", "w"));
  RaExprPtr optimized = OptimizePlan(plan, catalog, options);
  ExpectDopAgnostic(catalog, optimized);
}

}  // namespace
}  // namespace gqopt
