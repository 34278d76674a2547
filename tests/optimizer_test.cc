// Optimizer rule tests: identity-projection removal, Distinct collapsing,
// join-cluster reordering and fixpoint seeding.

#include <gtest/gtest.h>

#include <functional>

#include "query/query_parser.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/explain.h"
#include "api/stages.h"  // white-box stage access
#include "test_fixtures.h"
#include "util/rng.h"

namespace gqopt {
namespace {

size_t CountOp(const RaExprPtr& e, RaOp op) {
  if (!e) return 0;
  size_t n = e->op() == op ? 1 : 0;
  return n + CountOp(e->left(), op) + CountOp(e->right(), op) +
         (e->op() == RaOp::kTransitiveClosure && e->seed()
              ? CountOp(e->seed(), op)
              : 0);
}

bool HasSeededClosure(const RaExprPtr& e) {
  if (!e) return false;
  if (e->op() == RaOp::kTransitiveClosure &&
      e->seed_side() != SeedSide::kNone) {
    return true;
  }
  return HasSeededClosure(e->left()) || HasSeededClosure(e->right());
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : graph_(testing::Fig2Graph()), catalog_(graph_) {}

  PropertyGraph graph_;
  Catalog catalog_;
};

TEST_F(OptimizerTest, RemovesIdentityProjection) {
  RaExprPtr scan = RaExpr::EdgeScan("owns", "a", "b");
  RaExprPtr plan =
      RaExpr::Project(scan, {{"a", "a"}, {"b", "b"}});
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(optimized.get(), scan.get());
}

TEST_F(OptimizerTest, KeepsRenamingProjection) {
  RaExprPtr plan = RaExpr::Project(RaExpr::EdgeScan("owns", "a", "b"),
                                   {{"a", "x"}, {"b", "b"}});
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(optimized->op(), RaOp::kProject);
}

TEST_F(OptimizerTest, KeepsReorderingProjection) {
  // Same names but swapped order is NOT an identity.
  RaExprPtr plan = RaExpr::Project(RaExpr::EdgeScan("owns", "a", "b"),
                                   {{"b", "b"}, {"a", "a"}});
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(optimized->op(), RaOp::kProject);
}

TEST_F(OptimizerTest, CollapsesNestedDistinct) {
  RaExprPtr plan = RaExpr::Distinct(
      RaExpr::Distinct(RaExpr::EdgeScan("owns", "a", "b")));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(CountOp(optimized, RaOp::kDistinct), 1u);
}

TEST_F(OptimizerTest, CollapsesDistinctThroughIdentityProject) {
  RaExprPtr inner = RaExpr::Distinct(RaExpr::EdgeScan("owns", "a", "b"));
  RaExprPtr plan = RaExpr::Distinct(
      RaExpr::Project(inner, {{"a", "a"}, {"b", "b"}}));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(CountOp(optimized, RaOp::kDistinct), 1u);
}

TEST_F(OptimizerTest, SeedsClosureJoinedOnSource) {
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("owns", "x", "z"),
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("isLocatedIn", "z", "y"),
                                "z", "y"));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_TRUE(HasSeededClosure(optimized)) << optimized->ToString();
}

TEST_F(OptimizerTest, SeedingCanBeDisabled) {
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("owns", "x", "z"),
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("isLocatedIn", "z", "y"),
                                "z", "y"));
  OptimizerOptions options;
  options.enable_fixpoint_seeding = false;
  RaExprPtr optimized = OptimizePlan(plan, catalog_, options);
  EXPECT_FALSE(HasSeededClosure(optimized));
}

TEST_F(OptimizerTest, DoesNotSeedDisconnectedClosure) {
  // The closure shares no column with the other conjunct.
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("owns", "x", "z"),
      RaExpr::TransitiveClosure(RaExpr::EdgeScan("isLocatedIn", "p", "q"),
                                "p", "q"));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_FALSE(HasSeededClosure(optimized));
}

TEST_F(OptimizerTest, AlreadySeededClosureIsLeftAlone) {
  RaExprPtr seed = RaExpr::NodeScan({"PROPERTY"}, "z");
  RaExprPtr tc = RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("isLocatedIn", "z", "y"), "z", "y", seed,
      SeedSide::kSource);
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"), tc);
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  // Still exactly one closure, still source-seeded by the node scan.
  EXPECT_EQ(CountOp(optimized, RaOp::kTransitiveClosure), 1u);
}

TEST_F(OptimizerTest, OptimizationPreservesResults) {
  for (const char* text : {
           "x, y <- (x, owns/isLocatedIn+, y)",
           "x, y <- (x, livesIn/isLocatedIn/isLocatedIn, y)",
           "x, y <- (x, isLocatedIn+ , y), label(x) = PROPERTY",
           "y <- (y, livesIn/isLocatedIn+, m), (y, owns, z)",
           "x, y <- (x, (livesIn | owns)[isLocatedIn], y)",
       }) {
    auto query = ParseUcqt(text);
    ASSERT_TRUE(query.ok()) << text;
    auto plan = UcqtToRa(*query);
    ASSERT_TRUE(plan.ok()) << text;
    Executor executor(catalog_);
    auto raw = executor.Run(*plan);
    ASSERT_TRUE(raw.ok()) << text;
    for (bool seeding : {false, true}) {
      OptimizerOptions options;
      options.enable_fixpoint_seeding = seeding;
      auto optimized = executor.Run(OptimizePlan(*plan, catalog_, options));
      ASSERT_TRUE(optimized.ok()) << text;
      Table a = *raw;
      Table b = *optimized;
      a.SortDistinct();
      b.SortDistinct();
      EXPECT_EQ(a.data(), b.data()) << text << " seeding=" << seeding;
    }
  }
}

TEST_F(OptimizerTest, JoinReorderingKeepsColumns) {
  auto query = ParseUcqt(
      "x <- (x, owns, z), (z, isLocatedIn, c), (x, livesIn, c2)");
  ASSERT_TRUE(query.ok());
  auto plan = UcqtToRa(*query);
  ASSERT_TRUE(plan.ok());
  RaExprPtr optimized = OptimizePlan(*plan, catalog_);
  EXPECT_EQ(optimized->columns(), (*plan)->columns());
}

TEST_F(OptimizerTest, EstimatorOrdersSelectiveScansFirst) {
  // In a cluster {owns (1 row), isLocatedIn (4 rows)}, the greedy order
  // starts from the smaller relation; verify via the shape: left-most leaf
  // of the join tree is the owns scan.
  RaExprPtr plan = RaExpr::Join(
      RaExpr::EdgeScan("isLocatedIn", "z", "y"),
      RaExpr::EdgeScan("owns", "x", "z"));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  const RaExpr* leftmost = optimized.get();
  while (leftmost->left()) leftmost = leftmost->left().get();
  EXPECT_EQ(leftmost->label(), "owns");
}

// ---- Physical properties and join-strategy annotation ---------------------

TEST_F(OptimizerTest, SortedPrefixPropagatesBottomUp) {
  RaExprPtr scan = RaExpr::EdgeScan("owns", "x", "y");
  EXPECT_EQ(scan->sorted_prefix(), 2u);
  EXPECT_EQ(RaExpr::NodeScan({"PERSON"}, "n")->sorted_prefix(), 1u);
  // Keeping the leading column (renamed or not) keeps prefix 1.
  EXPECT_EQ(RaExpr::Project(scan, {{"x", "x"}})->sorted_prefix(), 1u);
  EXPECT_EQ(RaExpr::Project(scan, {{"x", "u"}, {"y", "v"}})->sorted_prefix(),
            2u);
  // Reordering drops it.
  EXPECT_EQ(RaExpr::Project(scan, {{"y", "y"}, {"x", "x"}})->sorted_prefix(),
            0u);
  EXPECT_EQ(RaExpr::SelectEq(scan, "x", "y")->sorted_prefix(), 2u);
  EXPECT_EQ(RaExpr::Distinct(scan)->sorted_prefix(), 2u);
  EXPECT_EQ(RaExpr::Union(scan, scan)->sorted_prefix(), 0u);
  EXPECT_EQ(RaExpr::TransitiveClosure(scan, "x", "y")->sorted_prefix(), 2u);
}

TEST_F(OptimizerTest, AnnotatesOffsetJoin) {
  // Chain join: the right side is sorted on the single shared column.
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::EdgeScan("isLocatedIn", "z", "y"));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  std::string explain = ExplainPlan(optimized, catalog_);
  EXPECT_NE(explain.find("[offset]"), std::string::npos) << explain;
}

TEST_F(OptimizerTest, AnnotatesMergeJoinOnMultiColumnKeys) {
  // Both sides sorted with the two shared columns leading: a shape the
  // bool-based detection could only hash (it required one shared column).
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "y"),
                                RaExpr::EdgeScan("livesIn", "x", "y"));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  std::string explain = ExplainPlan(optimized, catalog_);
  EXPECT_NE(explain.find("[merge]"), std::string::npos) << explain;
}

TEST_F(OptimizerTest, ColumnDroppingProjectionStillJoinsViaOffset) {
  // Distinct(Project(keep leading column)) stays sorted under the prefix
  // model, so the join is annotated [offset] — the bool model lost
  // sortedness on projection and hashed this shape.
  RaExprPtr proj = RaExpr::Project(RaExpr::EdgeScan("isLocatedIn", "z", "w"),
                                   {{"z", "z"}});
  EXPECT_EQ(proj->sorted_prefix(), 1u);
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::Distinct(proj));
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  std::string explain = ExplainPlan(optimized, catalog_);
  EXPECT_NE(explain.find("[offset]"), std::string::npos) << explain;
}

TEST_F(OptimizerTest, HashFallbackPicksRadixBySize) {
  // Shared column is trailing on both sides: hash join. On the tiny
  // Fig 2 catalog the estimated build is small => flat; on a bulk graph
  // it crosses the radix threshold.
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::EdgeScan("livesIn", "y", "z"));
  std::string small = ExplainPlan(OptimizePlan(plan, catalog_), catalog_);
  EXPECT_NE(small.find("[flat-hash"), std::string::npos) << small;

  Rng rng(23);
  PropertyGraph big;
  for (size_t i = 0; i < 1000; ++i) big.AddNode("N");
  for (size_t i = 0; i < 48000; ++i) {
    (void)big.AddEdge(static_cast<NodeId>(rng.Uniform(1000)), "owns",
                      static_cast<NodeId>(rng.Uniform(1000)));
    (void)big.AddEdge(static_cast<NodeId>(rng.Uniform(1000)), "livesIn",
                      static_cast<NodeId>(rng.Uniform(1000)));
  }
  Catalog big_catalog(big);
  std::string large = ExplainPlan(OptimizePlan(plan, big_catalog),
                                  big_catalog);
  EXPECT_NE(large.find("[radix-hash"), std::string::npos) << large;
}

TEST_F(OptimizerTest, AnnotatesParallelismHint) {
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::EdgeScan("livesIn", "y", "z"));
  Rng rng(29);
  PropertyGraph big;
  for (size_t i = 0; i < 1000; ++i) big.AddNode("N");
  for (size_t i = 0; i < 48000; ++i) {
    (void)big.AddEdge(static_cast<NodeId>(rng.Uniform(1000)), "owns",
                      static_cast<NodeId>(rng.Uniform(1000)));
    (void)big.AddEdge(static_cast<NodeId>(rng.Uniform(1000)), "livesIn",
                      static_cast<NodeId>(rng.Uniform(1000)));
  }
  Catalog big_catalog(big);

  // Planning for dop 8 over inputs above the parallel row threshold:
  // the hash join is annotated with the predicted parallelism, printed
  // inside the strategy bracket.
  OptimizerOptions parallel;
  parallel.dop = 8;
  std::string hinted =
      ExplainPlan(OptimizePlan(plan, big_catalog, parallel), big_catalog);
  EXPECT_NE(hinted.find("[radix-hash p=8]"), std::string::npos) << hinted;

  // Serial planning, pinned explicitly with dop = 1, never prints p=.
  OptimizerOptions serial;
  serial.dop = 1;
  std::string unhinted =
      ExplainPlan(OptimizePlan(plan, big_catalog, serial), big_catalog);
  EXPECT_EQ(unhinted.find("p="), std::string::npos) << unhinted;

  // Below the row threshold the optimizer predicts serial execution even
  // when planning for dop 8 (the tiny Fig 2 catalog).
  std::string small =
      ExplainPlan(OptimizePlan(plan, catalog_, parallel), catalog_);
  EXPECT_EQ(small.find("p="), std::string::npos) << small;
}

TEST_F(OptimizerTest, ExplainShowsOrderingProperty) {
  RaExprPtr plan = RaExpr::EdgeScan("owns", "x", "y");
  std::string explain = ExplainPlan(plan, catalog_);
  EXPECT_NE(explain.find("sorted = 2"), std::string::npos) << explain;
}

TEST_F(OptimizerTest, FusesLimitOverSortIntoTopK) {
  RaExprPtr plan = RaExpr::Limit(
      RaExpr::Sort(RaExpr::EdgeScan("owns", "x", "y"),
                   {{"y", true}}),
      5);
  RaExprPtr optimized = OptimizePlan(plan, catalog_);
  EXPECT_EQ(optimized->op(), RaOp::kTopK);
  EXPECT_EQ(optimized->limit(), 5u);
  ASSERT_EQ(optimized->sort_keys().size(), 1u);
  EXPECT_EQ(optimized->sort_keys()[0].column, "y");
  EXPECT_TRUE(optimized->sort_keys()[0].descending);
  EXPECT_EQ(CountOp(optimized, RaOp::kSort), 0u);
}

TEST_F(OptimizerTest, ElidesSortWhenOrderAlreadyDelivered) {
  // EdgeScan output is fully sorted ascending on (x, y): an ascending
  // Sort on the leading prefix is a no-op and disappears.
  RaExprPtr scan = RaExpr::EdgeScan("owns", "x", "y");
  RaExprPtr optimized =
      OptimizePlan(RaExpr::Sort(scan, {{"x", false}}), catalog_);
  EXPECT_EQ(optimized.get(), scan.get());
  // A descending request is NOT delivered; the Sort must stay.
  RaExprPtr kept =
      OptimizePlan(RaExpr::Sort(scan, {{"x", true}}), catalog_);
  EXPECT_EQ(kept->op(), RaOp::kSort);
}

TEST_F(OptimizerTest, DowngradesTopKToLimitWhenOrderDelivered) {
  RaExprPtr scan = RaExpr::EdgeScan("owns", "x", "y");
  RaExprPtr optimized = OptimizePlan(
      RaExpr::TopK(scan, {{"x", false}, {"y", false}}, 3), catalog_);
  EXPECT_EQ(optimized->op(), RaOp::kLimit);
  EXPECT_EQ(optimized->limit(), 3u);
  EXPECT_EQ(optimized->left().get(), scan.get());
}

TEST_F(OptimizerTest, ExplainAnnotatesTopK) {
  RaExprPtr plan = RaExpr::Limit(
      RaExpr::Sort(RaExpr::EdgeScan("owns", "x", "y"),
                   {{"y", true}, {"x", false}}),
      4);
  std::string explain =
      ExplainPlan(OptimizePlan(plan, catalog_), catalog_);
  EXPECT_NE(explain.find("topk k=4"), std::string::npos) << explain;
  EXPECT_NE(explain.find("keys=y desc,x"), std::string::npos) << explain;
}

}  // namespace
}  // namespace gqopt
