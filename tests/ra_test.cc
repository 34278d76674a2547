// RRA plan construction, optimization, execution and EXPLAIN.

#include <gtest/gtest.h>

#include "eval/graph_engine.h"
#include "query/query_parser.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/explain.h"
#include "api/stages.h"  // white-box stage access
#include "test_fixtures.h"

namespace gqopt {
namespace {

using testing::kN1;
using testing::kN2;
using testing::kN3;
using testing::kN4;
using testing::kN5;
using testing::kN6;
using testing::kN7;

class RaTest : public ::testing::Test {
 protected:
  RaTest() : graph_(testing::Fig2Graph()), catalog_(graph_) {}

  Table Run(const RaExprPtr& plan) {
    Executor executor(catalog_);
    auto result = executor.Run(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : Table{};
  }

  Table RunQuery(const std::string& text, bool optimize = true) {
    auto query = ParseUcqt(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto plan = UcqtToRa(*query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    RaExprPtr final_plan =
        optimize ? OptimizePlan(*plan, catalog_) : *plan;
    return Run(final_plan);
  }

  PropertyGraph graph_;
  Catalog catalog_;
};

TEST_F(RaTest, EdgeScan) {
  Table t = Run(RaExpr::EdgeScan("livesIn", "s", "t"));
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"s", "t"}));
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.At(0, 0), kN2);
  EXPECT_EQ(t.At(0, 1), kN4);
}

TEST_F(RaTest, NodeScanUnion) {
  Table t = Run(RaExpr::NodeScan({"CITY", "REGION"}, "n"));
  ASSERT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.At(0, 0), kN4);
}

TEST_F(RaTest, ProjectRenames) {
  Table t = Run(RaExpr::Project(RaExpr::EdgeScan("owns", "a", "b"),
                                {{"b", "prop"}, {"a", "person"}}));
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"prop", "person"}));
  EXPECT_EQ(t.At(0, 0), kN1);
  EXPECT_EQ(t.At(0, 1), kN2);
}

TEST_F(RaTest, JoinOnSharedColumn) {
  // owns(x, z) join isLocatedIn(z, c).
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::EdgeScan("isLocatedIn", "z", "c"));
  Table t = Run(plan);
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"x", "z", "c"}));
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.At(0, 0), kN2);
  EXPECT_EQ(t.At(0, 2), kN6);
}

TEST_F(RaTest, CrossJoinWhenNoSharedColumns) {
  RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("owns", "a", "b"),
                                RaExpr::EdgeScan("dealsWith", "c", "d"));
  Table t = Run(plan);
  EXPECT_EQ(t.rows(), 0u);  // no dealsWith edges in Fig 2
  RaExprPtr plan2 = RaExpr::Join(RaExpr::EdgeScan("owns", "a", "b"),
                                 RaExpr::EdgeScan("livesIn", "c", "d"));
  EXPECT_EQ(Run(plan2).rows(), 2u);  // 1 x 2
}

TEST_F(RaTest, SemiJoinKeepsLeftColumns) {
  RaExprPtr plan = RaExpr::SemiJoin(
      RaExpr::EdgeScan("livesIn", "p", "c"),
      RaExpr::Project(RaExpr::EdgeScan("isLocatedIn", "c", "r"),
                      {{"c", "c"}}));
  Table t = Run(plan);
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"p", "c"}));
  EXPECT_EQ(t.rows(), 2u);  // both cities have isLocatedIn
}

TEST_F(RaTest, SelectEqFiltersDiagonal) {
  RaExprPtr base = RaExpr::Join(
      RaExpr::EdgeScan("isMarriedTo", "x", "y"),
      RaExpr::EdgeScan("isMarriedTo", "y", "z"));
  Table t = Run(RaExpr::SelectEq(base, "x", "z"));
  EXPECT_EQ(t.rows(), 2u);  // (John,...,John), (Shradha,...,Shradha)
}

TEST_F(RaTest, UnionAlignsColumns) {
  RaExprPtr left = RaExpr::EdgeScan("owns", "a", "b");
  // Same columns in a different order.
  RaExprPtr right = RaExpr::Project(RaExpr::EdgeScan("livesIn", "b", "a"),
                                    {{"b", "b"}, {"a", "a"}});
  Table t = Run(RaExpr::Distinct(RaExpr::Union(left, right)));
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(RaTest, TransitiveClosureUnseeded) {
  Table t = Run(RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("isLocatedIn", "s", "t"), "s", "t"));
  EXPECT_EQ(t.rows(), 8u);  // matches the Fig 5 evaluation
}

TEST_F(RaTest, TransitiveClosureSeededOnSource) {
  // Seeds = {n1}: only paths starting at the property.
  RaExprPtr seed =
      RaExpr::Project(RaExpr::NodeScan({"PROPERTY"}, "s"), {{"s", "s"}});
  Table t = Run(RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("isLocatedIn", "s", "t"), "s", "t", seed,
      SeedSide::kSource));
  EXPECT_EQ(t.rows(), 3u);  // n1 -> n6, n5, n7
}

TEST_F(RaTest, TransitiveClosureSeededOnTarget) {
  RaExprPtr seed = RaExpr::NodeScan({"COUNTRY"}, "t");
  Table t = Run(RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("isLocatedIn", "s", "t"), "s", "t", seed,
      SeedSide::kTarget));
  // Paths ending at France: from n1, n4, n5, n6.
  EXPECT_EQ(t.rows(), 4u);
}

TEST_F(RaTest, SeededMatchesUnseededAfterJoin) {
  // Join(owns, TC(isLocatedIn)) must give identical results whether the
  // optimizer seeds the closure or not.
  Table unoptimized = RunQuery(
      "x, y <- (x, owns/isLocatedIn+, y)", /*optimize=*/false);
  Table optimized = RunQuery("x, y <- (x, owns/isLocatedIn+, y)",
                             /*optimize=*/true);
  unoptimized.SortDistinct();
  optimized.SortDistinct();
  EXPECT_EQ(unoptimized.data(), optimized.data());
  EXPECT_EQ(unoptimized.rows(), 3u);
}

TEST_F(RaTest, OptimizerSeedsClosureInJoinCluster) {
  auto query = ParseUcqt("x, y <- (x, owns/isLocatedIn+, y)");
  ASSERT_TRUE(query.ok());
  auto plan = UcqtToRa(*query);
  ASSERT_TRUE(plan.ok());
  RaExprPtr optimized = OptimizePlan(*plan, catalog_);
  // Find a seeded closure somewhere in the plan.
  std::function<bool(const RaExprPtr&)> has_seeded =
      [&](const RaExprPtr& e) -> bool {
    if (!e) return false;
    if (e->op() == RaOp::kTransitiveClosure &&
        e->seed_side() != SeedSide::kNone) {
      return true;
    }
    return has_seeded(e->left()) || has_seeded(e->right());
  };
  EXPECT_TRUE(has_seeded(optimized)) << optimized->ToString();
}

TEST_F(RaTest, QueryTranslationMatchesGraphEngine) {
  for (const char* text : {
           "x, y <- (x, owns, y)",
           "x, y <- (x, owns/isLocatedIn, y)",
           "x, y <- (x, livesIn | owns, y)",
           "x, y <- (x, isLocatedIn+, y)",
           "x, y <- (x, livesIn & (livesIn | owns), y)",
           "x, y <- (x, livesIn[isLocatedIn], y)",
           "x, y <- (x, [owns]livesIn, y)",
           "x, y <- (x, -owns/livesIn, y)",
           "x, y <- (x, isMarriedTo{1,2}, y)",
           "y <- (y, livesIn/isLocatedIn+, m), (y, owns, z)",
           "x, y <- (x, isLocatedIn, y), label(x) = CITY",
           "x <- (x, isMarriedTo/isMarriedTo, x)",
       }) {
    Table table = RunQuery(text);
    auto query = ParseUcqt(text);
    ASSERT_TRUE(query.ok());
    GraphEngine engine(graph_);
    auto expected = engine.Run(*query);
    ASSERT_TRUE(expected.ok()) << text;
    table.SortDistinct();
    ASSERT_EQ(table.rows(), expected->rows.size()) << text;
    for (size_t r = 0; r < table.rows(); ++r) {
      for (size_t c = 0; c < table.arity(); ++c) {
        EXPECT_EQ(table.At(r, c), expected->rows[r][c]) << text;
      }
    }
  }
}

TEST_F(RaTest, ExplainReportsCostAndRows) {
  auto query = ParseUcqt("x, y <- (x, owns/isLocatedIn, y)");
  ASSERT_TRUE(query.ok());
  auto plan = UcqtToRa(*query);
  ASSERT_TRUE(plan.ok());
  std::string explain = ExplainPlan(*plan, catalog_);
  EXPECT_NE(explain.find("cost ="), std::string::npos);
  EXPECT_NE(explain.find("rows ="), std::string::npos);
  EXPECT_NE(explain.find("EdgeScan owns"), std::string::npos);
}

TEST_F(RaTest, EstimatorScanCardinalitiesAreExact) {
  Estimator estimator(catalog_);
  RaExprPtr scan = RaExpr::EdgeScan("isLocatedIn", "s", "t");
  const PlanEstimate& est = estimator.Estimate(scan.get());
  EXPECT_DOUBLE_EQ(est.rows, 4.0);
  EXPECT_DOUBLE_EQ(est.ndv.at("s"), 4.0);
  EXPECT_DOUBLE_EQ(est.ndv.at("t"), 3.0);
}

TEST_F(RaTest, TableSortDistinct) {
  Table t({"a", "b"});
  t.AddRow(std::vector<NodeId>{2, 1});
  t.AddRow(std::vector<NodeId>{1, 2});
  t.AddRow(std::vector<NodeId>{2, 1});
  t.SortDistinct();
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.At(0, 0), 1u);
  EXPECT_EQ(t.At(1, 0), 2u);
}

TEST_F(RaTest, DeadlineAbortsExecution) {
  auto query = ParseUcqt("x, y <- (x, isLocatedIn+, y)");
  ASSERT_TRUE(query.ok());
  auto plan = UcqtToRa(*query);
  ASSERT_TRUE(plan.ok());
  Executor executor(catalog_);
  Deadline expired = Deadline::AfterMillis(1);
  while (!expired.Expired()) {
  }
  auto result = executor.Run(*plan, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace gqopt
