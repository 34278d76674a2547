// Cost-based DP join enumerator tests (src/ra/planner/), against the
// greedy pass it falls back to (reached here with dp_max_relations = 1):
//  - DP-vs-greedy differential: identical result sets on the LDBC and
//    YAGO workloads, and DP plan cost never above greedy plan cost on
//    closure-free join clusters (greedy's left-deep connected trees are a
//    subset of DP's search space under the shared cost model);
//  - interesting orders: a cluster where greedy's cardinality-driven
//    order destroys the sorted prefix and hashes, while DP keeps the
//    order alive for a merge join;
//  - estimator accuracy: q-error bounds on executed workload joins
//    (EXPLAIN analyze's rows = est/actual, asserted programmatically);
//  - planner knobs: greedy fallback on an expired planning deadline and
//    above the DP cluster-size cutoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "query/query_parser.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/explain.h"
#include "api/stages.h"  // white-box stage access
#include "ra/planner/dp_enumerator.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace gqopt {
namespace {

OptimizerOptions DpOptions() { return {}; }

// A DP cutoff of one relation sends every cluster to the greedy pass.
OptimizerOptions GreedyOptions() {
  OptimizerOptions options;
  options.dp_max_relations = 1;
  return options;
}

// The interesting-order scenario: two identical-shaped "big" relations
// over the same columns (merge-joinable) plus one small connector. The
// greedy pass starts from the small relation (cheapest first), which
// buries the shared columns mid-row and forces a hash join; DP keeps
// big1 |><| big2 sorted on (a, b) and merges.
PropertyGraph OrderScenarioGraph(size_t nodes, size_t big, size_t small) {
  Rng rng(7);
  PropertyGraph g;
  for (size_t i = 0; i < nodes; ++i) g.AddNode("N");
  for (size_t i = 0; i < big; ++i) {
    NodeId a = static_cast<NodeId>(rng.Uniform(nodes));
    NodeId b = static_cast<NodeId>(rng.Uniform(nodes));
    (void)g.AddEdge(a, "big1", b);
    (void)g.AddEdge(a, "big2", b);
  }
  for (size_t i = 0; i < small; ++i) {
    (void)g.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), "small",
                    static_cast<NodeId>(rng.Uniform(nodes)));
  }
  g.Finalize();
  return g;
}

RaExprPtr OrderScenarioCluster() {
  return RaExpr::Join(
      RaExpr::Join(RaExpr::EdgeScan("small", "b", "c"),
                   RaExpr::EdgeScan("big1", "a", "b")),
      RaExpr::EdgeScan("big2", "a", "b"));
}

// Reorders columns alphabetically and sort-distincts the rows, so result
// sets compare independently of the join order's column layout.
Table Canonical(const Table& t) {
  std::vector<std::string> cols = t.columns();
  std::sort(cols.begin(), cols.end());
  std::vector<int> sources;
  for (const std::string& col : cols) sources.push_back(t.ColumnIndex(col));
  std::vector<NodeId> data;
  data.reserve(t.data().size());
  for (size_t r = 0; r < t.rows(); ++r) {
    for (int src : sources) data.push_back(t.Row(r)[src]);
  }
  Table out = Table::FromData(cols, std::move(data));
  out.SortDistinct();
  return out;
}

const RaExpr* TopJoin(const RaExprPtr& plan) {
  const RaExpr* e = plan.get();
  while (e != nullptr && e->op() != RaOp::kJoin) e = e->left().get();
  return e;
}

TEST(PlannerTest, DpRetainsSortedOrderForDownstreamMergeJoin) {
  PropertyGraph graph = OrderScenarioGraph(1000, 4000, 1000);
  Catalog catalog(graph);
  RaExprPtr cluster = OrderScenarioCluster();

  RaExprPtr dp = OptimizePlan(cluster, catalog, DpOptions());
  RaExprPtr greedy = OptimizePlan(cluster, catalog, GreedyOptions());
  std::string dp_explain = ExplainPlan(dp, catalog);
  std::string greedy_explain = ExplainPlan(greedy, catalog);

  // Greedy hashes (no order survives its start); DP merges.
  EXPECT_EQ(greedy_explain.find("[merge]"), std::string::npos)
      << greedy_explain;
  EXPECT_NE(greedy_explain.find("-hash"), std::string::npos)
      << greedy_explain;
  EXPECT_NE(dp_explain.find("[merge]"), std::string::npos) << dp_explain;

  // Same cost model: the DP winner can never cost more than the greedy
  // tree, which is inside DP's search space.
  Estimator estimator(catalog);
  EXPECT_LE(estimator.Estimate(TopJoin(dp)).cost,
            estimator.Estimate(TopJoin(greedy)).cost * (1 + 1e-9));

  // And both plans compute the same relation.
  Executor executor(catalog);
  auto dp_result = executor.Run(dp);
  auto greedy_result = executor.Run(greedy);
  ASSERT_TRUE(dp_result.ok());
  ASSERT_TRUE(greedy_result.ok());
  Table a = Canonical(*dp_result);
  Table b = Canonical(*greedy_result);
  EXPECT_EQ(a.columns(), b.columns());
  EXPECT_EQ(a.data(), b.data());
}

TEST(PlannerTest, DpCostNeverExceedsGreedyOnClosureFreeClusters) {
  PropertyGraph graph = GenerateYago({.persons = 400, .seed = 11});
  Catalog catalog(graph);
  // Closure-free chain/star/cycle clusters over YAGO relations.
  const std::vector<std::vector<RaExprPtr>> clusters = {
      {RaExpr::EdgeScan("owns", "x", "y"),
       RaExpr::EdgeScan("isLocatedIn", "y", "z"),
       RaExpr::EdgeScan("isLocatedIn", "z", "w")},
      {RaExpr::EdgeScan("livesIn", "x", "c"),
       RaExpr::EdgeScan("isLocatedIn", "c", "r"),
       RaExpr::EdgeScan("dealsWith", "r", "r2"),
       RaExpr::EdgeScan("isMarriedTo", "x", "p")},
      {RaExpr::EdgeScan("owns", "x", "y"),
       RaExpr::EdgeScan("livesIn", "x", "c"),
       RaExpr::EdgeScan("isLocatedIn", "y", "c")},
  };
  for (const auto& rels : clusters) {
    RaExprPtr plan = rels[0];
    for (size_t i = 1; i < rels.size(); ++i) {
      plan = RaExpr::Join(plan, rels[i]);
    }
    RaExprPtr dp = OptimizePlan(plan, catalog, DpOptions());
    RaExprPtr greedy = OptimizePlan(plan, catalog, GreedyOptions());
    Estimator estimator(catalog);
    EXPECT_LE(estimator.Estimate(TopJoin(dp)).cost,
              estimator.Estimate(TopJoin(greedy)).cost * (1 + 1e-9))
        << ExplainPlan(dp, catalog) << "\nvs greedy\n"
        << ExplainPlan(greedy, catalog);
  }
}

void CheckDifferential(const Catalog& catalog,
                       const std::vector<WorkloadQuery>& workload,
                       size_t limit) {
  size_t checked = 0;
  for (const WorkloadQuery& wq : workload) {
    if (checked >= limit) break;
    auto query = ParseWorkloadQuery(wq);
    ASSERT_TRUE(query.ok()) << wq.id;
    auto plan = UcqtToRa(*query);
    ASSERT_TRUE(plan.ok()) << wq.id;
    Executor executor(catalog);
    auto dp = executor.Run(OptimizePlan(*plan, catalog, DpOptions()));
    auto greedy =
        executor.Run(OptimizePlan(*plan, catalog, GreedyOptions()));
    ASSERT_TRUE(dp.ok()) << wq.id << ": " << dp.status().ToString();
    ASSERT_TRUE(greedy.ok()) << wq.id << ": "
                             << greedy.status().ToString();
    Table a = *dp;
    Table b = *greedy;
    a.SortDistinct();
    b.SortDistinct();
    EXPECT_EQ(a.data(), b.data()) << wq.id;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(PlannerTest, DpMatchesGreedyOnYagoWorkload) {
  PropertyGraph graph = GenerateYago({.persons = 250, .seed = 5});
  Catalog catalog(graph);
  CheckDifferential(catalog, YagoWorkload(), 10);
}

TEST(PlannerTest, DpMatchesGreedyOnLdbcWorkload) {
  PropertyGraph graph = GenerateLdbc({.persons = 120, .seed = 5});
  Catalog catalog(graph);
  CheckDifferential(catalog, LdbcWorkload(), 10);
}

// q-errors of the executed kJoin nodes of a plan (est vs actual).
void CollectJoinQErrors(
    const RaExpr* e, Estimator* estimator,
    const std::unordered_map<const RaExpr*, size_t>& actual,
    std::vector<double>* qs) {
  if (e == nullptr) return;
  if (e->op() == RaOp::kJoin) {
    auto it = actual.find(e);
    if (it != actual.end()) {
      double est = std::max(1.0, estimator->Estimate(e).rows);
      double act = std::max<double>(1.0, static_cast<double>(it->second));
      qs->push_back(std::max(est, act) / std::min(est, act));
    }
  }
  CollectJoinQErrors(e->left().get(), estimator, actual, qs);
  if (e->right()) {
    CollectJoinQErrors(e->right().get(), estimator, actual, qs);
  }
}

// Asserts the estimator's q-error over the executed joins of the first
// `limit` workload queries: a tight bound on the geometric mean (typical
// estimates are good) and a looser per-join cap (independence
// assumptions carry no skew statistics). The Estimator is constructed
// per query: its memo is keyed by node pointer, so it must never outlive
// the plan it estimated (freed nodes alias fresh allocations).
void CheckQError(const Catalog& catalog,
                 const std::vector<WorkloadQuery>& workload, size_t limit,
                 double geomean_bound, double max_bound) {
  std::vector<double> qs;
  size_t checked = 0;
  for (const WorkloadQuery& wq : workload) {
    if (checked >= limit) break;
    auto query = ParseWorkloadQuery(wq);
    ASSERT_TRUE(query.ok()) << wq.id;
    auto plan = UcqtToRa(*query);
    ASSERT_TRUE(plan.ok()) << wq.id;
    RaExprPtr optimized = OptimizePlan(*plan, catalog, DpOptions());
    Estimator estimator(catalog);
    Executor executor(catalog);
    auto table = executor.Run(optimized);
    ASSERT_TRUE(table.ok()) << wq.id;
    size_t before = qs.size();
    CollectJoinQErrors(optimized.get(), &estimator, executor.actual_rows(),
                       &qs);
    for (size_t i = before; i < qs.size(); ++i) {
      EXPECT_LE(qs[i], max_bound)
          << wq.id << "\n"
          << ExplainPlanAnalyze(optimized, catalog, executor.actual_rows());
    }
    ++checked;
  }
  ASSERT_GT(qs.size(), 0u);
  double log_sum = 0;
  for (double q : qs) log_sum += std::log(q);
  double geomean = std::exp(log_sum / static_cast<double>(qs.size()));
  EXPECT_LE(geomean, geomean_bound);
}

TEST(PlannerTest, EstimatorQErrorBoundedOnLdbcJoins) {
  PropertyGraph graph = GenerateLdbc({.persons = 150, .seed = 3});
  Catalog catalog(graph);
  CheckQError(catalog, LdbcWorkload(), 8, /*geomean_bound=*/8.0,
              /*max_bound=*/64.0);
}

TEST(PlannerTest, EstimatorQErrorBoundedOnYagoJoins) {
  PropertyGraph graph = GenerateYago({.persons = 300, .seed = 3});
  Catalog catalog(graph);
  CheckQError(catalog, YagoWorkload(), 8, /*geomean_bound=*/8.0,
              /*max_bound=*/64.0);
}

TEST(PlannerTest, ExplainAnalyzeShowsEstimatedAndActualRows) {
  PropertyGraph graph = testing::Fig2Graph();
  Catalog catalog(graph);
  RaExprPtr plan =
      OptimizePlan(RaExpr::Join(RaExpr::EdgeScan("owns", "x", "z"),
                                RaExpr::EdgeScan("isLocatedIn", "z", "y")),
                   catalog, DpOptions());
  Executor executor(catalog);
  ASSERT_TRUE(executor.Run(plan).ok());
  std::string analyze =
      ExplainPlanAnalyze(plan, catalog, executor.actual_rows());
  // Scan estimates are exact, so est/actual agree: "rows = 1/1".
  EXPECT_NE(analyze.find("rows = 1/1"), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("rows = 4/4"), std::string::npos) << analyze;
  // Plain EXPLAIN stays est-only.
  std::string plain = ExplainPlan(plan, catalog);
  EXPECT_EQ(plain.find("/"), std::string::npos) << plain;
}

TEST(PlannerTest, ExpiredPlanningDeadlineFallsBackToGreedy) {
  PropertyGraph graph = OrderScenarioGraph(1000, 4000, 1000);
  Catalog catalog(graph);
  OptimizerOptions expired = DpOptions();
  expired.planning_deadline = Deadline::AfterMillis(1);
  while (!expired.planning_deadline.Expired()) {
  }
  RaExprPtr fallback =
      OptimizePlan(OrderScenarioCluster(), catalog, expired);
  RaExprPtr greedy =
      OptimizePlan(OrderScenarioCluster(), catalog, GreedyOptions());
  EXPECT_EQ(ExplainPlan(fallback, catalog), ExplainPlan(greedy, catalog));
}

TEST(PlannerTest, ClustersAboveCutoffFallBackToGreedy) {
  PropertyGraph graph = OrderScenarioGraph(1000, 4000, 1000);
  Catalog catalog(graph);
  OptimizerOptions tiny_cutoff = DpOptions();
  tiny_cutoff.dp_max_relations = 2;
  RaExprPtr capped =
      OptimizePlan(OrderScenarioCluster(), catalog, tiny_cutoff);
  RaExprPtr greedy =
      OptimizePlan(OrderScenarioCluster(), catalog, GreedyOptions());
  EXPECT_EQ(ExplainPlan(capped, catalog), ExplainPlan(greedy, catalog));
}

TEST(PlannerTest, DpPlansTenRelationChainUnderCutoff) {
  // A 10-relation chain — the DP cutoff boundary; the planner must stay
  // exact (connected enumeration) and return an annotated tree.
  Rng rng(13);
  PropertyGraph g;
  for (size_t i = 0; i < 500; ++i) g.AddNode("N");
  for (int rel = 0; rel < 10; ++rel) {
    std::string label = "e" + std::to_string(rel);
    for (size_t i = 0; i < 2000; ++i) {
      (void)g.AddEdge(static_cast<NodeId>(rng.Uniform(500)), label,
                      static_cast<NodeId>(rng.Uniform(500)));
    }
  }
  g.Finalize();
  Catalog catalog(g);
  RaExprPtr plan = RaExpr::EdgeScan("e0", "c0", "c1");
  for (int rel = 1; rel < 10; ++rel) {
    plan = RaExpr::Join(
        plan, RaExpr::EdgeScan("e" + std::to_string(rel),
                               "c" + std::to_string(rel),
                               "c" + std::to_string(rel + 1)));
  }
  RaExprPtr dp = OptimizePlan(plan, catalog, DpOptions());
  ASSERT_NE(dp, nullptr);
  // The chain is fully connected: no cross products in the DP tree.
  std::function<void(const RaExpr*)> check = [&](const RaExpr* e) {
    if (e == nullptr) return;
    if (e->op() == RaOp::kJoin) {
      EXPECT_FALSE(SharedColumns(*e->left(), *e->right()).empty());
    }
    check(e->left().get());
    check(e->right().get());
  };
  check(dp.get());
  // DP cost is still bounded by greedy's.
  Estimator estimator(catalog);
  RaExprPtr greedy = OptimizePlan(plan, catalog, GreedyOptions());
  EXPECT_LE(estimator.Estimate(TopJoin(dp)).cost,
            estimator.Estimate(TopJoin(greedy)).cost * (1 + 1e-9));
}

}  // namespace
}  // namespace gqopt
