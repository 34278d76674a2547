// Randomized ordering property suite (fixed seeds): on random graphs and
// random sort-key / limit combinations, the ordered operators must return
// exactly the first k rows of the stably-ordered full result — where the
// order is the total order "sort keys first (directions respected), then
// the remaining columns ascending". The answer must further be
// bit-identical across a cold and a memo-warm executor, serial and
// parallel execution, and governed and ungoverned memory, and equal to
// the unfused Limit(Sort(child)) form.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/ra_expr.h"
#include "util/exec_context.h"
#include "util/mem_tracker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

ThreadPool& TestPool() {
  static ThreadPool pool(3);
  return pool;
}

ExecContext At(int dop) {
  ExecContext ctx;
  ctx.dop = dop;
  ctx.parallel_min_rows = 0;
  ctx.pool = &TestPool();
  return ctx;
}

PropertyGraph RandomGraph(Rng* rng) {
  PropertyGraph graph;
  size_t nodes = 30 + rng->Uniform(200);
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 16 == 0 ? "SEED" : "N");
  }
  size_t edges = 50 + rng->Uniform(600);
  for (size_t i = 0; i < edges; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng->Uniform(nodes)), "e1",
                        static_cast<NodeId>(rng->Uniform(nodes)));
    (void)graph.AddEdge(static_cast<NodeId>(rng->Uniform(nodes)), "e2",
                        static_cast<NodeId>(rng->Uniform(nodes)));
  }
  graph.Finalize();
  return graph;
}

// A random child plan over {e1, e2} with 2-3 output columns. A seeded
// closure takes its seed side from `side_rng`, a stream of its own, so
// the seed side never shifts the other draws of `rng`.
RaExprPtr RandomChildPlan(Rng* rng, Rng* side_rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return RaExpr::EdgeScan("e1", "x", "y");
    case 1:  // reversed scan via projection: unsorted input downstream
      return RaExpr::Project(RaExpr::EdgeScan("e2", "y", "x"),
                             {{"x", "x"}, {"y", "y"}});
    case 2:
      return RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                          RaExpr::EdgeScan("e2", "y", "z"));
    case 3:
      return RaExpr::Distinct(
          RaExpr::Union(RaExpr::EdgeScan("e1", "x", "y"),
                        RaExpr::EdgeScan("e2", "x", "y")));
    default: {
      bool target = side_rng->Chance(0.5);
      return RaExpr::TransitiveClosure(
          RaExpr::EdgeScan("e1", "x", "y"), "x", "y",
          RaExpr::NodeScan({"SEED"}, target ? "y" : "x"),
          target ? SeedSide::kTarget : SeedSide::kSource);
    }
  }
}

std::vector<SortKey> RandomKeys(const std::vector<std::string>& columns,
                                Rng* rng) {
  std::vector<std::string> pool = columns;
  size_t count = 1 + rng->Uniform(pool.size());
  std::vector<SortKey> keys;
  for (size_t i = 0; i < count; ++i) {
    size_t pick = rng->Uniform(pool.size());
    keys.push_back(SortKey{pool[pick], rng->Chance(0.5)});
    pool.erase(pool.begin() + static_cast<long>(pick));
  }
  return keys;
}

std::vector<std::vector<NodeId>> RowsOf(const Table& t) {
  std::vector<std::vector<NodeId>> rows;
  size_t arity = t.columns().size();
  rows.reserve(t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    std::vector<NodeId> row(arity);
    for (size_t c = 0; c < arity; ++c) row[c] = t.data()[r * arity + c];
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<NodeId>> NaiveTopK(const Table& t,
                                           const std::vector<SortKey>& keys,
                                           size_t k) {
  auto rows = RowsOf(t);
  std::vector<std::pair<size_t, bool>> order;
  std::vector<bool> keyed(t.columns().size(), false);
  for (const SortKey& key : keys) {
    for (size_t c = 0; c < t.columns().size(); ++c) {
      if (t.columns()[c] == key.column) {
        order.emplace_back(c, key.descending);
        keyed[c] = true;
      }
    }
  }
  for (size_t c = 0; c < t.columns().size(); ++c) {
    if (!keyed[c]) order.emplace_back(c, false);
  }
  std::sort(rows.begin(), rows.end(),
            [&order](const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b) {
              for (const auto& [col, desc] : order) {
                if (a[col] != b[col]) {
                  return desc ? a[col] > b[col] : a[col] < b[col];
                }
              }
              return false;
            });
  if (k < rows.size()) rows.resize(k);
  return rows;
}

class TopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKPropertyTest, TopKIsThePrefixOfTheStableFullOrder) {
  Rng rng(GetParam());
  Rng side_rng(~GetParam());
  PropertyGraph graph = RandomGraph(&rng);
  Catalog catalog(graph);

  for (int round = 0; round < 8; ++round) {
    RaExprPtr child = RandomChildPlan(&rng, &side_rng);
    std::vector<SortKey> keys = RandomKeys(child->columns(), &rng);

    Executor reference_executor(catalog);
    auto full = reference_executor.Run(child, At(1));
    ASSERT_TRUE(full.ok()) << full.status().ToString();

    size_t k;
    switch (rng.Uniform(4)) {
      case 0: k = 0; break;
      case 1: k = 1 + rng.Uniform(full->rows() + 1); break;
      case 2: k = full->rows(); break;
      default: k = full->rows() + 1 + rng.Uniform(5); break;
    }
    auto expected = NaiveTopK(*full, keys, k);

    RaExprPtr topk = RaExpr::TopK(child, keys, k);
    RaExprPtr unfused = RaExpr::Limit(RaExpr::Sort(child, keys), k);

    // Cold, serial, ungoverned: the reference execution.
    Executor cold(catalog);
    auto base = cold.Run(topk, At(1));
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(RowsOf(*base), expected)
        << "seed=" << GetParam() << " round=" << round << " k=" << k;

    // Memo-warm re-run in the same executor: bit-identical.
    auto warm = cold.Run(topk, At(1));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(base->data(), warm->data());

    // Serial vs parallel: bit-identical.
    Executor parallel(catalog);
    auto at4 = parallel.Run(topk, At(4));
    ASSERT_TRUE(at4.ok()) << at4.status().ToString();
    EXPECT_EQ(base->data(), at4->data());

    // Bounded (generous budget) vs unbounded memory: bit-identical.
    MemoryTracker tracker(int64_t{1} << 30, "test");
    ExecContext governed = At(1);
    governed.mem = &tracker;
    Executor bounded(catalog);
    auto under_budget = bounded.Run(topk, governed);
    ASSERT_TRUE(under_budget.ok()) << under_budget.status().ToString();
    EXPECT_EQ(base->data(), under_budget->data());

    // The unfused Limit(Sort(child)) form agrees.
    Executor two_step(catalog);
    auto split = two_step.Run(unfused, At(1));
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    EXPECT_EQ(RowsOf(*split), expected);
  }
}

// Every seed in [1, 34]: about one seed in ten draws a target-seeded
// closure whose top-k actually prunes (leading key on the fixed column,
// 0 < k < rows), so a short hand-picked list can miss that path.
INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest,
                         ::testing::Range<uint64_t>(1, 35));

}  // namespace
}  // namespace gqopt
