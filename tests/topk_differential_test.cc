// Differential tests for the ordered operators: Sort, Limit, and the
// bounded-heap TopK must return exactly the naive sort-then-truncate
// answer — same rows, same row order — across every join strategy, at
// dop 1/2/4, under both planners, with the memo cold or warm, and with
// the seeded-closure frontier prune on or off. Ties are pinned by the
// total order (sort keys first, remaining columns ascending), so every
// assertion is on exact row sequences, not sorted sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/stages.h"  // white-box stage access
#include "eval/graph_engine.h"
#include "graph/property_graph.h"
#include "query/query_parser.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/ra_expr.h"
#include "util/exec_context.h"
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
  graph.Finalize();
  return graph;
}

std::vector<std::vector<NodeId>> RowsOf(const Table& t) {
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(t.rows());
  size_t arity = t.columns().size();
  for (size_t r = 0; r < t.rows(); ++r) {
    std::vector<NodeId> row(arity);
    for (size_t c = 0; c < arity; ++c) row[c] = t.data()[r * arity + c];
    rows.push_back(std::move(row));
  }
  return rows;
}

// The specification: sort all rows by `keys` (directions respected),
// break ties on the remaining columns ascending, truncate to k.
std::vector<std::vector<NodeId>> NaiveTopK(const Table& t,
                                           const std::vector<SortKey>& keys,
                                           size_t k) {
  std::vector<std::vector<NodeId>> rows = RowsOf(t);
  std::vector<std::pair<size_t, bool>> order;  // (column index, descending)
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

Table MustRun(const Catalog& catalog, const RaExprPtr& plan,
              const ExecContext& ctx) {
  Executor executor(catalog);
  auto result = executor.Run(plan, ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Table{};
}

// A two-edge join whose physical strategy is forced; output columns
// (x, y, z). The right side is projection-reordered so hash strategies
// get an unsorted probe input.
RaExprPtr JoinPlan(JoinStrategy strategy) {
  return RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                      RaExpr::EdgeScan("e2", "y", "z"), strategy);
}

class TopKDifferentialTest : public ::testing::Test {
 protected:
  TopKDifferentialTest()
      : graph_(RandomGraph(500, 2000, 77)), catalog_(graph_) {}

  PropertyGraph graph_;
  Catalog catalog_;
};

TEST_F(TopKDifferentialTest, TopKMatchesNaiveAcrossJoinStrategies) {
  const std::vector<SortKey> keys{{"z", true}, {"x", false}};
  for (JoinStrategy strategy :
       {JoinStrategy::kAuto, JoinStrategy::kOffset,
        JoinStrategy::kMergeSorted, JoinStrategy::kRadixHash,
        JoinStrategy::kFlatHash}) {
    RaExprPtr join = JoinPlan(strategy);
    Table full = MustRun(catalog_, join, At(1));
    ASSERT_GT(full.rows(), 0u);
    const size_t n = full.rows();
    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, n, n + 1}) {
      auto expected = NaiveTopK(full, keys, k);
      Table got = MustRun(catalog_, RaExpr::TopK(join, keys, k), At(1));
      EXPECT_EQ(RowsOf(got), expected)
          << "strategy=" << JoinStrategyName(strategy) << " k=" << k;
      // Limit(Sort(x)) is the unfused logical form of the same query.
      Table unfused = MustRun(
          catalog_, RaExpr::Limit(RaExpr::Sort(join, keys), k), At(1));
      EXPECT_EQ(RowsOf(unfused), expected)
          << "strategy=" << JoinStrategyName(strategy) << " k=" << k;
    }
  }
}

TEST_F(TopKDifferentialTest, BitIdenticalAcrossDop) {
  const std::vector<SortKey> keys{{"y", false}, {"z", true}};
  RaExprPtr plan = RaExpr::TopK(JoinPlan(JoinStrategy::kAuto), keys, 13);
  Table serial = MustRun(catalog_, plan, At(1));
  for (int dop : {2, 4}) {
    Table parallel = MustRun(catalog_, plan, At(dop));
    EXPECT_EQ(serial.columns(), parallel.columns()) << "dop=" << dop;
    EXPECT_EQ(serial.data(), parallel.data()) << "dop=" << dop;
    EXPECT_EQ(serial.sort_prefix(), parallel.sort_prefix()) << "dop=" << dop;
  }
}

TEST_F(TopKDifferentialTest, SortAloneMatchesNaiveFullOrder) {
  const std::vector<SortKey> keys{{"x", true}};
  RaExprPtr join = JoinPlan(JoinStrategy::kAuto);
  Table full = MustRun(catalog_, join, At(1));
  auto expected = NaiveTopK(full, keys, full.rows());
  Table sorted = MustRun(catalog_, RaExpr::Sort(join, keys), At(1));
  EXPECT_EQ(RowsOf(sorted), expected);
  // The output claims its own order: leading key descending.
  EXPECT_GE(sorted.sort_prefix(), 1u);
  EXPECT_TRUE(sorted.sort_descending(0));
}

TEST_F(TopKDifferentialTest, LimitOverOrderedScanIsAPrefix) {
  // EdgeScan output is ordered (src, tgt); Limit must return exactly the
  // first k rows of the unhinted result, including under a limit hint
  // pushed into the scan.
  RaExprPtr scan = RaExpr::EdgeScan("e1", "a", "b");
  Table full = MustRun(catalog_, scan, At(1));
  auto all = RowsOf(full);
  for (size_t k : {size_t{0}, size_t{1}, size_t{50}, full.rows() + 3}) {
    Table got = MustRun(catalog_, RaExpr::Limit(scan, k), At(1));
    auto expected = all;
    if (k < expected.size()) expected.resize(k);
    EXPECT_EQ(RowsOf(got), expected) << "k=" << k;
  }
}

TEST_F(TopKDifferentialTest, DuplicateKeyTieBreakIsDeterministic) {
  // Many rows share the leading key value; a k cutting through the tie
  // group must pick the rows the total order picks, in that order.
  PropertyGraph graph;
  for (int i = 0; i < 40; ++i) graph.AddNode("N");
  // 30 edges out of 8 distinct sources: heavy duplicate groups on x.
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(8)), "e1",
                        static_cast<NodeId>(rng.Uniform(40)));
  }
  graph.Finalize();
  Catalog catalog(graph);
  RaExprPtr scan = RaExpr::EdgeScan("e1", "x", "y");
  Table full = MustRun(catalog, scan, At(1));
  const std::vector<SortKey> keys{{"x", false}};
  for (size_t k = 1; k <= full.rows(); ++k) {
    auto expected = NaiveTopK(full, keys, k);
    Table got = MustRun(catalog, RaExpr::TopK(scan, keys, k), At(1));
    EXPECT_EQ(RowsOf(got), expected) << "k=" << k;
  }
}

TEST_F(TopKDifferentialTest, WarmMemoMatchesColdExecutor) {
  // A hinted evaluation must never poison the memo: running the TopK
  // first and the bare child second (same executor) must still give the
  // full child result, and a warm second TopK run stays bit-identical.
  const std::vector<SortKey> keys{{"z", false}};
  RaExprPtr join = JoinPlan(JoinStrategy::kFlatHash);
  RaExprPtr topk = RaExpr::TopK(join, keys, 5);

  Table cold_full = MustRun(catalog_, join, At(1));
  Table cold_topk = MustRun(catalog_, topk, At(1));

  Executor warm(catalog_);
  auto first = warm.Run(topk, At(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto full_after_hint = warm.Run(join, At(1));
  ASSERT_TRUE(full_after_hint.ok()) << full_after_hint.status().ToString();
  EXPECT_EQ(full_after_hint->data(), cold_full.data());
  auto second = warm.Run(topk, At(1));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->data(), cold_topk.data());
  EXPECT_EQ(first->data(), cold_topk.data());
}

// ---- Seeded-closure frontier prune -----------------------------------------

RaExprPtr SeededClosurePlan(SeedSide side) {
  // SEED-labelled sources (or targets) reach out over e1*: a closure with
  // output (s, t) whose fixed side is the seeded column.
  return RaExpr::TransitiveClosure(
      RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
      RaExpr::NodeScan({"SEED"}, side == SeedSide::kSource ? "s" : "t"),
      side);
}

// The column a seeded closure's expansion never changes: a TopK leading
// on it is what lets the frontier prune fire.
std::string FixedColumn(SeedSide side) {
  return side == SeedSide::kSource ? "s" : "t";
}

std::string SideName(SeedSide side) {
  return side == SeedSide::kSource ? "source" : "target";
}

TEST_F(TopKDifferentialTest, ClosureTopKPruneIsInvisibleInResults) {
  for (SeedSide side : {SeedSide::kSource, SeedSide::kTarget}) {
    RaExprPtr closure = SeededClosurePlan(side);
    const std::string fixed = FixedColumn(side);
    const std::string other = side == SeedSide::kSource ? "t" : "s";
    Table full = MustRun(catalog_, closure, At(1));
    for (bool descending : {false, true}) {
      for (size_t offset : {0, 3}) {
        SCOPED_TRACE("seeds=" + SideName(side) +
                     " descending=" + std::to_string(descending) +
                     " offset=" + std::to_string(offset));
        const std::vector<SortKey> keys{{fixed, descending},
                                        {other, !descending}};
        RaExprPtr topk = RaExpr::TopK(closure, keys, 9, offset);

        ExecContext pruned_ctx = At(1);
        Executor pruned(catalog_);
        auto with_prune = pruned.Run(topk, pruned_ctx);
        ASSERT_TRUE(with_prune.ok()) << with_prune.status().ToString();

        ExecContext unpruned_ctx = At(1);
        unpruned_ctx.topk_pruning = false;
        Executor unpruned(catalog_);
        auto without_prune = unpruned.Run(topk, unpruned_ctx);
        ASSERT_TRUE(without_prune.ok())
            << without_prune.status().ToString();

        EXPECT_EQ(with_prune->data(), without_prune->data());
        EXPECT_EQ(unpruned.topk_pruned_frontier(), 0u);
        // The counter measures work actually skipped; on this graph the
        // closure has far more than 9 + offset result pairs, so the
        // prune must bite.
        EXPECT_GT(pruned.topk_pruned_frontier(), 0u);

        // And the pruned window still equals the naive specification:
        // rows [offset, offset + 9) of the fully ordered closure.
        std::vector<std::vector<NodeId>> expected =
            NaiveTopK(full, keys, 9 + offset);
        expected.erase(expected.begin(),
                       expected.begin() + static_cast<long>(std::min(
                                              offset, expected.size())));
        EXPECT_EQ(RowsOf(*with_prune), expected);
      }
    }
  }
}

TEST_F(TopKDifferentialTest, ClosureTopKPruneBitIdenticalAcrossDop) {
  for (SeedSide side : {SeedSide::kSource, SeedSide::kTarget}) {
    for (size_t offset : {0, 3}) {
      SCOPED_TRACE("seeds=" + SideName(side) +
                   " offset=" + std::to_string(offset));
      const std::vector<SortKey> keys{{FixedColumn(side), false}};
      RaExprPtr topk =
          RaExpr::TopK(SeededClosurePlan(side), keys, 6, offset);
      Executor serial_executor(catalog_);
      auto serial = serial_executor.Run(topk, At(1));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_GT(serial_executor.topk_pruned_frontier(), 0u);
      for (int dop : {2, 4}) {
        Executor parallel_executor(catalog_);
        auto parallel = parallel_executor.Run(topk, At(dop));
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        EXPECT_EQ(serial->data(), parallel->data()) << "dop=" << dop;
        // The prune decisions are taken serially between rounds, so the
        // work skipped is the same at every dop too.
        EXPECT_EQ(parallel_executor.topk_pruned_frontier(),
                  serial_executor.topk_pruned_frontier())
            << "dop=" << dop;
      }
    }
  }
}

// ---- Direction-aware sort property (the latent tie-break hole) -------------

TEST_F(TopKDifferentialTest, DescendingOutputDoesNotFakeMergeEligibility) {
  // A descending Sort output claims sort_prefix >= 1 with direction
  // "desc". The merge/offset joins require *ascending* runs; feeding
  // them a descending table silently produced garbage before the
  // direction bit existed. The forced-merge join over a descending
  // input must now fall back and still match the hash answer.
  const std::vector<SortKey> desc_keys{{"y", true}};
  RaExprPtr sorted_desc =
      RaExpr::Sort(RaExpr::EdgeScan("e1", "y", "x"), desc_keys);
  Table t = MustRun(catalog_, sorted_desc, At(1));
  ASSERT_GE(t.sort_prefix(), 1u);
  ASSERT_TRUE(t.sort_descending(0));
  ASSERT_EQ(t.ascending_prefix(), 0u);  // not usable as an ascending run

  RaExprPtr probe = RaExpr::EdgeScan("e2", "y", "z");
  RaExprPtr merged =
      RaExpr::Join(sorted_desc, probe, JoinStrategy::kMergeSorted);
  RaExprPtr hashed = RaExpr::Join(sorted_desc, probe,
                                  JoinStrategy::kFlatHash);
  Table merge_result = MustRun(catalog_, merged, At(1));
  Table hash_result = MustRun(catalog_, hashed, At(1));
  auto canon = [](const Table& t) {
    auto rows = RowsOf(t);
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(canon(merge_result), canon(hash_result));
  EXPECT_GT(merge_result.rows(), 0u);
}

TEST_F(TopKDifferentialTest, AscendingSortOutputStaysMergeEligible) {
  // The fix must not over-correct: a fully ascending Sort output is a
  // legitimate merge input and keeps its sorted() claim.
  const std::vector<SortKey> asc_keys{{"x", false}, {"y", false}};
  RaExprPtr sorted =
      RaExpr::Sort(RaExpr::EdgeScan("e1", "x", "y"), asc_keys);
  Table t = MustRun(catalog_, sorted, At(1));
  EXPECT_TRUE(t.sorted());
  EXPECT_EQ(t.ascending_prefix(), 2u);
}

// ---- Both planners, plan cache on/off, low-memory, via the facade ----------

class TopKFacadeTest : public ::testing::Test {
 protected:
  TopKFacadeTest()
      : db_(GraphSchema(), RandomGraph(400, 1600, 21)) {}

  api::Database db_;
};

TEST_F(TopKFacadeTest, OrderByLimitIdenticalAcrossPlannersAndCache) {
  const std::string text =
      "x, z <- (x, e1/e2, z) order by z desc, x limit 11";
  const std::string unlimited = "x, z <- (x, e1/e2, z)";

  std::vector<std::vector<NodeId>> reference;
  bool have_reference = false;
  for (PlannerKind planner : {PlannerKind::kDp, PlannerKind::kGreedy}) {
    for (bool cache : {false, true}) {
      for (bool low_memory : {false, true}) {
        for (int dop : {1, 2, 4}) {
          api::Session session(db_);
          session.options().planner = planner;
          session.options().use_plan_cache = cache;
          session.options().low_memory = low_memory;
          session.options().dop = dop;
          session.options().parallel_min_rows = 0;
          session.options().apply_schema_rewrite = false;
          auto result = session.Query(text);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          auto rows = RowsOf(result->table);
          if (!have_reference) {
            reference = rows;
            have_reference = true;
            // Pin against the naive specification once.
            auto full = session.Query(unlimited);
            ASSERT_TRUE(full.ok()) << full.status().ToString();
            EXPECT_EQ(reference,
                      NaiveTopK(full->table,
                                {{"z", true}, {"x", false}}, 11));
          } else {
            EXPECT_EQ(rows, reference)
                << "planner=" << (planner == PlannerKind::kDp ? "dp" : "greedy")
                << " cache=" << cache << " low_memory=" << low_memory
                << " dop=" << dop;
          }
        }
      }
    }
  }
  EXPECT_EQ(reference.size(), 11u);
}

TEST_F(TopKFacadeTest, OffsetWindowIsASliceOfTheOrderedOutput) {
  // `limit N offset M` must return exactly rows [M, M + N) of the full
  // ordered output — across both planners, dop, and the plan cache (the
  // bounded heap keeps N + M candidates, then drops the first M).
  const std::string ordered = "x, z <- (x, e1/e2, z) order by z desc, x";
  api::Session reference_session(db_);
  reference_session.options().apply_schema_rewrite = false;
  auto full = reference_session.Query(ordered);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto full_rows = RowsOf(full->table);
  ASSERT_GT(full_rows.size(), 16u);
  std::vector<std::vector<NodeId>> expected(full_rows.begin() + 5,
                                            full_rows.begin() + 16);

  for (PlannerKind planner : {PlannerKind::kDp, PlannerKind::kGreedy}) {
    for (bool cache : {false, true}) {
      for (int dop : {1, 4}) {
        api::Session session(db_);
        session.options().planner = planner;
        session.options().use_plan_cache = cache;
        session.options().dop = dop;
        session.options().parallel_min_rows = 0;
        session.options().apply_schema_rewrite = false;
        auto window = session.Query(ordered + " limit 11 offset 5");
        ASSERT_TRUE(window.ok()) << window.status().ToString();
        EXPECT_EQ(RowsOf(window->table), expected)
            << "planner=" << (planner == PlannerKind::kDp ? "dp" : "greedy")
            << " cache=" << cache << " dop=" << dop;
      }
    }
  }

  // An offset past the end of the output is an empty window, not an
  // error; a window straddling the end truncates.
  api::Session session(db_);
  session.options().apply_schema_rewrite = false;
  auto past = session.Query(
      ordered + " limit 5 offset " + std::to_string(full_rows.size()));
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->rows(), 0u);
  auto straddle = session.Query(
      ordered + " limit 10 offset " + std::to_string(full_rows.size() - 3));
  ASSERT_TRUE(straddle.ok()) << straddle.status().ToString();
  EXPECT_EQ(straddle->rows(), 3u);
}

TEST_F(TopKFacadeTest, GraphEngineAgreesOnOrderedQueries) {
  // The paper's second engine evaluates the same UCQT directly on the
  // graph; an ordered query must come back as the identical ordered
  // prefix (it used to ignore order by / limit entirely, so the CLI's
  // three-way differential disagreed on row counts).
  api::Session session(db_);
  session.options().apply_schema_rewrite = false;
  for (const std::string text :
       {std::string("x, y <- (x, e1, y) order by y desc, x limit 7"),
        std::string(
            "x, y <- (x, e1, y) order by y desc, x limit 7 offset 4")}) {
    SCOPED_TRACE(text);
    auto relational = session.Query(text);
    ASSERT_TRUE(relational.ok()) << relational.status().ToString();

    auto query = ParseUcqt(text);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    GraphEngine engine(db_.graph());
    auto graph_result = engine.Run(*query);
    ASSERT_TRUE(graph_result.ok()) << graph_result.status().ToString();
    EXPECT_EQ(graph_result->rows, RowsOf(relational->table));
  }
}

TEST_F(TopKFacadeTest, PlanCacheDistinguishesOrderAndBound) {
  // Same body, different order/limit suffix: must be distinct cache
  // entries (no false hit serving the wrong k or keys).
  api::Session session(db_);
  session.options().use_plan_cache = true;
  session.options().apply_schema_rewrite = false;
  auto a = session.Query("x, y <- (x, e1, y) order by y limit 3");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = session.Query("x, y <- (x, e1, y) order by y limit 5");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto c = session.Query("x, y <- (x, e1, y) order by y desc limit 3");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(a->rows(), 3u);
  EXPECT_EQ(b->rows(), 5u);
  EXPECT_EQ(c->rows(), 3u);
  EXPECT_NE(RowsOf(a->table), RowsOf(c->table));
  // b's first 3 rows are exactly a.
  auto b_rows = RowsOf(b->table);
  b_rows.resize(3);
  EXPECT_EQ(RowsOf(a->table), b_rows);
}

}  // namespace
}  // namespace gqopt
