// Differential tests: the CSR / flat-hash evaluation paths must return
// byte-identical results to the retained naive reference implementations
// (eval/naive_reference.h) on randomized graphs and on the structural edge
// cases (empty relations, self-loops, folded multi-column join keys).
// Closures and plans run serially and at dop 4, which must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "eval/binary_relation.h"
#include "eval/closure.h"
#include "eval/csr_view.h"
#include "eval/naive_reference.h"
#include "graph/property_graph.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/ra_expr.h"
#include "test_fixtures.h"
#include "util/exec_context.h"
#include "util/mem_tracker.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

// A pool with enough workers for dop=4 even on single-core CI boxes.
ThreadPool& TestPool() {
  static ThreadPool pool(3);
  return pool;
}

// Parallel runs drop the row threshold: the suite's inputs are far below
// kParallelMinRows, which would send every dop-4 run down the serial path.
ExecContext At(int dop) {
  ExecContext ctx;
  ctx.dop = dop;
  if (dop > 1) ctx.parallel_min_rows = 0;
  ctx.pool = &TestPool();
  return ctx;
}

// The closure of `r` at dop 1, checked bit-identical to the dop-4 run.
Result<BinaryRelation> Closure(const BinaryRelation& r) {
  auto serial = BinaryRelation::TransitiveClosure(r, At(1));
  auto parallel = BinaryRelation::TransitiveClosure(r, At(4));
  EXPECT_EQ(serial.ok(), parallel.ok());
  if (serial.ok() && parallel.ok()) {
    EXPECT_EQ(serial->pairs(), parallel->pairs());
  }
  return serial;
}

BinaryRelation RandomRelation(size_t nodes, size_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> pairs;
  pairs.reserve(edges);
  for (size_t i = 0; i < edges; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(nodes)),
                       static_cast<NodeId>(rng.Uniform(nodes)));
  }
  return BinaryRelation::FromPairs(std::move(pairs));
}

std::vector<NodeId> RandomNodeSet(size_t nodes, size_t count,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<NodeId>(rng.Uniform(nodes)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Rows of `t` sorted lexicographically, duplicates retained — a
// row-order-insensitive fingerprint for table comparison.
std::vector<std::vector<NodeId>> SortedRows(const Table& t) {
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    rows.emplace_back(t.Row(r), t.Row(r) + t.arity());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CsrViewTest, RangesMatchPairRuns) {
  BinaryRelation r = RandomRelation(64, 256, 42);
  CsrView csr = CsrView::Build(r.pairs());
  EXPECT_EQ(csr.edges(), r.size());
  for (NodeId v = 0; v < 80; ++v) {
    auto [lo, hi] = csr.Range(v);
    size_t expected = 0;
    for (const Edge& e : r.pairs()) {
      if (e.first == v) ++expected;
    }
    ASSERT_EQ(hi - lo, expected) << "source " << v;
    for (uint32_t i = lo; i < hi; ++i) {
      EXPECT_EQ(r.pairs()[i].first, v);
    }
  }
}

TEST(CsrViewTest, EmptyRelation) {
  CsrView csr = CsrView::Build({});
  EXPECT_EQ(csr.edges(), 0u);
  EXPECT_EQ(csr.num_sources(), 0u);
  auto [lo, hi] = csr.Range(7);
  EXPECT_EQ(lo, hi);
}

TEST(CsrDifferentialTest, ComposeMatchesNaive) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BinaryRelation a = RandomRelation(50 + seed * 13, 200, seed * 2 + 1);
    BinaryRelation b = RandomRelation(50 + seed * 13, 200, seed * 2 + 2);
    auto fast = BinaryRelation::Compose(a, b);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->pairs(), naive::Compose(a, b).pairs()) << "seed " << seed;
  }
}

TEST(CsrDifferentialTest, SparseHugeIdsFallBackToBinarySearch) {
  // Source ids near UINT32_MAX must not be offset-indexed (the array
  // would wrap/explode); EqualRange falls back to binary search and all
  // CSR-backed operations stay correct.
  NodeId huge = std::numeric_limits<NodeId>::max();
  BinaryRelation a = BinaryRelation::FromPairs({{1, 5}, {2, huge}});
  BinaryRelation b =
      BinaryRelation::FromPairs({{5, 6}, {huge, 7}, {huge, 9}});
  EXPECT_FALSE(b.SourceCsr().indexed());
  auto composed = BinaryRelation::Compose(a, b);
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(composed->pairs(), naive::Compose(a, b).pairs());
  EXPECT_EQ(composed->pairs(),
            (std::vector<Edge>{{1, 6}, {2, 7}, {2, 9}}));

  auto closure = Closure(b);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->pairs(), naive::TransitiveClosure(b).pairs());

  std::vector<NodeId> nodes{5, huge};
  EXPECT_EQ(b.SemiJoinSource(nodes).pairs(),
            naive::SemiJoinSource(b, nodes).pairs());
}

TEST(CsrDifferentialTest, ComposeEdgeCases) {
  BinaryRelation empty;
  BinaryRelation r = RandomRelation(10, 30, 3);
  EXPECT_TRUE(BinaryRelation::Compose(empty, r)->empty());
  EXPECT_TRUE(BinaryRelation::Compose(r, empty)->empty());
  // Self-loops compose with themselves.
  BinaryRelation loops =
      BinaryRelation::FromPairs({{1, 1}, {2, 2}, {1, 2}});
  EXPECT_EQ(BinaryRelation::Compose(loops, loops)->pairs(),
            naive::Compose(loops, loops).pairs());
}

TEST(CsrDifferentialTest, TransitiveClosureMatchesNaive) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // Sparse and denser regimes, plus chains with self-loops.
    size_t n = 30 + seed * 17;
    BinaryRelation r = RandomRelation(n, n + seed * 40, seed + 11);
    auto fast = Closure(r);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->pairs(), naive::TransitiveClosure(r).pairs())
        << "seed " << seed;
  }
  BinaryRelation loops = BinaryRelation::FromPairs({{0, 0}, {0, 1}, {1, 0}});
  EXPECT_EQ(Closure(loops)->pairs(), naive::TransitiveClosure(loops).pairs());
  EXPECT_TRUE(Closure(BinaryRelation())->empty());
}

TEST(CsrDifferentialTest, SeededClosureRangeSplitMatchesNaive) {
  testing::RangeSplitCase c = testing::MakeRangeSplitCase();
  for (const std::vector<NodeId>& seeds : c.seed_sets) {
    for (bool seed_source : {true, false}) {
      auto fast = SeededClosure(c.base, seeds, seed_source, At(4));
      ASSERT_TRUE(fast.ok()) << fast.status().ToString();
      EXPECT_EQ(fast->pairs(),
                naive::SeededClosure(c.base, seeds, seed_source).pairs())
          << seeds.size() << " seeds, seed_source " << seed_source;
    }
  }
}

TEST(CsrDifferentialTest, SemiJoinsMatchNaive) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    size_t n = 40 + seed * 9;
    BinaryRelation r = RandomRelation(n, n * 3, seed + 5);
    std::vector<NodeId> nodes = RandomNodeSet(n + 10, n / 3 + 1, seed + 6);
    EXPECT_EQ(r.SemiJoinSource(nodes).pairs(),
              naive::SemiJoinSource(r, nodes).pairs());
    EXPECT_EQ(r.SemiJoinTarget(nodes).pairs(),
              naive::SemiJoinTarget(r, nodes).pairs());
  }
  // Empty node set and empty relation.
  BinaryRelation r = RandomRelation(20, 40, 9);
  EXPECT_TRUE(r.SemiJoinSource({}).empty());
  EXPECT_TRUE(r.SemiJoinTarget({}).empty());
  EXPECT_TRUE(BinaryRelation().SemiJoinSource({1, 2}).empty());
}

TEST(CsrDifferentialTest, ReverseKeepsUniqueness) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    BinaryRelation r = RandomRelation(64, 300, seed + 21);
    BinaryRelation rev = r.Reverse();
    EXPECT_EQ(rev.size(), r.size());
    EXPECT_TRUE(std::is_sorted(rev.pairs().begin(), rev.pairs().end()));
    EXPECT_EQ(rev.Reverse().pairs(), r.pairs());
  }
}

// ---- Executor-level differentials -----------------------------------------

// A random multi-label graph; SEED labels a small node subset for seeded
// closures.
PropertyGraph RandomGraph(size_t nodes, size_t edges_per_label,
                          uint64_t seed) {
  Rng rng(seed);
  PropertyGraph graph;
  for (size_t i = 0; i < nodes; ++i) {
    graph.AddNode(i % 16 == 0 ? "SEED" : "N");
  }
  for (const char* label : {"e1", "e2", "e3"}) {
    for (size_t i = 0; i < edges_per_label; ++i) {
      (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(nodes)), label,
                          static_cast<NodeId>(rng.Uniform(nodes)));
    }
  }
  return graph;
}

// Runs `plan` at dop 1, checked bit-identical to the dop-4 run (on a
// fresh executor: a shared one would serve the second run from its memo).
Table RunPlan(const Catalog& catalog, const RaExprPtr& plan) {
  auto serial = Executor(catalog).Run(plan, At(1));
  auto parallel = Executor(catalog).Run(plan, At(4));
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(parallel.ok()) << parallel.status().ToString();
  if (!serial.ok()) return Table{};
  if (parallel.ok()) {
    EXPECT_EQ(serial->data(), parallel->data());
  }
  return *serial;
}

TEST(ExecutorDifferentialTest, SingleColumnJoinMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(60, 150, seed + 31);
    Catalog catalog(graph);
    // Join on y: left sorted on x, right sorted on y — exercises the
    // offset fast path (right side indexable on column 0).
    RaExprPtr plan = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                  RaExpr::EdgeScan("e2", "y", "z"));
    Table fast = RunPlan(catalog, plan);
    Table left = RunPlan(catalog, RaExpr::EdgeScan("e1", "x", "y"));
    Table right = RunPlan(catalog, RaExpr::EdgeScan("e2", "y", "z"));
    EXPECT_EQ(SortedRows(fast), SortedRows(naive::Join(left, right)))
        << "seed " << seed;
  }
}

TEST(ExecutorDifferentialTest, UnsortedJoinMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(60, 150, seed + 41);
    Catalog catalog(graph);
    // Join on the two endpoints of differently-oriented scans: shared
    // column is column 1 on one side, forcing the flat hash path.
    RaExprPtr left_scan = RaExpr::EdgeScan("e1", "x", "y");
    RaExprPtr right_scan = RaExpr::EdgeScan("e2", "z", "y");
    Table fast =
        RunPlan(catalog, RaExpr::Join(left_scan, right_scan));
    Table left = RunPlan(catalog, left_scan);
    Table right = RunPlan(catalog, right_scan);
    EXPECT_EQ(SortedRows(fast), SortedRows(naive::Join(left, right)))
        << "seed " << seed;
  }
}

TEST(ExecutorDifferentialTest, MultiKeyJoinsMatchNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(24, 180, seed + 51);
    Catalog catalog(graph);
    // Two 3-column sides sharing all of x, y, z: the packed key folds
    // 3 columns, so probes must re-verify equality.
    RaExprPtr three_a = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                     RaExpr::EdgeScan("e2", "y", "z"));
    RaExprPtr three_b = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                     RaExpr::EdgeScan("e3", "y", "z"));
    Table fast = RunPlan(catalog, RaExpr::Join(three_a, three_b));
    Table left = RunPlan(catalog, three_a);
    Table right = RunPlan(catalog, three_b);
    EXPECT_EQ(SortedRows(fast), SortedRows(naive::Join(left, right)))
        << "seed " << seed;

    Table fast_semi = RunPlan(catalog, RaExpr::SemiJoin(three_a, three_b));
    EXPECT_EQ(SortedRows(fast_semi),
              SortedRows(naive::SemiJoin(left, right)))
        << "seed " << seed;
  }
}

TEST(ExecutorDifferentialTest, SemiJoinMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(60, 150, seed + 61);
    Catalog catalog(graph);
    RaExprPtr left_scan = RaExpr::EdgeScan("e1", "x", "y");
    RaExprPtr right_scan = RaExpr::EdgeScan("e2", "y", "z");
    Table fast =
        RunPlan(catalog, RaExpr::SemiJoin(left_scan, right_scan));
    Table left = RunPlan(catalog, left_scan);
    Table right = RunPlan(catalog, right_scan);
    EXPECT_EQ(SortedRows(fast), SortedRows(naive::SemiJoin(left, right)))
        << "seed " << seed;
  }
}

TEST(ExecutorDifferentialTest, SeededClosureMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(80, 120, seed + 71);
    Catalog catalog(graph);
    BinaryRelation base = BinaryRelation::FromSortedUnique(
        graph.EdgesByLabel("e1"), graph.ForwardCsr("e1"));
    std::vector<NodeId> seeds = graph.NodesWithLabel("SEED");
    for (SeedSide side : {SeedSide::kSource, SeedSide::kTarget}) {
      RaExprPtr plan = RaExpr::TransitiveClosure(
          RaExpr::EdgeScan("e1", "s", "t"), "s", "t",
          RaExpr::NodeScan({"SEED"}, side == SeedSide::kSource ? "s" : "t"),
          side);
      Table fast = RunPlan(catalog, plan);
      BinaryRelation expected =
          naive::SeededClosure(base, seeds, side == SeedSide::kSource);
      ASSERT_EQ(fast.rows(), expected.size()) << "seed " << seed;
      for (size_t r = 0; r < fast.rows(); ++r) {
        EXPECT_EQ(Edge(fast.At(r, 0), fast.At(r, 1)), expected.pairs()[r]);
      }
    }
  }
}

TEST(ExecutorDifferentialTest, MergeJoinMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PropertyGraph graph = RandomGraph(60, 150, seed + 81);
    Catalog catalog(graph);
    // Both sides sorted with the shared columns leading. Two shared
    // columns: a shape the bool-based detection could only hash.
    RaExprPtr left_scan = RaExpr::EdgeScan("e1", "x", "y");
    RaExprPtr right_scan = RaExpr::EdgeScan("e2", "x", "y");
    Table left = RunPlan(catalog, left_scan);
    Table right = RunPlan(catalog, right_scan);
    Table fast = RunPlan(catalog, RaExpr::Join(left_scan, right_scan));
    EXPECT_EQ(SortedRows(fast), SortedRows(naive::Join(left, right)))
        << "seed " << seed;
    // One shared leading column on both sides: also merges.
    RaExprPtr right_one = RaExpr::EdgeScan("e3", "x", "z");
    Table fast_one =
        RunPlan(catalog, RaExpr::Join(left_scan, right_one));
    EXPECT_EQ(SortedRows(fast_one),
              SortedRows(naive::Join(left, RunPlan(catalog, right_one))))
        << "seed " << seed;
  }
}

TEST(ExecutorDifferentialTest, ForcedStrategiesMatchNaive) {
  // Force each physical strategy on the same randomized inputs and diff
  // against the nested-loop reference; small inputs keep naive cheap.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    PropertyGraph graph = RandomGraph(60, 150, seed + 101);
    Catalog catalog(graph);
    RaExprPtr left_scan = RaExpr::EdgeScan("e1", "x", "y");
    RaExprPtr right_scan = RaExpr::EdgeScan("e2", "x", "y");
    Table left = RunPlan(catalog, left_scan);
    Table right = RunPlan(catalog, right_scan);
    auto expected = SortedRows(naive::Join(left, right));
    for (JoinStrategy s :
         {JoinStrategy::kMergeSorted, JoinStrategy::kRadixHash,
          JoinStrategy::kFlatHash}) {
      RaExprPtr join = RaExpr::Join(left_scan, right_scan, s);
      EXPECT_EQ(SortedRows(RunPlan(catalog, join)), expected)
          << "seed " << seed << " strategy " << JoinStrategyName(s);
    }
  }
}

TEST(ExecutorDifferentialTest, RadixJoinMatchesFlatAtScale) {
  // Large enough that the radix path genuinely partitions (build rows
  // above the target partition size); nested-loop naive would be too
  // slow here, so diff radix against the already-pinned flat path.
  PropertyGraph graph = RandomGraph(2000, 20000, 7);
  Catalog catalog(graph);
  // Shared column trailing on both sides: the hash-fallback shape.
  RaExprPtr left_scan = RaExpr::EdgeScan("e1", "x", "y");
  RaExprPtr right_scan = RaExpr::EdgeScan("e2", "z", "y");
  RaExprPtr radix =
      RaExpr::Join(left_scan, right_scan, JoinStrategy::kRadixHash);
  RaExprPtr flat =
      RaExpr::Join(left_scan, right_scan, JoinStrategy::kFlatHash);
  Table radix_result = RunPlan(catalog, radix);
  Table flat_result = RunPlan(catalog, flat);
  EXPECT_GT(radix_result.rows(), 0u);
  EXPECT_EQ(SortedRows(radix_result), SortedRows(flat_result));
}

TEST(ExecutorDifferentialTest, RadixJoinVerifiesFoldedMultiColumnKeys) {
  // Three shared columns fold into the packed key, so radix probes must
  // re-verify row equality, partition by partition.
  PropertyGraph graph = RandomGraph(5000, 20000, 9);
  Catalog catalog(graph);
  RaExprPtr three_a = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                   RaExpr::EdgeScan("e2", "y", "z"));
  RaExprPtr three_b = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                   RaExpr::EdgeScan("e3", "y", "z"));
  RaExprPtr radix = RaExpr::Join(three_a, three_b, JoinStrategy::kRadixHash);
  RaExprPtr flat = RaExpr::Join(three_a, three_b, JoinStrategy::kFlatHash);
  EXPECT_EQ(SortedRows(RunPlan(catalog, radix)),
            SortedRows(RunPlan(catalog, flat)));
}

TEST(ExecutorDifferentialTest, MemoHitSharesDataAndStaysCorrect) {
  PropertyGraph graph = RandomGraph(40, 80, 99);
  Catalog catalog(graph);
  // Two disjuncts identical up to renaming: the second evaluation is a
  // zero-copy memo hit; a Distinct on top mutates one branch and must not
  // corrupt the other (copy-on-write).
  RaExprPtr branch_a = RaExpr::Join(RaExpr::EdgeScan("e1", "x", "y"),
                                    RaExpr::EdgeScan("e2", "y", "z"));
  RaExprPtr branch_b = RaExpr::Join(RaExpr::EdgeScan("e1", "a", "b"),
                                    RaExpr::EdgeScan("e2", "b", "c"));
  RaExprPtr plan = RaExpr::Union(
      RaExpr::Project(branch_a, {{"x", "u"}, {"z", "v"}}),
      RaExpr::Distinct(RaExpr::Project(branch_b, {{"a", "u"}, {"c", "v"}})));
  Table via_memo = RunPlan(catalog, plan);

  Table left = RunPlan(catalog, RaExpr::EdgeScan("e1", "x", "y"));
  Table right = RunPlan(catalog, RaExpr::EdgeScan("e2", "y", "z"));
  Table joined = naive::Join(left, right);
  // Expected: project(join) ++ distinct(project(join)).
  std::vector<std::vector<NodeId>> expected;
  std::vector<std::vector<NodeId>> distinct_rows;
  for (size_t r = 0; r < joined.rows(); ++r) {
    expected.push_back({joined.At(r, 0), joined.At(r, 2)});
    distinct_rows.push_back({joined.At(r, 0), joined.At(r, 2)});
  }
  std::sort(distinct_rows.begin(), distinct_rows.end());
  distinct_rows.erase(
      std::unique(distinct_rows.begin(), distinct_rows.end()),
      distinct_rows.end());
  expected.insert(expected.end(), distinct_rows.begin(),
                  distinct_rows.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedRows(via_memo), expected);
}

// ---- Fused path steps --------------------------------------------------
// Distinct(Project(Join)) composes per run of equal sources when its
// drive side is sorted on the output's first column; Distinct(Union)
// merges two sorted inputs; a one-column Distinct over a dense span sets
// bits. Each must return exactly the sorted, duplicate-free rows of the
// unfused Join -> Project -> sort-and-dedup, which the nested-loop join
// gives here.

// The translation's path step: the join of `left` and `right` kept on
// (a, b) and deduplicated.
RaExprPtr PathStep(RaExprPtr left, RaExprPtr right, const std::string& a,
                   const std::string& b) {
  return RaExpr::Distinct(RaExpr::Project(
      RaExpr::Join(std::move(left), std::move(right)), {{a, a}, {b, b}}));
}

// Rows of `t` in table order.
std::vector<std::vector<NodeId>> Rows(const Table& t) {
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < t.rows(); ++r) {
    rows.emplace_back(t.Row(r), t.Row(r) + t.arity());
  }
  return rows;
}

std::vector<std::vector<NodeId>> SortedUnique(
    std::vector<std::vector<NodeId>> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// The path step's rows by the reference: nested-loop join, (a, b) kept,
// sorted and deduplicated.
std::vector<std::vector<NodeId>> NaiveStep(const Table& left,
                                           const Table& right,
                                           const std::string& a,
                                           const std::string& b) {
  Table joined = naive::Join(left, right);
  int ia = joined.ColumnIndex(a);
  int ib = joined.ColumnIndex(b);
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < joined.rows(); ++r) {
    rows.push_back({joined.At(r, ia), joined.At(r, ib)});
  }
  return SortedUnique(std::move(rows));
}

// Checks the path step against the reference at dop 1 and 4, and that the
// join was fused (not materialized: 0 bytes, the match count as its
// rows) exactly when `fused`.
void ExpectStep(const Catalog& catalog, const RaExprPtr& left,
                const RaExprPtr& right, const std::string& a,
                const std::string& b, bool fused, const std::string& what) {
  RaExprPtr plan = PathStep(left, right, a, b);
  Table result = RunPlan(catalog, plan);
  Table l = RunPlan(catalog, left);
  Table r = RunPlan(catalog, right);
  EXPECT_TRUE(result.sorted()) << what;
  EXPECT_EQ(Rows(result), NaiveStep(l, r, a, b)) << what;
  Executor executor(catalog);
  ASSERT_TRUE(executor.Run(plan, At(1)).ok()) << what;
  const RaExpr* join = plan->left()->left().get();
  EXPECT_EQ(executor.actual_rows().at(join), naive::Join(l, r).rows())
      << what;
  EXPECT_EQ(executor.actual_bytes().at(join) == 0, fused) << what;
}

// A graph whose runs repeat targets within one middle value and across
// several: 24 nodes, node 3 a hub with an edge to every node on e1.
PropertyGraph DuplicateHeavyGraph(uint64_t seed) {
  PropertyGraph graph = RandomGraph(24, 160, seed);
  for (NodeId v = 0; v < 24; ++v) (void)graph.AddEdge(3, "e1", v);
  return graph;
}

TEST(FusedDistinctDifferentialTest, ComposeMatchesNaive) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (bool dense : {true, false}) {
      PropertyGraph graph = dense ? DuplicateHeavyGraph(seed + 131)
                                  : RandomGraph(60, 150, seed + 131);
      Catalog catalog(graph);
      std::string at = "seed " + std::to_string(seed) + " dense " +
                       std::to_string(dense);
      // a in the left input; the right one offset-indexed on y.
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::EdgeScan("e2", "y", "z"), "x", "z", true,
                 "a in L, offset " + at);
      // a in the right input (its columns follow the left's in the join).
      ExpectStep(catalog, RaExpr::EdgeScan("e2", "y", "z"),
                 RaExpr::EdgeScan("e1", "x", "y"), "x", "z", true,
                 "a in R, offset " + at);
      // The index side holds y second: hash-indexed.
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::EdgeScan("e2", "z", "y"), "x", "z", true,
                 "hash " + at);
      // Self-join (knows/knows).
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::EdgeScan("e1", "y", "z"), "x", "z", true,
                 "self-join " + at);
      // An unsorted index side repeating (y, z) rows: duplicates within
      // one middle value.
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::Union(RaExpr::EdgeScan("e2", "y", "z"),
                               RaExpr::EdgeScan("e3", "y", "z")),
                 "x", "z", true, "union index " + at);
      // Output column 0 is the second column of its side: the drive side
      // is not sorted on it, so the unfused path runs.
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::EdgeScan("e2", "y", "z"), "z", "x", false,
                 "reversed output " + at);
      // A drive side at position 0 but unsorted (a reordering
      // projection): the unfused path.
      ExpectStep(catalog,
                 RaExpr::Project(RaExpr::EdgeScan("e1", "y", "x"),
                                 {{"x", "x"}, {"y", "y"}}),
                 RaExpr::EdgeScan("e2", "y", "z"), "x", "z", false,
                 "unsorted drive " + at);
      // An empty side.
      ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
                 RaExpr::EdgeScan("nope", "y", "z"), "x", "z", true,
                 "empty index " + at);
      ExpectStep(catalog, RaExpr::EdgeScan("nope", "x", "y"),
                 RaExpr::EdgeScan("e2", "y", "z"), "x", "z", true,
                 "empty drive " + at);
    }
  }
}

TEST(FusedDistinctDifferentialTest, ComposeOverSparseIds) {
  // 300,000 nodes but few edges: the id span is far above 8x the index
  // rows, so the index hashes and each run sorts instead of stamping.
  PropertyGraph graph;
  for (size_t i = 0; i < 300000; ++i) graph.AddNode("N");
  Rng rng(5);
  for (const char* label : {"e1", "e2"}) {
    for (size_t i = 0; i < 300; ++i) {
      (void)graph.AddEdge(static_cast<NodeId>(rng.Uniform(40)), label,
                          static_cast<NodeId>(rng.Uniform(300000)));
      (void)graph.AddEdge(static_cast<NodeId>(250000 + rng.Uniform(40)),
                          label, static_cast<NodeId>(rng.Uniform(40)));
    }
  }
  Catalog catalog(graph);
  ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
             RaExpr::EdgeScan("e2", "y", "z"), "x", "z", true, "sparse");
  ExpectStep(catalog, RaExpr::EdgeScan("e1", "x", "y"),
             RaExpr::EdgeScan("e1", "z", "y"), "x", "z", true,
             "sparse hash");
  // Graph-engine composition over huge ids shares the per-run step.
  NodeId huge = std::numeric_limits<NodeId>::max();
  BinaryRelation a = BinaryRelation::FromPairs(
      {{1, 5}, {1, 6}, {2, huge}, {2, 5}, {huge, 6}});
  BinaryRelation b = BinaryRelation::FromPairs(
      {{5, huge}, {5, 7}, {6, 7}, {6, 0}, {huge, 7}, {huge, 9}});
  auto composed = BinaryRelation::Compose(a, b);
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(composed->pairs(), naive::Compose(a, b).pairs());
}

TEST(FusedDistinctDifferentialTest, OneColumnDistinctMatchesNaive) {
  PropertyGraph dense = RandomGraph(60, 150, 141);
  PropertyGraph sparse;
  for (size_t i = 0; i < 200000; ++i) sparse.AddNode("N");
  // Sources 0, 1, 2 keep the projected targets out of order.
  for (Edge e : std::vector<Edge>{{0, 150000}, {1, 199999}, {1, 7},
                                  {1, 3}, {2, 7}, {2, 5}, {2, 199999}}) {
    (void)sparse.AddEdge(e.first, "e1", e.second);
  }
  for (const PropertyGraph* graph : {&dense, &sparse}) {
    Catalog catalog(*graph);
    // The scan's targets: unsorted, with duplicates.
    RaExprPtr targets =
        RaExpr::Project(RaExpr::EdgeScan("e1", "x", "y"), {{"y", "y"}});
    Table input = RunPlan(catalog, targets);
    Table result = RunPlan(catalog, RaExpr::Distinct(targets));
    EXPECT_TRUE(result.sorted());
    EXPECT_EQ(Rows(result), SortedUnique(Rows(input)));
  }
}

TEST(FusedDistinctDifferentialTest, SortedUnionMergeMatchesNaive) {
  PropertyGraph graph = RandomGraph(20, 120, 151);
  for (size_t i = 0; i < 7; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(i), "e4",
                        static_cast<NodeId>(i * 2));
  }
  Catalog catalog(graph);
  auto expect_union = [&](const RaExprPtr& left, const RaExprPtr& right,
                          bool merged, const std::string& what) {
    RaExprPtr plan = RaExpr::Distinct(RaExpr::Union(left, right));
    Table result = RunPlan(catalog, plan);
    std::vector<std::vector<NodeId>> expected =
        Rows(RunPlan(catalog, RaExpr::Union(left, right)));
    EXPECT_TRUE(result.sorted()) << what;
    EXPECT_EQ(Rows(result), SortedUnique(std::move(expected))) << what;
    Executor executor(catalog);
    ASSERT_TRUE(executor.Run(plan, At(1)).ok()) << what;
    const RaExpr* u = plan->left().get();
    EXPECT_EQ(executor.actual_rows().at(u),
              RunPlan(catalog, left).rows() + RunPlan(catalog, right).rows())
        << what;
    EXPECT_EQ(executor.actual_bytes().at(u) == 0, merged) << what;
  };
  RaExprPtr e1 = RaExpr::EdgeScan("e1", "x", "y");
  // Duplicates across the two sides (a dense 20-node graph).
  expect_union(e1, RaExpr::EdgeScan("e2", "x", "y"), true, "overlap");
  expect_union(e1, e1, true, "identical");
  // Unequal lengths, either way round.
  expect_union(e1, RaExpr::EdgeScan("e4", "x", "y"), true, "short right");
  expect_union(RaExpr::EdgeScan("e4", "x", "y"), e1, true, "short left");
  // One side empty.
  expect_union(e1, RaExpr::EdgeScan("nope", "x", "y"), true, "empty right");
  expect_union(RaExpr::EdgeScan("nope", "x", "y"), e1, true, "empty left");
  // One column.
  expect_union(RaExpr::NodeScan({"SEED"}, "x"),
               RaExpr::Project(e1, {{"x", "x"}}), true, "one column");
  // Misaligned columns, and an unsorted side: concatenate and sort.
  expect_union(e1, RaExpr::EdgeScan("e2", "y", "x"), false, "misaligned");
  expect_union(e1,
               RaExpr::Project(RaExpr::EdgeScan("e2", "y", "x"),
                               {{"x", "x"}, {"y", "y"}}),
               false, "unsorted");
}

// A Union tree over leaves[begin, end): left-deep, right-deep or bushy.
enum class TreeShape { kLeftDeep, kRightDeep, kBushy };

RaExprPtr UnionTree(const std::vector<RaExprPtr>& leaves, size_t begin,
                    size_t end, TreeShape shape) {
  if (end - begin == 1) return leaves[begin];
  size_t mid = shape == TreeShape::kLeftDeep    ? end - 1
               : shape == TreeShape::kRightDeep ? begin + 1
                                                : begin + (end - begin) / 2;
  return RaExpr::Union(UnionTree(leaves, begin, mid, shape),
                       UnionTree(leaves, mid, end, shape));
}

RaExprPtr UnionTree(const std::vector<RaExprPtr>& leaves, TreeShape shape) {
  return UnionTree(leaves, 0, leaves.size(), shape);
}

// Checks Distinct(tree) against concatenating the tree and sorting, at
// dop 1 and 4, and that each Union node in the tree records the rows of
// the leaves beneath it, with 0 bytes exactly when the leaves `merged`.
void ExpectUnionMerge(const Catalog& catalog, const RaExprPtr& tree,
                      bool merged, const std::string& what) {
  RaExprPtr plan = RaExpr::Distinct(tree);
  Table result = RunPlan(catalog, plan);
  EXPECT_TRUE(result.sorted()) << what;
  EXPECT_EQ(Rows(result), SortedUnique(Rows(RunPlan(catalog, tree))))
      << what;
  Executor executor(catalog);
  ASSERT_TRUE(executor.Run(plan, At(1)).ok()) << what;
  std::function<size_t(const RaExpr*)> leaf_rows =
      [&](const RaExpr* node) -> size_t {
    if (node->op() != RaOp::kUnion) return executor.actual_rows().at(node);
    size_t rows =
        leaf_rows(node->left().get()) + leaf_rows(node->right().get());
    EXPECT_EQ(executor.actual_rows().at(node), rows) << what;
    EXPECT_EQ(executor.actual_bytes().at(node) == 0, merged) << what;
    return rows;
  };
  leaf_rows(tree.get());
}

TEST(FusedDistinctDifferentialTest, NestedUnionMergeMatchesConcatSort) {
  PropertyGraph graph = RandomGraph(20, 120, 171);
  for (size_t i = 0; i < 7; ++i) {
    (void)graph.AddEdge(static_cast<NodeId>(i), "e4",
                        static_cast<NodeId>(i * 2));
  }
  Catalog catalog(graph);
  auto scan = [](const char* label) {
    return RaExpr::EdgeScan(label, "x", "y");
  };
  // Sorted binary leaves that overlap on a dense 20-node graph: scans and
  // path steps (fused compositions).
  RaExprPtr step12 = PathStep(RaExpr::EdgeScan("e1", "x", "m"),
                              RaExpr::EdgeScan("e2", "m", "y"), "x", "y");
  RaExprPtr step31 = PathStep(RaExpr::EdgeScan("e3", "x", "m"),
                              RaExpr::EdgeScan("e1", "m", "y"), "x", "y");
  std::vector<RaExprPtr> three = {scan("e1"), step12, scan("e4")};
  std::vector<RaExprPtr> five = {scan("e1"), scan("e2"), step12, scan("e3"),
                                 step31};
  const std::pair<TreeShape, const char*> shapes[] = {
      {TreeShape::kLeftDeep, "left-deep"},
      {TreeShape::kRightDeep, "right-deep"},
      {TreeShape::kBushy, "bushy"}};
  for (auto [shape, name] : shapes) {
    std::string at = std::string(" ") + name;
    ExpectUnionMerge(catalog, UnionTree(three, shape), true, "three" + at);
    ExpectUnionMerge(catalog, UnionTree(five, shape), true, "five" + at);
    // An empty leaf, first, inside and last.
    ExpectUnionMerge(catalog,
                     UnionTree({scan("nope"), scan("e1"), scan("e2")}, shape),
                     true, "empty first" + at);
    ExpectUnionMerge(catalog,
                     UnionTree({scan("e1"), scan("nope"), scan("e2")}, shape),
                     true, "empty inside" + at);
    ExpectUnionMerge(catalog,
                     UnionTree({scan("e2"), step12, scan("nope")}, shape),
                     true, "empty last" + at);
    // Two equal leaves, the same node twice, and a repeated path step.
    ExpectUnionMerge(catalog,
                     UnionTree({scan("e1"), scan("e2"), scan("e1")}, shape),
                     true, "equal leaves" + at);
    ExpectUnionMerge(catalog,
                     UnionTree({step12, step12, step12, scan("e4")}, shape),
                     true, "same node" + at);
    // One unsorted leaf, and one leaf in another column order: both fall
    // back to concatenating and sorting.
    RaExprPtr unsorted = RaExpr::Project(RaExpr::EdgeScan("e2", "y", "x"),
                                         {{"x", "x"}, {"y", "y"}});
    ExpectUnionMerge(catalog,
                     UnionTree({scan("e1"), unsorted, scan("e3")}, shape),
                     false, "unsorted" + at);
    ExpectUnionMerge(
        catalog,
        UnionTree({scan("e1"), scan("e3"), RaExpr::EdgeScan("e2", "y", "x")},
                  shape),
        false, "misaligned" + at);
  }
  // Wide unions (the rewriter allows 64 disjuncts): the merge takes at
  // most 8 leaves; 9 and 20 sorted leaves concatenate and sort.
  std::vector<RaExprPtr> wide = {scan("e1"), scan("e2"), scan("e3"),
                                 scan("e4")};
  for (const char* a : {"e1", "e2", "e3", "e4"}) {
    for (const char* b : {"e1", "e2", "e3", "e4"}) {
      wide.push_back(PathStep(RaExpr::EdgeScan(a, "x", "m"),
                              RaExpr::EdgeScan(b, "m", "y"), "x", "y"));
    }
  }
  ASSERT_EQ(wide.size(), 20u);
  for (auto [shape, name] : shapes) {
    for (size_t width : {8, 9, 20}) {
      std::vector<RaExprPtr> leaves(wide.begin(), wide.begin() + width);
      ExpectUnionMerge(catalog, UnionTree(leaves, shape), width <= 8,
                       std::to_string(width) + " leaves " + name);
    }
  }
  // One column, and three columns (each leaf a sorted Distinct).
  ExpectUnionMerge(
      catalog,
      UnionTree({RaExpr::NodeScan({"SEED"}, "x"),
                 RaExpr::Distinct(RaExpr::Project(scan("e1"), {{"x", "x"}})),
                 RaExpr::Distinct(RaExpr::Project(scan("e4"), {{"x", "x"}}))},
                TreeShape::kLeftDeep),
      true, "one column");
  auto triples = [](const char* a, const char* b) {
    return RaExpr::Distinct(RaExpr::Join(RaExpr::EdgeScan(a, "x", "y"),
                                         RaExpr::EdgeScan(b, "y", "z")));
  };
  ExpectUnionMerge(catalog,
                   UnionTree({triples("e1", "e2"), triples("e2", "e3"),
                              triples("e1", "e2"), triples("e4", "e1")},
                             TreeShape::kBushy),
                   true, "three columns");
}

TEST(FusedDistinctDifferentialTest, NestedUnionMergeAbortsWithTypedStatus) {
  PropertyGraph graph = RandomGraph(2000, 8000, 181);
  Catalog catalog(graph);
  std::vector<RaExprPtr> leaves;
  for (const char* label : {"e1", "e2", "e3"}) {
    leaves.push_back(RaExpr::EdgeScan(label, "x", "y"));
  }
  RaExprPtr plan =
      RaExpr::Distinct(UnionTree(leaves, TreeShape::kLeftDeep));
  for (int dop : {1, 4}) {
    ExecContext expired = At(dop);
    expired.deadline = Deadline::AfterMillis(1);
    while (!expired.deadline.Expired()) {
    }
    auto timed_out = Executor(catalog).Run(plan, expired);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
        << timed_out.status().ToString();

    // A budget that holds the three scans but not the merged output.
    size_t scans = 0;
    for (const RaExprPtr& leaf : leaves) {
      scans += RunPlan(catalog, leaf).data().size() * sizeof(NodeId);
    }
    MemoryTracker tracker(static_cast<int64_t>(scans) + 64, "query");
    ExecContext tight = At(dop);
    tight.mem = &tracker;
    auto breached = Executor(catalog).Run(plan, tight);
    ASSERT_FALSE(breached.ok());
    EXPECT_EQ(breached.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(breached.status().message().find("resource: "),
              std::string::npos)
        << breached.status().ToString();
    EXPECT_NE(breached.status().message().find("union"), std::string::npos)
        << breached.status().ToString();
  }
}

TEST(FusedDistinctDifferentialTest, ComposeAbortsWithTypedStatus) {
  PropertyGraph graph = RandomGraph(2000, 8000, 161);
  Catalog catalog(graph);
  RaExprPtr left = RaExpr::EdgeScan("e1", "x", "y");
  RaExprPtr right = RaExpr::EdgeScan("e2", "y", "z");
  RaExprPtr plan = PathStep(left, right, "x", "z");
  for (int dop : {1, 4}) {
    ExecContext expired = At(dop);
    expired.deadline = Deadline::AfterMillis(1);
    while (!expired.deadline.Expired()) {
    }
    auto timed_out = Executor(catalog).Run(plan, expired);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
        << timed_out.status().ToString();

    // A budget that holds both scans but not the composition's index.
    size_t scans = (RunPlan(catalog, left).data().size() +
                    RunPlan(catalog, right).data().size()) *
                   sizeof(NodeId);
    MemoryTracker tracker(static_cast<int64_t>(scans) + 64, "query");
    ExecContext tight = At(dop);
    tight.mem = &tracker;
    auto breached = Executor(catalog).Run(plan, tight);
    ASSERT_FALSE(breached.ok());
    EXPECT_EQ(breached.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(breached.status().message().find("resource: "),
              std::string::npos)
        << breached.status().ToString();
    EXPECT_NE(breached.status().message().find("join"), std::string::npos)
        << breached.status().ToString();
  }
}
}  // namespace
}  // namespace gqopt
