// Differential tests: the CSR / flat-hash evaluation paths must return
// byte-identical results to the retained naive reference implementations
// (eval/naive_reference.h) on randomized graphs and on the structural edge
// cases (empty relations, self-loops, folded multi-column join keys).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "eval/binary_relation.h"
#include "eval/csr_view.h"
#include "eval/naive_reference.h"
#include "graph/property_graph.h"
#include "ra/catalog.h"
#include "ra/executor.h"
#include "ra/ra_expr.h"
#include "util/rng.h"

namespace gqopt {
namespace {

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

  auto closure = BinaryRelation::TransitiveClosure(b);
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
    auto fast = BinaryRelation::TransitiveClosure(r);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->pairs(), naive::TransitiveClosure(r).pairs())
        << "seed " << seed;
  }
  BinaryRelation loops = BinaryRelation::FromPairs({{0, 0}, {0, 1}, {1, 0}});
  EXPECT_EQ(BinaryRelation::TransitiveClosure(loops)->pairs(),
            naive::TransitiveClosure(loops).pairs());
  EXPECT_TRUE(BinaryRelation::TransitiveClosure(BinaryRelation())->empty());
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

Table RunPlan(const Catalog& catalog, const RaExprPtr& plan) {
  Executor executor(catalog);
  auto result = executor.Run(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Table{};
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

}  // namespace
}  // namespace gqopt
