// The incremental-maintenance subsystem (src/inc) in isolation: the
// DeltaStore's id assignment / dedup / seal caching, the two-cursor
// MergedEdgeRun union, the incremental closure extension against a full
// recompute, overlay statistics against a recollect over the compacted
// graph, and the Database-level write path: the master graph and the
// re-frozen base against a from-scratch build, pending rows on the
// master, auto-compaction at the threshold and typed kDeltaMerge fault
// handling with retry.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/database.h"
#include "eval/binary_relation.h"
#include "graph/property_graph.h"
#include "inc/closure_delta.h"
#include "inc/delta_store.h"
#include "inc/merged_view.h"
#include "ra/catalog.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace gqopt {
namespace {

using api::Database;
using api::Session;

// The tests run on ad-hoc graphs with no schema declarations: skip the
// schema rewrite so the labels resolve as written.
api::ExecOptions NoRewrite() {
  api::ExecOptions options;
  options.apply_schema_rewrite = false;
  return options;
}

class IncTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

PropertyGraph SmallBase() {
  PropertyGraph graph;
  for (int i = 0; i < 6; ++i) graph.AddNode(i < 4 ? "A" : "B");
  (void)graph.AddEdge(0, "e", 1);
  (void)graph.AddEdge(1, "e", 2);
  (void)graph.AddEdge(4, "f", 5);
  graph.Finalize();
  return graph;
}

TEST_F(IncTest, DeltaStoreAssignsMonotoneIdsAndDedups) {
  PropertyGraph base = SmallBase();
  inc::DeltaStore delta;

  NodeId first = delta.AddNode(base, "A");
  NodeId second = delta.AddNode(base, "C");  // label new to the base
  EXPECT_EQ(first, base.num_nodes());
  EXPECT_EQ(second, base.num_nodes() + 1);

  // Duplicate of a base edge: counted no-op, stays out of the run.
  ASSERT_TRUE(delta.AddEdge(base, 0, "e", 1).ok());
  EXPECT_TRUE(delta.ForwardRun("e").empty());
  // Fresh edge, then its duplicate inside the delta.
  ASSERT_TRUE(delta.AddEdge(base, 2, "e", first).ok());
  ASSERT_TRUE(delta.AddEdge(base, 2, "e", first).ok());
  EXPECT_EQ(delta.ForwardRun("e").size(), 1u);
  // Out-of-range endpoint is refused outright.
  EXPECT_EQ(delta.AddEdge(base, second + 1, "e", 0).code(),
            StatusCode::kOutOfRange);

  inc::DeltaStats stats = delta.stats();
  EXPECT_EQ(stats.pending_nodes, 2u);
  EXPECT_EQ(stats.pending_edges, 1u);
  EXPECT_EQ(stats.dropped_duplicates, 2u);

  // Runs stay sorted-unique in both orientations as appends interleave.
  ASSERT_TRUE(delta.AddEdge(base, 0, "e", 3).ok());
  ASSERT_TRUE(delta.AddEdge(base, 0, "e", 2).ok());
  const std::vector<Edge>& fwd = delta.ForwardRun("e");
  EXPECT_TRUE(std::is_sorted(fwd.begin(), fwd.end()));
  const std::vector<Edge>& rev = delta.ReverseRun("e");
  EXPECT_TRUE(std::is_sorted(rev.begin(), rev.end()));
  EXPECT_EQ(fwd.size(), rev.size());
}

TEST_F(IncTest, SealIsCachedBetweenAppends) {
  PropertyGraph base = SmallBase();
  inc::DeltaStore delta;
  ASSERT_TRUE(delta.AddEdge(base, 0, "e", 3).ok());

  inc::SealedDeltaPtr a = delta.Seal();
  inc::SealedDeltaPtr b = delta.Seal();
  EXPECT_EQ(a.get(), b.get());  // repeated seals share one publication
  EXPECT_EQ(delta.stats().seals, 1u);

  ASSERT_TRUE(delta.AddEdge(base, 2, "e", 3).ok());
  inc::SealedDeltaPtr c = delta.Seal();
  EXPECT_NE(a.get(), c.get());
  // The earlier seal is immutable: it still sees one pending edge.
  EXPECT_EQ(a->ForwardRun("e").size(), 1u);
  EXPECT_EQ(c->ForwardRun("e").size(), 2u);
}

TEST_F(IncTest, MergedEdgeRunScansTheAscendingUnion) {
  std::vector<Edge> base = {{1, 2}, {3, 4}, {7, 8}};
  std::vector<Edge> extra = {{2, 3}, {3, 4}, {5, 6}};  // one overlap
  inc::MergedEdgeRun run{&base, &extra};
  EXPECT_EQ(run.size(), 6u);  // size() counts both sides, pre-dedup

  std::vector<Edge> seen;
  run.Scan([&](const Edge& e) {
    seen.push_back(e);
    return true;
  });
  std::vector<Edge> expected = {{1, 2}, {2, 3}, {3, 4}, {5, 6}, {7, 8}};
  EXPECT_EQ(seen, expected);  // ascending, equal pairs emitted once

  // Early termination: the callback's false stops the scan mid-union.
  seen.clear();
  run.Scan([&](const Edge& e) {
    seen.push_back(e);
    return seen.size() < 2;
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (Edge{2, 3}));

  EXPECT_EQ(run.Materialize(), expected);
}

TEST_F(IncTest, ExtendedClosureMatchesFullRecompute) {
  Rng rng(47);
  const size_t kNodes = 120;
  std::vector<Edge> base_edges, new_edges;
  for (size_t i = 0; i < 400; ++i) {
    base_edges.push_back({static_cast<NodeId>(rng.Uniform(kNodes)),
                          static_cast<NodeId>(rng.Uniform(kNodes))});
  }
  for (size_t i = 0; i < 60; ++i) {
    new_edges.push_back({static_cast<NodeId>(rng.Uniform(kNodes)),
                         static_cast<NodeId>(rng.Uniform(kNodes))});
  }
  BinaryRelation base = BinaryRelation::FromPairs(base_edges);
  // The delta contract: new edges are sorted-unique and disjoint from
  // the base run (the DeltaStore enforces this at append time).
  std::sort(new_edges.begin(), new_edges.end());
  new_edges.erase(std::unique(new_edges.begin(), new_edges.end()),
                  new_edges.end());
  std::vector<Edge> disjoint;
  std::set_difference(new_edges.begin(), new_edges.end(),
                      base.pairs().begin(), base.pairs().end(),
                      std::back_inserter(disjoint));
  BinaryRelation merged = BinaryRelation::Union(
      base, BinaryRelation::FromPairs(disjoint));

  ExecContext ctx;
  auto full = BinaryRelation::TransitiveClosure(merged, ctx);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto prior = BinaryRelation::TransitiveClosure(base, ctx);
  ASSERT_TRUE(prior.ok());
  auto extended =
      inc::ExtendTransitiveClosure(*prior, disjoint, merged, ctx);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  // Bit-identity, not set equality: the canonical sorted-unique pair
  // vectors must match element for element.
  EXPECT_EQ(extended->pairs(), full->pairs());

  // No new edges: the prior fixpoint is returned unchanged.
  auto unchanged = inc::ExtendTransitiveClosure(*prior, {}, base, ctx);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged->pairs(), prior->pairs());

  // Empty prior closure (first query after a mutation burst on a fresh
  // label): extension degenerates to the full fixpoint.
  BinaryRelation empty;
  auto from_empty =
      inc::ExtendTransitiveClosure(empty, merged.pairs(), merged, ctx);
  ASSERT_TRUE(from_empty.ok());
  EXPECT_EQ(from_empty->pairs(), full->pairs());
}

TEST_F(IncTest, OverlayStatisticsMatchCompactedRecollect) {
  Rng rng(53);
  const size_t kNodes = 200;
  PropertyGraph base;
  for (size_t i = 0; i < kNodes; ++i) {
    base.AddNode(i % 3 == 0 ? "A" : (i % 3 == 1 ? "B" : "C"));
  }
  std::vector<Edge> base_edges, delta_edges;
  for (size_t i = 0; i < 900; ++i) {
    Edge e{static_cast<NodeId>(rng.Uniform(kNodes)),
           static_cast<NodeId>(rng.Uniform(kNodes))};
    (i % 4 == 0 ? delta_edges : base_edges).push_back(e);
  }
  for (const Edge& e : base_edges) {
    (void)base.AddEdge(e.first, "e", e.second);
  }
  base.Finalize();

  // The compacted reference carries the same rows natively.
  PropertyGraph compacted = base;
  inc::DeltaStore delta;
  NodeId added = delta.AddNode(base, "D");  // fresh label, fresh extent
  EXPECT_EQ(compacted.AddNode("D"), added);
  for (const Edge& e : delta_edges) {
    ASSERT_TRUE(delta.AddEdge(base, e.first, "e", e.second).ok());
    ASSERT_TRUE(compacted.AddEdge(e.first, "e", e.second).ok());
  }
  ASSERT_TRUE(delta.AddEdge(base, 0, "f", added).ok());  // fresh edge label
  ASSERT_TRUE(compacted.AddEdge(0, "f", added).ok());

  Catalog base_catalog(base);
  // Warm the base cache first: the overlay must extend cached numbers,
  // not recollect them.
  (void)base_catalog.stats().EdgeFor("e");
  (void)base_catalog.stats().GlobalClosureBound();
  Catalog overlay(&base_catalog, delta.Seal());
  Catalog recollect(compacted);

  for (const char* label : {"e", "f", "g"}) {  // touched, new, absent
    const EdgeLabelStats& live = overlay.stats().EdgeFor(label);
    const EdgeLabelStats& exact = recollect.stats().EdgeFor(label);
    EXPECT_EQ(live.rows, exact.rows) << label;
    EXPECT_EQ(live.distinct_sources, exact.distinct_sources) << label;
    EXPECT_EQ(live.distinct_targets, exact.distinct_targets) << label;
    EXPECT_DOUBLE_EQ(live.avg_out_degree, exact.avg_out_degree) << label;
    EXPECT_DOUBLE_EQ(live.avg_in_degree, exact.avg_in_degree) << label;
    EXPECT_EQ(live.source_label_bound, exact.source_label_bound) << label;
    EXPECT_EQ(live.target_label_bound, exact.target_label_bound) << label;
    EXPECT_DOUBLE_EQ(live.closure_bound, exact.closure_bound) << label;
    EXPECT_EQ(live.label_pairs, exact.label_pairs) << label;
  }
  EXPECT_DOUBLE_EQ(overlay.stats().GlobalClosureBound(),
                   recollect.stats().GlobalClosureBound());
  EXPECT_EQ(overlay.stats().total_nodes(), recollect.stats().total_nodes());
  EXPECT_EQ(overlay.stats().total_edges(), recollect.stats().total_edges());
  EXPECT_EQ(overlay.stats().NodeCount("D"), 1u);

  // The merged node extent is the sorted base extent plus the (greater)
  // pending ids.
  EXPECT_EQ(overlay.NodeExtent("D"), recollect.NodeExtent("D"));
  EXPECT_EQ(overlay.NodeExtent("A"), recollect.NodeExtent("A"));
}

// Writes through the Database land in the delta and on the master: the
// master, and the base a compaction re-freezes from it, must equal a
// graph built from scratch with every row.
TEST_F(IncTest, WrittenGraphMatchesFromScratchBuild) {
  Rng rng(31);
  const size_t kNodes = 300;
  std::vector<Edge> first, second;
  for (size_t i = 0; i < 1500; ++i) {
    Edge e{static_cast<NodeId>(rng.Uniform(kNodes)),
           static_cast<NodeId>(rng.Uniform(kNodes))};
    (i % 3 == 0 ? second : first).push_back(e);
  }

  // Reference: everything added up front, one Finalize.
  PropertyGraph all;
  for (size_t i = 0; i < kNodes; ++i) all.AddNode("N");
  NodeId extra_all = all.AddNode("M");
  for (const Edge& e : first) (void)all.AddEdge(e.first, "e", e.second);
  for (const Edge& e : second) (void)all.AddEdge(e.first, "e", e.second);
  (void)all.AddEdge(0, "g", extra_all);  // label only the second batch has
  all.Finalize();

  // Written: the first batch as the loaded graph, the second through the
  // Database write path, all of it still pending.
  PropertyGraph loaded;
  for (size_t i = 0; i < kNodes; ++i) loaded.AddNode("N");
  for (const Edge& e : first) (void)loaded.AddEdge(e.first, "e", e.second);
  Database db;
  db.Use(GraphSchema(), std::move(loaded));
  db.set_delta_merge_rows(1u << 20);
  NodeId extra = db.AddNode("M");
  EXPECT_EQ(extra, extra_all);
  for (const Edge& e : second) {
    ASSERT_TRUE(db.AddEdge(e.first, "e", e.second).ok());
  }
  ASSERT_TRUE(db.AddEdge(0, "g", extra).ok());
  ASSERT_GT(db.delta_stats().pending_edges, 0u);

  auto expect_equal = [&](const PropertyGraph& graph) {
    EXPECT_EQ(graph.num_nodes(), all.num_nodes());
    EXPECT_EQ(graph.num_edges(), all.num_edges());
    for (const char* label : {"e", "g"}) {
      EXPECT_EQ(graph.EdgesByLabel(label), all.EdgesByLabel(label)) << label;
      EXPECT_EQ(graph.ReverseEdgesByLabel(label),
                all.ReverseEdgesByLabel(label))
          << label;
    }
    for (const char* label : {"N", "M"}) {
      EXPECT_EQ(graph.NodesWithLabel(label), all.NodesWithLabel(label))
          << label;
    }
  };
  {
    SCOPED_TRACE("master with rows pending");
    expect_equal(db.graph());
  }
  ASSERT_TRUE(db.Compact().ok());
  {
    SCOPED_TRACE("re-frozen base after compaction");
    api::SnapshotPtr snapshot = db.snapshot();
    EXPECT_EQ(snapshot->delta(), nullptr);
    expect_equal(snapshot->graph());
  }
}

TEST_F(IncTest, AutoCompactionFiresAtTheThreshold) {
  Database db;
  db.Use(GraphSchema(), SmallBase());
  db.set_delta_merge_rows(3);

  ASSERT_TRUE(db.AddEdge(0, "e", 3).ok());
  NodeId node = db.AddNode("B");
  EXPECT_EQ(db.delta_stats().pending_nodes + db.delta_stats().pending_edges,
            2u);
  EXPECT_EQ(db.delta_stats().compactions, 0u);

  // The third pending row crosses the threshold: the delta merges into
  // the base and the buffer drains.
  ASSERT_TRUE(db.AddEdge(3, "e", node).ok());
  inc::DeltaStats stats = db.delta_stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.compacted_rows, 3u);
  EXPECT_EQ(stats.pending_nodes, 0u);
  EXPECT_EQ(stats.pending_edges, 0u);
  EXPECT_EQ(db.graph().num_nodes(), 7u);
  EXPECT_TRUE(std::binary_search(db.graph().EdgesByLabel("e").begin(),
                                 db.graph().EdgesByLabel("e").end(),
                                 Edge{3, node}));
}

TEST_F(IncTest, MasterGraphIncludesPendingRows) {
  // Flat-graph consumers (graph engine, consistency checker) cannot
  // read the overlay: every write goes through to the master graph, so
  // graph() agrees with relational execution mid-delta.
  Database db;
  db.Use(GraphSchema(), SmallBase());
  db.set_delta_merge_rows(1u << 20);
  const size_t base_nodes = db.graph().num_nodes();

  NodeId node = db.AddNode("B");
  ASSERT_TRUE(db.AddEdge(0, "e", node).ok());
  ASSERT_GT(db.delta_stats().pending_edges, 0u);
  // The master holds the pending rows; MaterializedGraph is the same
  // graph.
  EXPECT_EQ(db.MaterializedGraph().get(), &db.graph());
  EXPECT_EQ(db.graph().num_nodes(), base_nodes + 1);
  EXPECT_TRUE(std::binary_search(db.graph().EdgesByLabel("e").begin(),
                                 db.graph().EdgesByLabel("e").end(),
                                 Edge{0, node}));
  // The published base stays frozen: readers see the row through the
  // overlay only.
  api::SnapshotPtr snapshot = db.snapshot();
  EXPECT_EQ(snapshot->graph().num_nodes(), base_nodes);
  EXPECT_FALSE(std::binary_search(snapshot->graph().EdgesByLabel("e").begin(),
                                  snapshot->graph().EdgesByLabel("e").end(),
                                  Edge{0, node}));
  Session session(db, NoRewrite());
  auto scan = session.Query("x, y <- (x, e, y)");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->rows(), db.graph().EdgesByLabel("e").size());

  // After compaction the re-frozen base holds the row as well.
  ASSERT_TRUE(db.Compact().ok());
  EXPECT_EQ(db.delta_stats().pending_edges, 0u);
  EXPECT_EQ(db.snapshot()->graph().num_nodes(), base_nodes + 1);
  EXPECT_TRUE(std::binary_search(db.graph().EdgesByLabel("e").begin(),
                                 db.graph().EdgesByLabel("e").end(),
                                 Edge{0, node}));
}

TEST_F(IncTest, DeltaMergeFaultLeavesPendingRowsAndRetries) {
  Database db;
  db.Use(GraphSchema(), SmallBase());
  ASSERT_TRUE(db.AddEdge(0, "e", 3).ok());

  Session session(db, NoRewrite());
  auto before = session.Query("x, y <- (x, e, y)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  FaultInjector::Global().Arm(FaultPoint::kDeltaMerge, FaultKind::kAlloc);
  Status failed = db.Compact();
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(failed.message().find("compact:"), std::string::npos);
  inc::DeltaStats stats = db.delta_stats();
  EXPECT_EQ(stats.failed_compactions, 1u);
  EXPECT_EQ(stats.pending_edges, 1u);  // nothing was lost
  EXPECT_EQ(stats.compactions, 0u);

  // Reads still serve the overlay while the merge is failing.
  auto during = session.Query("x, y <- (x, e, y)");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->SortedRows(), before->SortedRows());

  // Disarmed, the retry merges and the answer is unchanged.
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(db.Compact().ok());
  stats = db.delta_stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.pending_edges, 0u);
  auto after = session.Query("x, y <- (x, e, y)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->SortedRows(), before->SortedRows());
}

TEST_F(IncTest, DeltaMergeDeadlineFaultIsTyped) {
  Database db;
  db.Use(GraphSchema(), SmallBase());
  ASSERT_TRUE(db.AddEdge(2, "e", 0).ok());
  FaultInjector::Global().Arm(FaultPoint::kDeltaMerge, FaultKind::kDeadline);
  Status failed = db.Compact();
  EXPECT_EQ(failed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(failed.message().find("compact:"), std::string::npos);
  EXPECT_EQ(db.delta_stats().failed_compactions, 1u);
}

}  // namespace
}  // namespace gqopt
