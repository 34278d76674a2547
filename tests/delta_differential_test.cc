// Differential tests for the incremental write path: executing against
// the delta OVERLAY (pending rows sealed next to the frozen base) must be
// BIT-IDENTICAL — same columns, same rows, same row order — to executing
// against the fully COMPACTED graph, across join strategies chosen by
// both planners, unseeded and seeded closures, top-k, at dop 1 and 4,
// with the plan cache on and off, and in low-memory mode. Plus the plan
// retention contract: a data mutation keeps unrelated cached plans
// serving by pointer identity, re-plans only past the drift threshold,
// and retained handles observe the freshly written rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "api/database.h"
#include "datasets/yago.h"

namespace gqopt {
namespace {

using api::Database;
using api::ExecOptions;
using api::Session;

// The same mutation batch, applied to any database over the same seed
// graph: ids assign identically, so overlay and compacted runs describe
// the same final graph. New persons marry into the existing graph and
// acquire property chains, extending both flat joins and the
// isMarriedTo+ fixpoint across the base/delta boundary.
void ApplyMutations(Database& db) {
  std::vector<NodeId> persons, properties;
  for (int i = 0; i < 6; ++i) persons.push_back(db.AddNode("PERSON"));
  for (int i = 0; i < 4; ++i) properties.push_back(db.AddNode("PROPERTY"));
  NodeId city = db.AddNode("CITY");
  for (size_t i = 0; i + 1 < persons.size(); ++i) {
    ASSERT_TRUE(
        db.AddEdge(persons[i], "isMarriedTo", persons[i + 1]).ok());
  }
  // Marry the new chain into the base graph (node 0 is a base person in
  // the YAGO generator) so the closure frontier crosses the boundary.
  ASSERT_TRUE(db.AddEdge(0, "isMarriedTo", persons[0]).ok());
  ASSERT_TRUE(db.AddEdge(persons.back(), "hasChild", persons[0]).ok());
  for (size_t i = 0; i < properties.size(); ++i) {
    ASSERT_TRUE(db.AddEdge(persons[i], "owns", properties[i]).ok());
    ASSERT_TRUE(db.AddEdge(properties[i], "isLocatedIn", city).ok());
  }
  ASSERT_TRUE(db.AddEdge(persons[0], "livesIn", city).ok());
}

const char* const kQueries[] = {
    // Flat composition: join-strategy coverage under both planners.
    "x1, x2 <- (x1, owns/isLocatedIn, x2)",
    // Unseeded closure: the overlay's incremental fixpoint fast path.
    "x1, x2 <- (x1, isMarriedTo+, x2)",
    // Seeded closure behind a join.
    "x1, x2 <- (x1, owns/isLocatedIn+, x2)",
    // Union with a closure branch.
    "x1, x2 <- (x1, isMarriedTo+/hasChild, x2) ++ (x1, livesIn, x2)",
    // Top-k: ordered operators with early termination.
    "x, y <- (x, isMarriedTo/hasChild, y) order by y desc, x limit 9",
};

TEST(DeltaDifferentialTest, OverlayIsBitIdenticalToCompactedExecution) {
  // Overlay database: every mutation stays pending (threshold far above
  // the batch), queries run base + seal.
  Database overlay(YagoSchema(), GenerateYago({.persons = 60, .seed = 9}));
  overlay.set_delta_merge_rows(1u << 20);
  overlay.snapshot();  // shares the frozen base: the mutations stay pending
  ApplyMutations(overlay);
  ASSERT_GT(overlay.delta_stats().pending_edges, 0u);

  // Compacted database: the same rows merged into the base graph.
  Database compacted(YagoSchema(), GenerateYago({.persons = 60, .seed = 9}));
  compacted.set_delta_merge_rows(1u << 20);
  compacted.snapshot();  // so the compaction below has rows to fold
  ApplyMutations(compacted);
  ASSERT_TRUE(compacted.Compact().ok());
  ASSERT_EQ(compacted.delta_stats().pending_edges, 0u);

  for (PlannerKind planner : {PlannerKind::kDp, PlannerKind::kGreedy}) {
    for (int dop : {1, 4}) {
      for (bool cache : {false, true}) {
        for (bool low_memory : {false, true}) {
          ExecOptions options;
          options.planner = planner;
          options.dop = dop;
          options.use_plan_cache = cache;
          options.low_memory = low_memory;
          options.timeout_ms = 0;  // correctness sweep, no deadline
          Session overlay_session(overlay, options);
          Session compacted_session(compacted, options);
          for (const char* query : kQueries) {
            SCOPED_TRACE(std::string(query) + " planner=" +
                         (planner == PlannerKind::kDp ? "dp" : "greedy") +
                         " dop=" + std::to_string(dop) +
                         " cache=" + std::to_string(cache) +
                         " low_mem=" + std::to_string(low_memory));
            auto live = overlay_session.Query(query);
            ASSERT_TRUE(live.ok()) << live.status().ToString();
            auto exact = compacted_session.Query(query);
            ASSERT_TRUE(exact.ok()) << exact.status().ToString();
            // data() compares raw row-major storage: rows AND row order.
            EXPECT_EQ(live->table.columns(), exact->table.columns());
            EXPECT_EQ(live->table.data(), exact->table.data());
          }
        }
      }
    }
  }
}

TEST(DeltaDifferentialTest, CompactionPreservesAnswersMidStream) {
  // One database, queried before and after its own compaction: the
  // visible rows must not move when the representation changes.
  Database db(YagoSchema(), GenerateYago({.persons = 50, .seed = 21}));
  db.set_delta_merge_rows(1u << 20);
  ApplyMutations(db);
  Session session(db);
  std::vector<std::vector<std::vector<NodeId>>> before;
  for (const char* query : kQueries) {
    auto result = session.Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    before.push_back(result->SortedRows());
  }
  ASSERT_TRUE(db.Compact().ok());
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    auto result = session.Query(kQueries[q]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->SortedRows(), before[q]) << kQueries[q];
  }
}

TEST(DeltaDifferentialTest, DataMutationRetainsUnrelatedCachedPlans) {
  Database db(YagoSchema(), GenerateYago({.persons = 50, .seed = 33}));
  db.set_plan_cache_enabled(true);
  db.set_delta_merge_rows(1u << 20);
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";

  bool hit = true;
  auto first = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);

  // A write against labels the plan never scans: the cached entry keeps
  // serving without a re-plan — the acceptance assertion is pointer
  // identity, the same shared PreparedQuery object.
  NodeId a = db.AddNode("PERSON");
  ASSERT_TRUE(db.AddEdge(0, "isMarriedTo", a).ok());
  auto again = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), again->get());
  EXPECT_GE(db.plan_cache_stats().entries, 1u);
  // The schema generation did not move, so the handle itself still
  // executes (against the re-resolved snapshot).
  EXPECT_TRUE((*first)->Execute(session).ok());
}

TEST(DeltaDifferentialTest, CardinalityDriftPastThresholdReplans) {
  Database db(YagoSchema(), GenerateYago({.persons = 30, .seed = 35}));
  db.set_plan_cache_enabled(true);
  db.set_delta_merge_rows(1u << 20);
  db.set_plan_drift_threshold(2.0);
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";

  bool hit = true;
  auto first = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(first.ok());
  size_t owns_rows = db.catalog().stats().EdgeFor("owns").rows;
  ASSERT_GT(owns_rows, 0u);

  // Stay under the 2x drift ratio: still a hit.
  NodeId person = db.AddNode("PERSON");
  NodeId property = db.AddNode("PROPERTY");
  ASSERT_TRUE(db.AddEdge(person, "owns", property).ok());
  ASSERT_TRUE(db.Prepare(text, session.options(), &hit).ok());
  EXPECT_TRUE(hit);

  // Blow past it: fresh owns rows until the table more than doubles.
  for (size_t i = 0; i <= owns_rows; ++i) {
    NodeId p = db.AddNode("PERSON");
    NodeId q = db.AddNode("PROPERTY");
    ASSERT_TRUE(db.AddEdge(p, "owns", q).ok());
  }
  auto replanned = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(replanned.ok());
  EXPECT_FALSE(hit) << "estimates drifted past the threshold: must re-plan";
  EXPECT_NE(first->get(), replanned->get());
}

TEST(DeltaDifferentialTest, RetainedHandleObservesFreshRows) {
  Database db(YagoSchema(), GenerateYago({.persons = 30, .seed = 41}));
  db.set_plan_cache_enabled(true);
  db.set_delta_merge_rows(1u << 20);
  Session session(db);
  auto prepared = session.Prepare("x1, x2 <- (x1, owns, x2)");
  ASSERT_TRUE(prepared.ok());
  auto before = (*prepared)->Execute(session);
  ASSERT_TRUE(before.ok());

  NodeId person = db.AddNode("PERSON");
  NodeId property = db.AddNode("PROPERTY");
  ASSERT_TRUE(db.AddEdge(person, "owns", property).ok());

  // Same handle, no re-prepare: the execution re-resolves the snapshot
  // and serves the row written after Prepare.
  auto after = (*prepared)->Execute(session);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows(), before->rows() + 1);
  std::vector<NodeId> fresh = {person, property};
  auto rows = after->SortedRows();
  EXPECT_NE(std::find(rows.begin(), rows.end(), fresh), rows.end());
}

TEST(DeltaDifferentialTest, SchemaGenerationStillInvalidatesEverything) {
  // The generation split's other half: Use() (a schema/dataset swap)
  // keeps full invalidation semantics, pending writes or not.
  Database db(YagoSchema(), GenerateYago({.persons = 30, .seed = 43}));
  db.set_plan_cache_enabled(true);
  Session session(db);
  auto prepared = session.Prepare("x1, x2 <- (x1, owns/isLocatedIn, x2)");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(db.AddEdge(0, "isMarriedTo", db.AddNode("PERSON")).ok());
  EXPECT_GT(db.delta_stats().pending_edges, 0u);

  db.Use(YagoSchema(), GenerateYago({.persons = 10, .seed = 44}));
  // Pending delta rows described the replaced dataset: discarded.
  EXPECT_EQ(db.delta_stats().pending_edges, 0u);
  EXPECT_EQ(db.plan_cache_stats().entries, 0u);
  auto stale = (*prepared)->Execute(session);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace gqopt
