// Memory governance end to end through the api facade
// (docs/ROBUSTNESS.md): a tight GQOPT_MEM_LIMIT aborts execution with the
// typed "resource: " status (never a bad_alloc or an OOM kill), a
// generous or absent budget returns bit-identical results, the injected
// kMemReserve fault drives the same abort path deterministically, and the
// plan cache respects its byte budget.

#include <gtest/gtest.h>

#include <string>

#include "api/database.h"
#include "api/server.h"
#include "datasets/yago.h"
#include "ra/explain.h"
#include "test_fixtures.h"
#include "util/fault_injection.h"
#include "util/mem_tracker.h"

namespace gqopt {
namespace {

using api::ClassifyError;
using api::Database;
using api::ExecOptions;
using api::PreparedQueryPtr;
using api::QueryStage;
using api::Server;
using api::Session;
using testing::ScopedEnv;

constexpr const char* kClosureQuery =
    "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)";
constexpr const char* kJoinQuery = "x1, x2 <- (x1, worksAt/isLocatedIn, x2)";

TEST(MemoryGovernanceTest, TightBudgetAbortsWithTypedResourceError) {
  Database db(YagoSchema(), GenerateYago({.persons = 200, .seed = 11}));
  ExecOptions options;
  options.mem_limit_bytes = 4096;  // far below the closure's footprint
  Session session(db, options);
  auto result = session.Query(kClosureQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("resource: "), std::string::npos);
}

TEST(MemoryGovernanceTest, BoundedAndUnboundedResultsIdentical) {
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 5}));
  Session unbounded(db);
  auto baseline = unbounded.Query(kClosureQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ExecOptions generous;
  generous.mem_limit_bytes = int64_t{256} << 20;
  Session bounded(db, generous);
  auto tracked = bounded.Query(kClosureQuery);
  ASSERT_TRUE(tracked.ok()) << tracked.status().ToString();

  EXPECT_EQ(baseline->SortedRows(), tracked->SortedRows());
  // The run is accounted either way (the per-query tracker exists even
  // without a limit), so the peak is observable.
  EXPECT_GT(tracked->mem_peak_bytes, 0);
  EXPECT_GT(baseline->mem_peak_bytes, 0);
}

TEST(MemoryGovernanceTest, InjectedReservationFaultIsTypedAndClean) {
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 3}));
  Session session(db);
  ASSERT_TRUE(session.Query(kJoinQuery).ok());

  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(FaultPoint::kMemReserve, FaultKind::kAlloc);
  auto result = session.Query(kJoinQuery);
  injector.DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();

  // Disarmed, the same session serves the query again: the breach left
  // no residue in the database (trackers are per-execution).
  auto after = session.Query(kJoinQuery);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(MemoryGovernanceTest, EstimateAndPeakAreObservable) {
  Database db(YagoSchema(), GenerateYago({.persons = 80, .seed = 2}));
  Session session(db);
  auto prepared = session.Prepare(kJoinQuery);
  ASSERT_TRUE(prepared.ok());
  EXPECT_GT((*prepared)->estimated_memory_bytes(), 0);
  EXPECT_EQ(EstimatePlanMemory((*prepared)->plan(), db.catalog()),
            (*prepared)->estimated_memory_bytes());

  auto analyzed = (*prepared)->ExplainAnalyze(session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("mem = "), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("peak memory "), std::string::npos) << *analyzed;
}

TEST(MemoryGovernanceTest, ExecOptionsReadMemLimitFromEnv) {
  ScopedEnv env("GQOPT_MEM_LIMIT", "4k");
  ExecOptions options = ExecOptions::FromEnv();
  EXPECT_EQ(options.mem_limit_bytes, 4096);
  options.mem_limit_bytes = 0;  // explicit beats env
  EXPECT_EQ(options.mem_limit_bytes, 0);
}

TEST(MemoryGovernanceTest, ServerBudgetReadFromEnvAndSettable) {
  ScopedEnv env("GQOPT_SERVER_MEM_LIMIT", "8m");
  Database db(YagoSchema(), GenerateYago({.persons = 20}));
  EXPECT_EQ(db.memory().limit(), int64_t{8} << 20);
  EXPECT_EQ(db.memory().label(), "server");
  db.set_memory_limit(int64_t{16} << 20);
  EXPECT_EQ(db.memory().limit(), int64_t{16} << 20);
}

TEST(MemoryGovernanceTest, ServerBudgetCapsUnlimitedQueries) {
  // At this size the closure query peaks at about 47 KB and the join
  // query at about 37 KB, on either side of the ceiling.
  Database db(YagoSchema(), GenerateYago({.persons = 600, .seed = 11}));
  db.set_memory_limit(41 << 10);  // tiny server ceiling
  Session session(db);  // per-query limit unset: the root still governs
  auto result = session.Query(kClosureQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kResource)
      << result.status().ToString();
  // The failed run released everything: the budget is whole again, and
  // a query that fits proceeds — one overrun must not poison the server.
  EXPECT_EQ(db.memory().consumed(), 0);
  auto small = session.Query(kJoinQuery);
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST(MemoryGovernanceTest, ResourceErrorsAreNotRetryable) {
  Status resource = Status::ResourceExhausted(
      "execute: resource: memory limit exceeded in join (query: consumed "
      "9000 of 8192 bytes)");
  EXPECT_EQ(ClassifyError(resource), QueryStage::kResource);
  EXPECT_FALSE(Server::IsRetryable(resource));
  Status shed = Status::ResourceExhausted(
      "overloaded: insufficient memory budget (estimated 1 bytes, "
      "available 0 of 1); retry with backoff");
  EXPECT_EQ(ClassifyError(shed), QueryStage::kOverloaded);
  EXPECT_TRUE(Server::IsRetryable(shed));
}

TEST(MemoryGovernanceTest, PlanCacheRespectsByteBudget) {
  Database db(YagoSchema(), GenerateYago({.persons = 30}));
  db.set_plan_cache_memory_capacity(1);  // absurdly small: keep newest only
  std::string q1 = "x1, x2 <- (x1, owns, x2)";
  std::string q2 = "x1, x2 <- (x1, livesIn, x2)";
  ASSERT_TRUE(db.Prepare(q1).ok());
  ASSERT_TRUE(db.Prepare(q2).ok());
  api::PlanCacheStats stats = db.plan_cache_stats();
  // The newest entry survives its own oversize; the older one was
  // evicted for bytes, not count.
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.mem_capacity, 1u);
  EXPECT_GT(stats.bytes, 0u);

  bool hit = false;
  ASSERT_TRUE(db.Prepare(q2, ExecOptions(), &hit).ok());
  EXPECT_TRUE(hit);  // the surviving newest entry still serves
}

}  // namespace
}  // namespace gqopt
