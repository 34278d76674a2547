// Robustness suite for the concurrent serving layer (docs/ROBUSTNESS.md):
// multi-thread query storms against the snapshot-swapped Database facade
// (results must be bit-identical to a serial run), mutation during
// traffic, the PreparedQuery TOCTOU regression, admission-control
// shedding, the degradation ladder, client-side retry/backoff, the
// bounded LRU plan cache, and the fault-injection matrix.
//
// gtest assertions are not thread-safe, so storm threads record failures
// into pre-sized slots and the main thread asserts after joining.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/server.h"
#include "datasets/yago.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

namespace gqopt {
namespace api {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// The fault injector is process-global: every test that touches it (or
// runs under it) goes through this guard so state never leaks between
// tests.
class FaultGuard {
 public:
  FaultGuard() { Reset(); }
  ~FaultGuard() { Reset(); }
  static void Reset() {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }
};

// YAGO workload shapes with distinct plans and non-trivial results.
const char* const kQueries[] = {
    "x1, x2 <- (x1, owns/isLocatedIn, x2)",
    "x1, x2 <- (x1, livesIn/isLocatedIn+, x2)",
    "x1, x2 <- (x1, owns, x2)",
};
constexpr size_t kNumQueries = 3;

std::vector<std::vector<NodeId>> BaselineRows(const Database& db,
                                              const std::string& text,
                                              const ExecOptions& options) {
  Session session(db, options);
  auto result = session.Query(text);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  if (!result.ok()) return {};
  return result->SortedRows();
}

bool HasStagePrefix(const Status& status) {
  const std::string& m = status.message();
  return m.starts_with("parse: ") || m.starts_with("rewrite: ") ||
         m.starts_with("plan: ") || m.starts_with("execute: ") ||
         m.starts_with("overloaded: ");
}

// ---- Concurrent storms: bit-identical to serial ----------------------------

// N threads through bare Sessions with the plan cache off: every request
// runs the full cold pipeline concurrently, so the lazy cache builds
// underneath (snapshot, catalog edge tables, statistics, CSR indexes)
// race and must all be properly synchronized.
TEST(ServingStormTest, ColdStormMatchesSerial) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 7}));
  ExecOptions options = ExecOptions::FromEnv();
  options.use_plan_cache = false;
  options.timeout_ms = 0;

  std::vector<std::vector<std::vector<NodeId>>> baseline(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    baseline[q] = BaselineRows(db, kQueries[q], options);
    ASSERT_FALSE(baseline[q].empty()) << kQueries[q];
  }

  constexpr size_t kThreads = 4;
  constexpr int kReps = 4;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(db, options);
      for (int rep = 0; rep < kReps; ++rep) {
        for (size_t q = 0; q < kNumQueries; ++q) {
          auto result = session.Query(kQueries[q]);
          if (!result.ok()) {
            errors[t] = result.status().ToString();
            return;
          }
          if (result->SortedRows() != baseline[q]) {
            errors[t] = std::string("rows diverged on ") + kQueries[q];
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "");
}

// The same storm through the serving layer with the plan cache on: the
// first requests cold-build the cached entries concurrently, the rest is
// the cached fast path. Nothing is shed at this queue capacity and the
// serving counters must reconcile.
TEST(ServingStormTest, CachedServerStormMatchesSerial) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 7}));
  // This test asserts cache hits; pin the cache on (the explicit setter
  // outranks the GQOPT_PLAN_CACHE=0 tier-1 matrix).
  db.set_plan_cache_enabled(true);
  ExecOptions options = ExecOptions::FromEnv();
  options.use_plan_cache = true;
  options.timeout_ms = 0;

  std::vector<std::vector<std::vector<NodeId>>> baseline(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    baseline[q] = BaselineRows(db, kQueries[q], options);
  }

  ServerOptions server_options;
  server_options.workers = 4;
  server_options.queue_capacity = 64;
  Server server(db, server_options);

  constexpr size_t kThreads = 4;
  constexpr int kReps = 4;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (size_t q = 0; q < kNumQueries; ++q) {
          auto response = server.Query(kQueries[q], options);
          if (!response.result.ok()) {
            errors[t] = response.result.status().ToString();
            return;
          }
          if (response.result->SortedRows() != baseline[q]) {
            errors[t] = std::string("rows diverged on ") + kQueries[q];
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "");

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, kThreads * kReps * kNumQueries);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_GT(db.plan_cache_stats().hits, 0u);
}

// ---- Mutation during traffic -----------------------------------------------

// Readers storm while a writer adds nodes (each retires the publication
// and advances the data generation, but cannot change any query's result
// rows). Every result must be OK and bit-identical to the baseline:
// writes never stale a handle, so Session::Query has nothing to retry.
TEST(ServingMutationTest, MutationDuringTrafficStaysSound) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 7}));
  ExecOptions options = ExecOptions::FromEnv();
  options.timeout_ms = 0;
  auto baseline = BaselineRows(db, kQueries[0], options);
  const uint64_t start_generation = db.generation();
  const uint64_t start_data_generation = db.data_generation();
  const size_t start_nodes = db.graph().num_nodes();

  constexpr size_t kReaders = 3;
  constexpr int kMutations = 40;
  std::vector<std::string> errors(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Session session(db, options);
      while (!stop.load(std::memory_order_acquire)) {
        auto result = session.Query(kQueries[0]);
        if (!result.ok()) {
          errors[t] = result.status().ToString();
          return;
        }
        if (result->SortedRows() != baseline) {
          errors[t] = "rows diverged under mutation";
          return;
        }
      }
    });
  }
  for (int i = 0; i < kMutations; ++i) {
    db.AddNode("Person");
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  for (size_t t = 0; t < kReaders; ++t) EXPECT_EQ(errors[t], "");
  // Every write landed and advanced the data generation; none touched
  // the schema generation or the plan cache.
  EXPECT_EQ(db.graph().num_nodes(), start_nodes + kMutations);
  EXPECT_GE(db.data_generation(), start_data_generation + kMutations);
  EXPECT_EQ(db.generation(), start_generation);
  EXPECT_EQ(db.plan_cache_stats().invalidations, 0u);
}

// The PreparedQuery TOCTOU regression: a handle prepared just before a
// write lands must execute on one whole snapshot — the one it captured
// or the current one it re-resolves to — with correct rows, never run
// against swapped-out state and never be refused: writes do not stale
// handles.
TEST(ServingMutationTest, PreparedHandleExecuteVsConcurrentMutator) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 120, .seed = 7}));
  ExecOptions options;
  options.timeout_ms = 0;
  auto baseline = BaselineRows(db, kQueries[0], options);

  std::atomic<bool> stop{false};
  std::atomic<int> writes{0};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      db.AddNode("Person");
      writes.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  // Start racing once the writer runs (bounded, so a stuck writer fails
  // the count below instead of hanging the test).
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(20);
  while (writes.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }

  Session session(db, options);
  std::string error;
  for (int i = 0; i < 200 && error.empty(); ++i) {
    auto prepared = db.Prepare(kQueries[0], options);
    if (!prepared.ok()) {
      error = prepared.status().ToString();
      break;
    }
    auto result = (*prepared)->Execute(session);
    if (!result.ok()) {
      error = result.status().ToString();
    } else if (result->SortedRows() != baseline) {
      error = "rows diverged";
    }
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
  EXPECT_EQ(error, "");
  EXPECT_GT(db.delta_stats().appended_nodes, 0u);
}

// Write storm: a writer appends through the delta store — with the
// kDeltaMerge fault injected so a third of the merges fail, and periodic
// explicit compactions — while readers query concurrently. Inserts are
// monotone, so every read must return a superset of the pre-storm rows
// and a reader's successive results must never shrink; a torn or
// partially merged view would violate both. tools/run_tier1.sh runs this
// under --tsan.
TEST(ServingMutationTest, DeltaMutateQueryStormUnderMergeFaults) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 80, .seed = 13}));
  db.set_delta_merge_rows(64);
  ExecOptions options;
  options.timeout_ms = 0;
  const char* query = "x1, x2 <- (x1, owns, x2)";
  auto baseline = BaselineRows(db, query, options);
  FaultInjector::Global().Arm(FaultPoint::kDeltaMerge, FaultKind::kAlloc,
                              /*every_n=*/3);

  constexpr size_t kReaders = 3;
  constexpr int kWrites = 120;
  std::vector<std::string> errors(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Session session(db, options);
      size_t last_rows = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto result = session.Query(query);
        if (!result.ok()) {
          errors[t] = result.status().ToString();
          return;
        }
        auto rows = result->SortedRows();
        if (rows.size() < last_rows) {
          errors[t] = "rows shrank under insert-only traffic";
          return;
        }
        if (!std::includes(rows.begin(), rows.end(), baseline.begin(),
                           baseline.end())) {
          errors[t] = "pre-storm rows went missing";
          return;
        }
        last_rows = rows.size();
      }
    });
  }
  std::string write_error;
  for (int i = 0; i < kWrites && write_error.empty(); ++i) {
    // Publish first, as a reader would: writes made while no base is
    // frozen (after a compaction, before the next snapshot) skip the
    // delta, and this storm races delta rows against merge faults.
    db.snapshot();
    NodeId person = db.AddNode("PERSON");
    NodeId property = db.AddNode("PROPERTY");
    Status added = db.AddEdge(person, "owns", property);
    if (!added.ok()) write_error = added.ToString();
    // Explicit compactions race the injected failures: a failed merge
    // keeps the rows pending, a later one lands them.
    if (i % 16 == 15) (void)db.Compact();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(write_error, "");
  for (size_t t = 0; t < kReaders; ++t) EXPECT_EQ(errors[t], "");

  // Disarmed, the drain compacts everything and the final table holds
  // exactly the baseline plus every written edge.
  FaultGuard::Reset();
  ASSERT_TRUE(db.Compact().ok());
  EXPECT_EQ(db.delta_stats().pending_edges, 0u);
  EXPECT_EQ(db.delta_stats().pending_nodes, 0u);
  Session session(db, options);
  auto drained = session.Query(query);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->rows(), baseline.size() + kWrites);
  inc::DeltaStats stats = db.delta_stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GE(stats.failed_compactions, 1u);
}

// ---- Shedding and the degradation ladder -----------------------------------

// A chain graph whose transitive closure takes real time: the occupier
// thread keeps the single-slot queue busy so admission control and the
// pressure ladder engage deterministically enough to observe. The writes
// are compacted, so the closure runs over the plain base graph.
std::unique_ptr<Database> ChainDb(int nodes) {
  auto db = std::make_unique<Database>();
  for (int i = 0; i < nodes; ++i) db->AddNode("Node");
  for (int i = 0; i + 1 < nodes; ++i) {
    EXPECT_TRUE(db->AddEdge(i, "next", i + 1).ok());
  }
  EXPECT_TRUE(db->Compact().ok());
  return db;
}

TEST(ServingShedTest, FullQueueShedsWithTypedOverloadedStatus) {
  FaultGuard faults;
  auto db = ChainDb(600);
  ExecOptions slow;
  slow.apply_schema_rewrite = false;  // the chain db has no schema
  slow.timeout_ms = 0;
  ExecOptions cheap = slow;

  ServerOptions server_options;
  server_options.workers = 1;
  server_options.queue_capacity = 1;
  Server server(*db, server_options);

  std::atomic<bool> stop{false};
  std::thread occupier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      server.Query("x1, x2 <- (x1, next+, x2)", slow);
    }
  });

  // Nothing can shed before the occupier holds the slot, so wait for its
  // first admission; the wall-clock bound keeps a stuck occupier from
  // hanging the test. From then on only a full queue counts as an
  // attempt: the brief gaps between two occupier queries cost yields,
  // not attempts.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (server.stats().admitted == 0 && Clock::now() < give_up) {
    std::this_thread::yield();
  }

  // While a slow closure occupies the only queue slot, EXPLAIN through
  // the serving layer reports the ladder at work and a cheap query sheds
  // with the typed, retryable "overloaded: " status.
  bool observed_shed = false;
  bool observed_degraded_explain = false;
  for (int attempt = 0;
       attempt < 200 && !(observed_shed && observed_degraded_explain) &&
       Clock::now() < give_up;) {
    if (server.queue_depth() < 1) {
      std::this_thread::yield();
      continue;
    }
    ++attempt;
    if (!observed_degraded_explain) {
      auto explained = server.Explain("x1, x2 <- (x1, next, x2)", cheap);
      if (explained.ok() &&
          explained->find("degradation: greedy-planner") !=
              std::string::npos) {
        observed_degraded_explain = true;
      }
    }
    if (observed_shed) continue;
    auto response = server.Query("x1, x2 <- (x1, next, x2)", cheap);
    if (!response.result.ok()) {
      const Status& status = response.result.status();
      EXPECT_TRUE(status.message().starts_with("overloaded: "))
          << status.ToString();
      EXPECT_EQ(ClassifyError(status), QueryStage::kOverloaded);
      EXPECT_TRUE(Server::IsRetryable(status));
      observed_shed = true;
    }
  }
  stop.store(true, std::memory_order_release);
  occupier.join();

  EXPECT_TRUE(observed_shed);
  EXPECT_TRUE(observed_degraded_explain);
  EXPECT_GE(server.stats().shed_queue_full, 1u);
}

TEST(DegradationTest, PressureLevels) {
  EXPECT_EQ(Server::PressureLevel(0, 16), 0);
  EXPECT_EQ(Server::PressureLevel(7, 16), 0);
  EXPECT_EQ(Server::PressureLevel(8, 16), 1);   // >= 1/2 full
  EXPECT_EQ(Server::PressureLevel(11, 16), 1);
  EXPECT_EQ(Server::PressureLevel(12, 16), 2);  // >= 3/4 full
  EXPECT_EQ(Server::PressureLevel(16, 16), 2);
  EXPECT_EQ(Server::PressureLevel(1, 1), 2);
  EXPECT_EQ(Server::PressureLevel(5, 0), 0);  // capacity 0: ladder off
}

TEST(DegradationTest, ApplyDegradationRungs) {
  ExecOptions options;
  options.planner = PlannerKind::kDp;
  DegradationReport none = Server::ApplyDegradation(0, &options);
  EXPECT_FALSE(none.any());
  EXPECT_EQ(none.Summary(), "none");
  EXPECT_EQ(options.planner, PlannerKind::kDp);

  DegradationReport level1 = Server::ApplyDegradation(1, &options);
  EXPECT_TRUE(level1.greedy_planner);
  EXPECT_FALSE(level1.skipped_rewrite);
  EXPECT_EQ(options.planner, PlannerKind::kGreedy);
  EXPECT_TRUE(options.apply_schema_rewrite);
  EXPECT_FALSE(options.allow_stale_statistics);

  ExecOptions full;
  full.planner = PlannerKind::kDp;
  DegradationReport level2 = Server::ApplyDegradation(2, &full);
  EXPECT_TRUE(level2.greedy_planner);
  EXPECT_TRUE(level2.skipped_rewrite);
  EXPECT_FALSE(full.apply_schema_rewrite);
  EXPECT_TRUE(full.allow_stale_statistics);
  EXPECT_NE(level2.Summary().find("greedy-planner"), std::string::npos);
  EXPECT_NE(level2.Summary().find("pressure 2"), std::string::npos);

  // Already-greedy options have nothing to downgrade at level 1.
  ExecOptions greedy;
  greedy.planner = PlannerKind::kGreedy;
  EXPECT_FALSE(Server::ApplyDegradation(1, &greedy).greedy_planner);
}

// RefreshStatistics retires the publication but keeps the same-generation
// predecessor: allow_stale_statistics serves it (reported on the handle)
// instead of stalling on the rebuild.
TEST(DegradationTest, StaleStatisticsServing) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
  ExecOptions options;
  ASSERT_TRUE(db.Prepare(kQueries[0], options).ok());  // publish a snapshot
  db.RefreshStatistics();

  bool served_stale = false;
  SnapshotPtr stale = db.StaleOkSnapshot(&served_stale);
  EXPECT_TRUE(served_stale);
  EXPECT_EQ(stale->generation(), db.generation());

  ExecOptions degraded = options;
  degraded.allow_stale_statistics = true;
  db.RefreshStatistics();
  auto prepared = db.Prepare(kQueries[0], degraded);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE((*prepared)->stale_statistics());

  auto before = (*prepared)->Execute(Session(db, degraded));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // A write kills the old publication entirely: statistics may be stale,
  // data never. StaleOkSnapshot rebuilds instead of serving the
  // pre-write publication, a fresh prepare plans on fresh statistics,
  // and the handle planned on stale statistics executes on the new data.
  NodeId person = db.AddNode("PERSON");
  NodeId property = db.AddNode("PROPERTY");
  NodeId city = db.AddNode("CITY");
  ASSERT_TRUE(db.AddEdge(person, "owns", property).ok());
  ASSERT_TRUE(db.AddEdge(property, "isLocatedIn", city).ok());
  served_stale = true;
  SnapshotPtr current = db.StaleOkSnapshot(&served_stale);
  EXPECT_FALSE(served_stale);
  EXPECT_EQ(current->data_generation(), db.data_generation());
  ExecOptions uncached = degraded;
  uncached.use_plan_cache = false;  // a real prepare, not a retained entry
  auto fresh = db.Prepare(kQueries[0], uncached);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->stale_statistics());
  auto after = (*prepared)->Execute(Session(db, degraded));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows(), before->rows() + 1);
  auto rows = after->SortedRows();
  EXPECT_NE(std::find(rows.begin(), rows.end(),
                      std::vector<NodeId>{person, city}),
            rows.end());
}

// ---- Retry and backoff -----------------------------------------------------

TEST(RetryTest, IsRetryable) {
  EXPECT_TRUE(Server::IsRetryable(
      Status::ResourceExhausted("overloaded: request queue full")));
  EXPECT_TRUE(Server::IsRetryable(
      Status::DeadlineExceeded("overloaded: deadline expired while queued")));
  EXPECT_TRUE(Server::IsRetryable(
      Status::DeadlineExceeded("execute: transitive closure timed out")));
  // Deterministic pipeline failures are never retried.
  EXPECT_FALSE(Server::IsRetryable(
      Status::InvalidArgument("parse: unexpected token")));
  EXPECT_FALSE(Server::IsRetryable(
      Status::ResourceExhausted("plan: allocation failed")));
  EXPECT_FALSE(Server::IsRetryable(
      Status::InvalidArgument("execute: stale prepared query")));
  EXPECT_FALSE(Server::IsRetryable(Status::OK()));
}

TEST(RetryTest, BackoffMillisCappedJitteredExponential) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 100;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    int64_t full = std::min<int64_t>(100, 5 * (int64_t{1} << (attempt - 1)));
    Rng rng(42);
    int64_t backoff = Server::BackoffMillis(policy, attempt, &rng);
    EXPECT_GE(backoff, full / 2) << "attempt " << attempt;
    EXPECT_LE(backoff, full) << "attempt " << attempt;
  }
  // Deterministic under one seed.
  Rng a(7), b(7);
  EXPECT_EQ(Server::BackoffMillis(policy, 3, &a),
            Server::BackoffMillis(policy, 3, &b));
  // Non-positive base backoff disables sleeping.
  RetryPolicy zero;
  zero.initial_backoff_ms = 0;
  Rng rng(1);
  EXPECT_EQ(Server::BackoffMillis(zero, 1, &rng), 0);
}

// An injected execute-stage deadline on every attempt makes QueryWithRetry
// exhaust its budget deterministically: exactly max_attempts attempts,
// the retries counter reconciles, and the final error keeps its stage
// prefix.
TEST(RetryTest, QueryWithRetryExhaustsAttemptsOnInjectedDeadline) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
  Server server(db);
  FaultInjector::Global().Arm(FaultPoint::kExecute, FaultKind::kDeadline);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  auto response = server.QueryWithRetry(kQueries[0], ExecOptions(), policy);
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.attempts, 3);
  EXPECT_TRUE(response.result.status().message().starts_with("execute: "))
      << response.result.status().ToString();
  EXPECT_EQ(server.stats().retries, 2u);

  FaultGuard::Reset();
  auto recovered = server.QueryWithRetry(kQueries[0], ExecOptions(), policy);
  EXPECT_TRUE(recovered.result.ok());
  EXPECT_EQ(recovered.attempts, 1);
}

// ---- Fault-injection matrix ------------------------------------------------

// Every injection point x kind, each under 4-thread mixed traffic: the
// process must not crash, successes must be bit-identical to the serial
// baseline, and every failure must carry a stage prefix from the error
// taxonomy. (Some combinations are deliberate no-ops — e.g. deadline at a
// CSR build — and simply pass traffic through.)
TEST(FaultMatrixTest, AllPointsAllKindsUnderConcurrentTraffic) {
  FaultGuard faults;
  constexpr FaultPoint kPoints[] = {
      FaultPoint::kParse,        FaultPoint::kRewrite,
      FaultPoint::kPlan,         FaultPoint::kExecute,
      FaultPoint::kSnapshotBuild, FaultPoint::kCatalogBuild,
      FaultPoint::kStatsBuild,   FaultPoint::kCsrBuild,
  };
  constexpr FaultKind kKinds[] = {
      FaultKind::kDeadline,
      FaultKind::kAlloc,
      FaultKind::kInvalidate,
  };

  ExecOptions options;  // dop 1: injected bad_alloc must unwind through
  options.timeout_ms = 0;  // the facade boundary, not a pool worker
  Database baseline_db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
  std::vector<std::vector<std::vector<NodeId>>> baseline(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    baseline[q] = BaselineRows(baseline_db, kQueries[q], options);
  }

  for (FaultPoint point : kPoints) {
    for (FaultKind kind : kKinds) {
      // A fresh database per combination: the lazy caches are cold, so
      // build points actually probe.
      Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
      ServerOptions server_options;
      server_options.workers = 2;
      server_options.queue_capacity = 64;
      Server server(db, server_options);
      FaultGuard::Reset();
      FaultInjector::Global().Arm(point, kind, /*every_n=*/2);

      constexpr size_t kThreads = 4;
      std::vector<std::string> errors(kThreads);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int rep = 0; rep < 6; ++rep) {
            size_t q = (t + rep) % kNumQueries;
            auto response = server.Query(kQueries[q], options);
            if (response.result.ok()) {
              if (response.result->SortedRows() != baseline[q]) {
                errors[t] = std::string("rows diverged on ") + kQueries[q];
                return;
              }
            } else if (!HasStagePrefix(response.result.status())) {
              errors[t] = std::string("untyped failure: ") +
                          response.result.status().ToString();
              return;
            }
          }
        });
      }
      for (auto& thread : threads) thread.join();
      for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(errors[t], "")
            << FaultPointName(point) << "=" << FaultKindName(kind);
      }
    }
  }
}

// ---- Memory governance under load ------------------------------------------

// Storm a light+heavy query mix through a Server whose database budget is
// about a quarter of the heavy query's natural peak: every failure must be
// a typed "resource:" abort or "overloaded:" shed (never a crash, a
// bad_alloc, or an untyped error), every admitted result must stay
// bit-identical to the pre-limit baseline, and the budget must be whole
// again once the storm drains.
TEST(ServingStormTest, MemoryStormUnderSmallServerBudget) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 200, .seed = 11}));
  ExecOptions options;
  options.timeout_ms = 0;

  const char* kHeavy = "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)";
  const char* kLight = "x1, x2 <- (x1, owns, x2)";

  // Measure the natural peak and snapshot both baselines before the
  // ceiling drops.
  Session probe(db, options);
  auto unbounded = probe.Query(kHeavy);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  const std::vector<std::vector<NodeId>> heavy_rows = unbounded->SortedRows();
  const int64_t natural_peak = unbounded->mem_peak_bytes;
  ASSERT_GT(natural_peak, 0);
  auto light_result = probe.Query(kLight);
  ASSERT_TRUE(light_result.ok()) << light_result.status().ToString();
  const std::vector<std::vector<NodeId>> light_rows =
      light_result->SortedRows();

  int64_t budget = natural_peak / 4;
  if (budget < 1) budget = 1;
  db.set_memory_limit(budget);

  ServerOptions server_options;
  server_options.workers = 4;
  server_options.queue_capacity = 64;
  Server server(db, server_options);

  constexpr size_t kThreads = 6;
  std::vector<std::string> errors(kThreads);
  std::atomic<int> heavy_rejections{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        bool heavy = (t + rep) % 2 == 0;
        const char* query = heavy ? kHeavy : kLight;
        auto response = server.Query(query, options);
        if (response.result.ok()) {
          const auto& expected = heavy ? heavy_rows : light_rows;
          if (response.result->SortedRows() != expected) {
            errors[t] = std::string("rows diverged on ") + query;
            return;
          }
        } else {
          QueryStage stage = ClassifyError(response.result.status());
          if (stage != QueryStage::kResource &&
              stage != QueryStage::kOverloaded) {
            errors[t] = std::string("untyped failure under budget: ") +
                        response.result.status().ToString();
            return;
          }
          if (heavy) heavy_rejections.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "");
  // At a quarter of its own natural peak, the heavy query cannot have
  // sailed through every time.
  EXPECT_GT(heavy_rejections.load(), 0);
  // The drained storm returned every reservation: the ledger is back to
  // zero, and lifting the ceiling restores full service with identical
  // rows.
  EXPECT_EQ(db.memory().consumed(), 0);
  db.set_memory_limit(0);
  auto after = Session(db, options).Query(kHeavy);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->SortedRows(), heavy_rows);
}

// ---- FaultInjector unit behavior -------------------------------------------

TEST(FaultInjectorTest, EveryNStride) {
  FaultGuard faults;
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(FaultPoint::kParse, FaultKind::kDeadline, /*every_n=*/3);
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    if (injector.Probe(FaultPoint::kParse) != FaultKind::kNone) ++fired;
  }
  EXPECT_EQ(fired, 2);  // probes 3 and 6
  EXPECT_EQ(injector.probes(FaultPoint::kParse), 6u);
  EXPECT_EQ(injector.fires(FaultPoint::kParse), 2u);
  // Disarmed points count nothing.
  EXPECT_EQ(injector.Probe(FaultPoint::kPlan), FaultKind::kNone);
  EXPECT_EQ(injector.probes(FaultPoint::kPlan), 0u);
}

TEST(FaultInjectorTest, ArmFromSpecParsing) {
  FaultGuard faults;
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_TRUE(injector.ArmFromSpec("plan=deadline:3,execute=alloc"));
  EXPECT_EQ(injector.armed(FaultPoint::kPlan), FaultKind::kDeadline);
  EXPECT_EQ(injector.armed(FaultPoint::kExecute), FaultKind::kAlloc);
  EXPECT_EQ(injector.armed(FaultPoint::kParse), FaultKind::kNone);
  std::string description = injector.Describe();
  EXPECT_NE(description.find("plan=deadline"), std::string::npos);
  EXPECT_NE(description.find("execute=alloc"), std::string::npos);

  // Malformed entries report failure but arm the valid prefix.
  EXPECT_FALSE(injector.ArmFromSpec("snapshot-build=alloc,bogus"));
  EXPECT_EQ(injector.armed(FaultPoint::kSnapshotBuild), FaultKind::kAlloc);
  EXPECT_FALSE(injector.ArmFromSpec("plan=frobnicate"));

  // The empty spec disarms everything.
  EXPECT_TRUE(injector.ArmFromSpec(""));
  for (size_t p = 0; p < kNumFaultPoints; ++p) {
    EXPECT_EQ(injector.armed(static_cast<FaultPoint>(p)), FaultKind::kNone);
  }
}

// ---- Bounded LRU plan cache ------------------------------------------------

TEST(PlanCacheLruTest, EvictsLeastRecentlyUsedAtCapacity) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
  db.set_plan_cache_enabled(true);  // outranks the GQOPT_PLAN_CACHE=0 matrix
  db.set_plan_cache_capacity(2);
  ExecOptions options;

  ASSERT_TRUE(db.Prepare(kQueries[0], options).ok());
  ASSERT_TRUE(db.Prepare(kQueries[1], options).ok());
  // Touch query 0: it becomes most-recent, so inserting query 2 must
  // evict query 1.
  bool hit = false;
  ASSERT_TRUE(db.Prepare(kQueries[0], options, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(db.Prepare(kQueries[2], options).ok());

  PlanCacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  ASSERT_TRUE(db.Prepare(kQueries[0], options, &hit).ok());
  EXPECT_TRUE(hit) << "recently-touched entry must survive the eviction";
  ASSERT_TRUE(db.Prepare(kQueries[1], options, &hit).ok());
  EXPECT_FALSE(hit) << "LRU entry must have been evicted";
}

TEST(PlanCacheLruTest, CapacityFromEnvironment) {
  FaultGuard faults;
  ExecOptions options;
  {
    ScopedEnv cap("GQOPT_PLAN_CACHE_CAP", "1");
    Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
    db.set_plan_cache_enabled(true);  // outranks GQOPT_PLAN_CACHE=0
    EXPECT_EQ(db.plan_cache_stats().capacity, 1u);
    ASSERT_TRUE(db.Prepare(kQueries[0], options).ok());
    ASSERT_TRUE(db.Prepare(kQueries[1], options).ok());
    PlanCacheStats stats = db.plan_cache_stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 1u);
  }
  {
    ScopedEnv cap("GQOPT_PLAN_CACHE_CAP", "0");  // 0 = unbounded
    Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
    EXPECT_EQ(db.plan_cache_stats().capacity, 0u);
  }
  {
    ScopedEnv cap("GQOPT_PLAN_CACHE_CAP", "not-a-number");
    Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
    EXPECT_EQ(db.plan_cache_stats().capacity, kDefaultPlanCacheCapacity);
  }
}

TEST(PlanCacheLruTest, ShrinkingCapacityEvictsImmediately) {
  FaultGuard faults;
  Database db(YagoSchema(), GenerateYago({.persons = 60, .seed = 7}));
  db.set_plan_cache_enabled(true);  // outranks GQOPT_PLAN_CACHE=0
  ExecOptions options;
  for (size_t q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(db.Prepare(kQueries[q], options).ok());
  }
  EXPECT_EQ(db.plan_cache_stats().entries, kNumQueries);
  db.set_plan_cache_capacity(1);
  PlanCacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, kNumQueries - 1);
}

}  // namespace
}  // namespace api
}  // namespace gqopt
