// The api::Database facade: prepare-once/execute-many result identity
// against the hand-wired stage pipeline, plan-cache semantics (normalized
// keys, hit/miss counters, invalidation on a dataset swap — graph writes
// and a statistics refresh keep entries and handles), pending writes on
// the master graph, the error taxonomy, and the ExecOptions precedence
// rule (explicit setter > environment > default).
//
// tools/run_tier1.sh re-runs this suite with GQOPT_PLAN_CACHE=0 and =1:
// every assertion about cache behavior therefore pins the enabled state
// explicitly instead of relying on the environment default.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "api/database.h"
#include "api/stages.h"  // hand-wired pipeline for the identity check
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "eval/graph_engine.h"
#include "graph/consistency.h"
#include "util/exec_context.h"

namespace gqopt {
namespace {

using api::ClassifyError;
using api::Database;
using api::ExecOptions;
using api::PlanCacheStats;
using api::PreparedQueryPtr;
using api::QueryStage;
using api::Session;

// Saves an environment variable and restores it on scope exit, so the
// precedence tests cannot leak state into later tests (or the ambient
// GQOPT_PLANNER/GQOPT_PLAN_CACHE of a tier-1 re-run).
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

std::vector<std::vector<NodeId>> HandWiredRows(const Database& db,
                                               const std::string& text) {
  auto query = ParseUcqt(text);
  EXPECT_TRUE(query.ok());
  auto rewritten = RewriteQuery(*query, db.schema());
  EXPECT_TRUE(rewritten.ok());
  const Ucqt& to_run = rewritten->reverted ? *query : rewritten->query;
  auto plan = UcqtToRa(to_run);
  EXPECT_TRUE(plan.ok());
  Executor executor(db.catalog());
  auto table = executor.Run(OptimizePlan(*plan, db.catalog()));
  EXPECT_TRUE(table.ok());
  api::QueryResult result;
  result.table = *table;
  return result.SortedRows();
}

TEST(ApiTest, PrepareOnceExecuteManyMatchesHandWiredPipeline) {
  Database db(YagoSchema(), GenerateYago({.persons = 80, .seed = 7}));
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn+, x2)";
  auto prepared = session.Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto expected = HandWiredRows(db, text);
  EXPECT_FALSE(expected.empty());
  for (int run = 0; run < 3; ++run) {
    auto result = (*prepared)->Execute(session);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->SortedRows(), expected) << "run " << run;
    EXPECT_GT(result->plan_operators, 0u);
    EXPECT_GT(result->rows_processed, 0u);
  }
}

TEST(ApiTest, WhitespaceVariantIsACacheHit) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);  // explicit: wins over GQOPT_PLAN_CACHE
  ExecOptions options;

  bool hit = true;
  auto first = db.Prepare("x1, x2 <- (x1, owns/isLocatedIn, x2)", options,
                          &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);

  auto variant = db.Prepare(
      "  x1,   x2\t<- (x1, owns/isLocatedIn, x2)  ", options, &hit);
  ASSERT_TRUE(variant.ok());
  EXPECT_TRUE(hit);
  // Not merely equivalent: the identical shared state — parse, rewrite
  // and planning were all skipped.
  EXPECT_EQ(first->get(), variant->get());

  PlanCacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ApiTest, PlanKnobsKeyTheCacheSeparately) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";

  ExecOptions dp;
  dp.planner = PlannerKind::kDp;
  ExecOptions greedy;
  greedy.planner = PlannerKind::kGreedy;

  bool hit = true;
  auto a = db.Prepare(text, dp, &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  auto b = db.Prepare(text, greedy, &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(hit) << "different planner knobs must not share a plan";
  EXPECT_EQ(db.plan_cache_stats().entries, 2u);
}

TEST(ApiTest, DisabledCacheNeverHitsAndStoresNothing) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(false);  // explicit: wins over GQOPT_PLAN_CACHE
  ExecOptions options;
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";

  bool hit = true;
  auto a = db.Prepare(text, options, &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  auto b = db.Prepare(text, options, &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(hit);
  EXPECT_NE(a->get(), b->get());

  PlanCacheStats stats = db.plan_cache_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Per-call bypass with the cache enabled: nothing is stored either.
  db.set_plan_cache_enabled(true);
  ExecOptions bypass;
  bypass.use_plan_cache = false;
  ASSERT_TRUE(db.Prepare(text, bypass, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(db.plan_cache_stats().entries, 0u);
}

TEST(ApiTest, GraphWritesKeepCacheAndHandles) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";
  auto prepared = session.Prepare(text);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 1u);
  auto before = (*prepared)->Execute(session);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t generation = db.generation();
  const uint64_t data_generation = db.data_generation();

  NodeId person = db.AddNode("PERSON");
  NodeId property = db.AddNode("PROPERTY");
  NodeId city = db.AddNode("CITY");
  ASSERT_TRUE(db.AddEdge(person, "owns", property).ok());
  ASSERT_TRUE(db.AddEdge(property, "isLocatedIn", city).ok());

  // Writes move only the data generation: the schema generation, the
  // cached entry and the outstanding handle all survive them.
  EXPECT_EQ(db.generation(), generation);
  EXPECT_GT(db.data_generation(), data_generation);
  PlanCacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ((*prepared)->Explain().find("stale"), std::string::npos);

  // The old handle executes against the written data: exactly the one
  // new (person, city) row joins the earlier result.
  auto after = (*prepared)->Execute(session);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto expected = before->SortedRows();
  expected.push_back({person, city});
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(after->SortedRows(), expected);
  EXPECT_EQ(after->SortedRows(), HandWiredRows(db, text));

  // Re-preparing hits the retained entry: the same plan, still fitting
  // the statistics after two more rows.
  bool hit = false;
  auto again = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again->get(), prepared->get());
}

// Rows still pending in the delta are on the master graph already, so
// flat-graph consumers (the graph engine, the consistency checker) agree
// with relational execution over the overlay.
TEST(ApiTest, PendingWritesAreOnTheMasterGraph) {
  Database db(YagoSchema(), GenerateYago({.persons = 40, .seed = 5}));
  db.set_delta_merge_rows(1u << 20);  // keep every write pending
  db.snapshot();  // shares the frozen base: the writes below stay pending
  Session session(db);
  const size_t nodes_before = db.graph().num_nodes();
  const size_t edges_before = db.graph().num_edges();

  NodeId person = db.AddNode("PERSON", {{"name", Value::String("newcomer")}});
  NodeId property = db.AddNode("PROPERTY");
  ASSERT_TRUE(db.AddEdge(person, "owns", property).ok());
  ASSERT_TRUE(db.AddEdge(property, "isLocatedIn",
                         db.graph().NodesWithLabel("CITY").front())
                  .ok());
  ASSERT_TRUE(db.AddEdge(0, "isMarriedTo", person).ok());
  ASSERT_EQ(db.delta_stats().pending_nodes, 2u);
  ASSERT_EQ(db.delta_stats().pending_edges, 3u);

  // db.graph() contains the pending rows.
  const PropertyGraph& graph = db.graph();
  EXPECT_EQ(graph.num_nodes(), nodes_before + 2);
  EXPECT_EQ(graph.num_edges(), edges_before + 3);
  EXPECT_EQ(graph.NodeLabel(person), "PERSON");
  EXPECT_EQ(graph.GetProperty(person, "name")->AsString(), "newcomer");
  const std::vector<Edge>& owns = graph.EdgesByLabel("owns");
  EXPECT_TRUE(std::binary_search(owns.begin(), owns.end(),
                                 Edge{person, property}));

  // The graph engine over db.graph() returns Session::Query's rows.
  GraphEngine engine(db.graph());
  for (const char* text : {"x1, x2 <- (x1, owns/isLocatedIn, x2)",
                           "x1, x2 <- (x1, isMarriedTo+, x2)",
                           "x1, x2 <- (x1, owns/isLocatedIn+, x2)"}) {
    SCOPED_TRACE(text);
    auto relational = session.Query(text);
    ASSERT_TRUE(relational.ok()) << relational.status().ToString();
    auto query = ParseUcqt(text);
    ASSERT_TRUE(query.ok());
    auto walked = engine.Run(*query);
    ASSERT_TRUE(walked.ok()) << walked.status().ToString();
    auto rows = relational->SortedRows();
    EXPECT_EQ(walked->rows, rows);
    // Every query reaches a pending row.
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                            [&](const std::vector<NodeId>& row) {
                              return row[0] == person || row[1] == person;
                            }));
  }

  // The consistency checker sees the new nodes: a conforming write
  // keeps the graph consistent, a node with an undeclared label is
  // reported.
  EXPECT_TRUE(CheckConsistency(db.graph(), db.schema()).consistent());
  db.AddNode("STRANGER");
  ConsistencyReport report = CheckConsistency(db.graph(), db.schema());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind,
            ConsistencyViolation::Kind::kUnknownNodeLabel);
  EXPECT_GT(db.delta_stats().pending_nodes, 0u);
}

TEST(ApiTest, DatasetSwapInvalidatesCacheAndHandles) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  Session session(db);
  auto prepared = session.Prepare("x1, x2 <- (x1, owns/isLocatedIn, x2)");
  ASSERT_TRUE(prepared.ok());

  db.Use(LdbcSchema(), GenerateLdbc({.persons = 20}));
  EXPECT_EQ(db.plan_cache_stats().entries, 0u);
  auto stale = (*prepared)->Execute(session);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);

  auto fresh = session.Prepare("x1, x2 <- (x1, knows/workAt, x2)");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE((*fresh)->Execute(session).ok());
}

TEST(ApiTest, StatisticsRefreshKeepsCacheAndHandles) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";
  auto prepared = session.Prepare(text);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 1u);

  db.RefreshStatistics();
  // The data did not change and neither generation moved: outstanding
  // handles stay executable AND cached entries keep serving — a refresh
  // only re-collects the statistics behind the next snapshot. Estimates
  // recompute from the same graph, so the cached plans stay costed
  // correctly.
  EXPECT_EQ(db.plan_cache_stats().entries, 1u);
  EXPECT_TRUE((*prepared)->Execute(session).ok());
  bool hit = false;
  auto again = db.Prepare(text, session.options(), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(prepared->get(), again->get());
}

TEST(ApiTest, ErrorTaxonomyDistinguishesStages) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  Session session(db);

  auto parse_error = session.Prepare("x1 <- (");
  ASSERT_FALSE(parse_error.ok());
  EXPECT_EQ(ClassifyError(parse_error.status()), QueryStage::kParse);

  auto rewrite_error =
      session.Prepare("x1, x2 <- (x1, noSuchEdgeLabel, x2)");
  ASSERT_FALSE(rewrite_error.ok());
  EXPECT_EQ(ClassifyError(rewrite_error.status()), QueryStage::kRewrite);

  // A head variable unbound in the body parses and rewrites but cannot
  // be translated to a plan.
  ExecOptions no_rewrite;
  no_rewrite.apply_schema_rewrite = false;
  auto plan_error =
      db.Prepare("x1, x2 <- (x1, owns, x1)", no_rewrite);
  ASSERT_FALSE(plan_error.ok());
  EXPECT_EQ(ClassifyError(plan_error.status()), QueryStage::kPlan);

  Database big(YagoSchema(), GenerateYago({.persons = 800}));
  Session hurried(big, [] {
    ExecOptions options;
    options.timeout_ms = 1;
    return options;
  }());
  auto prepared =
      hurried.Prepare("x1, x2 <- (x1, (isMarriedTo | hasChild)+, x2)");
  ASSERT_TRUE(prepared.ok());
  auto exec_error = (*prepared)->Execute(hurried);
  ASSERT_FALSE(exec_error.ok());
  EXPECT_EQ(ClassifyError(exec_error.status()), QueryStage::kExecute);
  EXPECT_EQ(exec_error.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ApiTest, SessionsAreScopedToTheirDatabase) {
  Database a(YagoSchema(), GenerateYago({.persons = 40}));
  Database b(YagoSchema(), GenerateYago({.persons = 40}));
  Session session_b(b);
  auto prepared = a.Prepare("x1, x2 <- (x1, owns/isLocatedIn, x2)");
  ASSERT_TRUE(prepared.ok());
  auto result = (*prepared)->Execute(session_b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(ClassifyError(result.status()), QueryStage::kExecute);
}

TEST(ApiTest, ExecOptionsExplicitSettersBeatEnvironment) {
  // The environment's dop must differ from the core-aware default, or a
  // default that wrongly read GQOPT_DOP would go unseen.
  const int env_dop = DefaultDop() == 2 ? 3 : 2;
  const std::string env_dop_text = std::to_string(env_dop);
  ScopedEnv timeout("GQOPT_TIMEOUT_MS", "123");
  ScopedEnv reps("GQOPT_REPS", "7");
  ScopedEnv dop("GQOPT_DOP", env_dop_text.c_str());
  ScopedEnv planner("GQOPT_PLANNER", "greedy");
  ScopedEnv cache("GQOPT_PLAN_CACHE", "0");

  // Defaults never read the environment.
  ExecOptions defaults;
  EXPECT_EQ(defaults.timeout_ms, 2000);
  EXPECT_EQ(defaults.dop, DefaultDop());
  EXPECT_EQ(defaults.planner, PlannerKind::kDp);
  EXPECT_TRUE(defaults.use_plan_cache);

  // FromEnv overlays the environment...
  ExecOptions from_env = ExecOptions::FromEnv();
  EXPECT_EQ(from_env.timeout_ms, 123);
  EXPECT_EQ(from_env.repetitions, 7);
  EXPECT_EQ(from_env.dop, env_dop);
  EXPECT_EQ(from_env.planner, PlannerKind::kGreedy);
  EXPECT_FALSE(from_env.use_plan_cache);

  // ...and explicit assignment afterwards always wins.
  from_env.timeout_ms = 456;
  from_env.planner = PlannerKind::kDp;
  EXPECT_EQ(from_env.timeout_ms, 456);
  EXPECT_EQ(from_env.planner, PlannerKind::kDp);
}

TEST(ApiTest, UnsatisfiableQueryExecutesToEmptyResult) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  Session session(db);
  // livesIn targets CITY, owns sources PERSON: the composition is empty
  // on every schema-conforming database.
  auto prepared = session.Prepare("x1, x2 <- (x1, livesIn/owns, x2)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE((*prepared)->rewrite().unsatisfiable);
  auto result = (*prepared)->Execute(session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows(), 0u);
}

TEST(ApiTest, SessionQueryReportsCacheHits) {
  Database db(YagoSchema(), GenerateYago({.persons = 40}));
  db.set_plan_cache_enabled(true);
  Session session(db);
  const std::string text = "x1, x2 <- (x1, owns/isLocatedIn, x2)";
  auto cold = session.Query(text);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->plan_cache_hit);
  auto warm = session.Query(text);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(warm->SortedRows(), cold->SortedRows());
}

// The acceptance sweep: cached execution is result-identical to cold
// execution on every LDBC/YAGO workload query.
class CachedVsColdWorkloadTest : public ::testing::Test {
 protected:
  void CheckWorkload(const std::vector<WorkloadQuery>& workload,
                     const GraphSchema& schema, PropertyGraph graph) {
    Database db(schema, std::move(graph));
    db.set_plan_cache_enabled(true);
    ExecOptions options = ExecOptions::FromEnv();
    options.timeout_ms = 0;  // correctness sweep, no deadline
    options.use_plan_cache = true;
    Session session(db, options);
    for (const WorkloadQuery& wq : workload) {
      ExecOptions cold_options = options;
      cold_options.use_plan_cache = false;
      Session cold_session(db, cold_options);
      auto cold = cold_session.Query(wq.text);
      ASSERT_TRUE(cold.ok()) << wq.id << ": " << cold.status().ToString();

      // Warm the cache, then serve from it.
      auto warm_miss = session.Query(wq.text);
      ASSERT_TRUE(warm_miss.ok()) << wq.id;
      auto warm_hit = session.Query(wq.text);
      ASSERT_TRUE(warm_hit.ok()) << wq.id;
      EXPECT_TRUE(warm_hit->plan_cache_hit) << wq.id;

      EXPECT_EQ(warm_miss->SortedRows(), cold->SortedRows()) << wq.id;
      EXPECT_EQ(warm_hit->SortedRows(), cold->SortedRows()) << wq.id;
    }
  }
};

TEST_F(CachedVsColdWorkloadTest, Yago) {
  CheckWorkload(YagoWorkload(), YagoSchema(),
                GenerateYago({.persons = 60, .seed = 5}));
}

TEST_F(CachedVsColdWorkloadTest, Ldbc) {
  CheckWorkload(LdbcWorkload(), LdbcSchema(),
                GenerateLdbc({.persons = 30, .seed = 11}));
}

}  // namespace
}  // namespace gqopt
