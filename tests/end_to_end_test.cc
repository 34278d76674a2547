// Integration: the full experiment pipeline at miniature scale, driven
// through the api::Database facade — every workload query runs on both
// engines, baseline vs schema-enriched, and must produce identical result
// sets (the soundness/completeness claim on the real workloads rather
// than random ones).

#include <gtest/gtest.h>

#include "api/database.h"
#include "benchsup/harness.h"
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "eval/graph_engine.h"
#include "query/query_parser.h"

namespace gqopt {
namespace {

// The facade-driven relational run. Base options come from the
// environment (ExecOptions::FromEnv) so the tier-1 GQOPT_DOP and
// GQOPT_PLAN_CACHE re-runs reach this suite too.
std::vector<std::vector<NodeId>> RelationalRows(const api::Database& db,
                                                const Ucqt& query) {
  api::ExecOptions options = api::ExecOptions::FromEnv();
  options.apply_schema_rewrite = false;  // run the query verbatim
  options.timeout_ms = 0;                // no deadline in correctness tests
  auto prepared = db.Prepare(query, options);
  EXPECT_TRUE(prepared.ok()) << query.ToString() << ": "
                             << prepared.status().ToString();
  if (!prepared.ok()) return {};
  api::Session session(db, options);
  auto result = (*prepared)->Execute(session);
  EXPECT_TRUE(result.ok()) << query.ToString() << ": "
                           << result.status().ToString();
  if (!result.ok()) return {};
  return result->SortedRows();
}

class WorkloadEquivalenceTest : public ::testing::Test {
 protected:
  void CheckWorkload(const std::vector<WorkloadQuery>& workload,
                     const GraphSchema& schema, PropertyGraph graph) {
    api::Database db(schema, std::move(graph));
    GraphEngine engine(db.graph());
    for (const WorkloadQuery& wq : workload) {
      auto query = ParseWorkloadQuery(wq);
      ASSERT_TRUE(query.ok()) << wq.id;
      auto rewritten = PrepareSchemaQuery(*query, schema);
      ASSERT_TRUE(rewritten.ok()) << wq.id << ": "
                                  << rewritten.status().ToString();

      auto baseline_graph = engine.Run(*query);
      ASSERT_TRUE(baseline_graph.ok()) << wq.id;
      auto schema_graph = engine.Run(rewritten->query);
      ASSERT_TRUE(schema_graph.ok()) << wq.id;
      EXPECT_EQ(baseline_graph->rows, schema_graph->rows)
          << wq.id << " (graph engine): baseline vs schema";

      auto baseline_rel = RelationalRows(db, *query);
      EXPECT_EQ(baseline_rel, baseline_graph->rows)
          << wq.id << ": relational vs graph engine (baseline)";
      auto schema_rel = RelationalRows(db, rewritten->query);
      EXPECT_EQ(schema_rel, baseline_graph->rows)
          << wq.id << ": relational vs graph engine (schema)";
    }
  }
};

TEST_F(WorkloadEquivalenceTest, YagoWorkloadAllEnginesAgree) {
  YagoConfig config;
  config.persons = 120;
  config.seed = 3;
  CheckWorkload(YagoWorkload(), YagoSchema(), GenerateYago(config));
}

TEST_F(WorkloadEquivalenceTest, LdbcWorkloadAllEnginesAgree) {
  LdbcConfig config;
  config.persons = 40;
  config.seed = 9;
  CheckWorkload(LdbcWorkload(), LdbcSchema(), GenerateLdbc(config));
}

TEST(HarnessTest, MeasuresRelationalAndGraphRuns) {
  YagoConfig config;
  config.persons = 60;
  api::Database db(YagoSchema(), GenerateYago(config));
  auto query = ParseUcqt("x1, x2 <- (x1, owns/isLocatedIn, x2)");
  ASSERT_TRUE(query.ok());
  api::ExecOptions options;
  options.timeout_ms = 5000;
  options.repetitions = 2;
  RunMeasurement relational = MeasureRelational(db, *query, options);
  EXPECT_TRUE(relational.feasible) << relational.error;
  EXPECT_GT(relational.seconds, 0);
  RunMeasurement graph_run = MeasureGraph(db, *query, options);
  EXPECT_TRUE(graph_run.feasible) << graph_run.error;
  EXPECT_EQ(relational.result_rows, graph_run.result_rows);
}

TEST(HarnessTest, TimeoutMarksInfeasible) {
  // A heavier recursive query with an immediate timeout must be reported
  // infeasible, not crash — this is the Tab 5 bookkeeping.
  YagoConfig config;
  config.persons = 800;
  api::Database db(YagoSchema(), GenerateYago(config));
  auto query = ParseUcqt("x1, x2 <- (x1, (isMarriedTo | hasChild)+, x2)");
  ASSERT_TRUE(query.ok());
  api::ExecOptions options;
  options.timeout_ms = 1;
  options.repetitions = 1;
  RunMeasurement m = MeasureRelational(db, *query, options);
  EXPECT_FALSE(m.feasible);
  EXPECT_FALSE(m.error.empty());
}

TEST(HarnessTest, SchemaPreparationRoundTrip) {
  auto query = ParseUcqt(
      "x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)");
  ASSERT_TRUE(query.ok());
  auto prepared = PrepareSchemaQuery(*query, YagoSchema());
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->reverted);
}

TEST(HarnessTest, FromEnvDefaults) {
  api::ExecOptions options = api::ExecOptions::FromEnv();
  EXPECT_GT(options.timeout_ms, 0);
  EXPECT_GE(options.repetitions, 1);
}

}  // namespace
}  // namespace gqopt
