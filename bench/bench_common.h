// Shared plumbing for the experiment binaries: workload preparation
// (parse + schema rewrite) and the LDBC measurement matrix reused by the
// Tab 5 / Tab 7 / Tab 8 / Fig 13 reproductions. Measurements go through
// the api::Database facade; options live in api::ExecOptions.

#ifndef GQOPT_BENCH_BENCH_COMMON_H_
#define GQOPT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"
#include "benchsup/harness.h"
#include "datasets/ldbc.h"
#include "datasets/workloads.h"
#include "datasets/yago.h"
#include "query/query_parser.h"

namespace gqopt {
namespace bench {

/// A workload query with its baseline and schema-enriched forms.
struct PreparedQuery {
  std::string id;
  bool recursive = false;
  Ucqt baseline;
  Ucqt schema;       // == baseline when the rewrite reverted
  bool reverted = false;
  RewriteStats stats;
};

/// The paper's annotated rewrite (Example 13), which the experiment
/// binaries reproduce; the facade serves the engine form (docs/API.md).
inline RewriteOptions PaperForm() {
  RewriteOptions options;
  options.enable_annotations = true;
  return options;
}

/// Parses and rewrites every workload query, in the paper form unless
/// `options` says otherwise; aborts on malformed input (the workload is
/// ours, so failures are programming errors).
inline std::vector<PreparedQuery> PrepareWorkload(
    const std::vector<WorkloadQuery>& workload, const GraphSchema& schema,
    const RewriteOptions& options = PaperForm()) {
  std::vector<PreparedQuery> out;
  for (const WorkloadQuery& wq : workload) {
    auto parsed = ParseWorkloadQuery(wq);
    if (!parsed.ok()) {
      std::fprintf(stderr, "workload %s does not parse: %s\n",
                   wq.id.c_str(), parsed.status().ToString().c_str());
      std::exit(1);
    }
    auto rewritten = PrepareSchemaQuery(*parsed, schema, options);
    if (!rewritten.ok()) {
      std::fprintf(stderr, "workload %s does not rewrite: %s\n",
                   wq.id.c_str(), rewritten.status().ToString().c_str());
      std::exit(1);
    }
    PreparedQuery prepared;
    prepared.id = wq.id;
    prepared.recursive = wq.recursive;
    prepared.baseline = *parsed;
    prepared.schema = rewritten->reverted ? *parsed : rewritten->query;
    prepared.reverted = rewritten->reverted;
    prepared.stats = rewritten->stats;
    out.push_back(std::move(prepared));
  }
  return out;
}

/// One cell of the LDBC measurement matrix.
struct MatrixCell {
  std::string sf;      // scale factor name ("0.1" .. "30")
  std::string query;   // query id
  bool recursive = false;
  RunMeasurement baseline;
  RunMeasurement schema;
};

/// Number of scale factors to run: all six, unless GQOPT_SF_CAP trims.
inline size_t ScaleFactorCount() {
  size_t count = LdbcScaleFactors().size();
  if (const char* cap = std::getenv("GQOPT_SF_CAP")) {
    size_t parsed = static_cast<size_t>(std::strtoul(cap, nullptr, 10));
    if (parsed >= 1 && parsed < count) count = parsed;
  }
  return count;
}

/// Runs the full LDBC matrix (queries x scale factors x {baseline,
/// schema}) on the relational engine; prints progress to stderr.
inline std::vector<MatrixCell> RunLdbcMatrix(
    const api::ExecOptions& options) {
  std::vector<MatrixCell> cells;
  GraphSchema schema = LdbcSchema();
  std::vector<PreparedQuery> queries = PrepareWorkload(LdbcWorkload(),
                                                       schema);
  size_t sf_count = ScaleFactorCount();
  for (size_t s = 0; s < sf_count; ++s) {
    const ScaleFactor& sf = LdbcScaleFactors()[s];
    LdbcConfig config;
    config.persons = sf.persons;
    api::Database db(schema, GenerateLdbc(config));
    std::fprintf(stderr, "# SF %s: %zu nodes, %zu edges\n", sf.name,
                 db.graph().num_nodes(), db.graph().num_edges());
    for (const PreparedQuery& q : queries) {
      MatrixCell cell;
      cell.sf = sf.name;
      cell.query = q.id;
      cell.recursive = q.recursive;
      cell.baseline = MeasureRelational(db, q.baseline, options);
      cell.schema = q.reverted
                        ? cell.baseline  // identical plan, one measurement
                        : MeasureRelational(db, q.schema, options);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// If GQOPT_JSON_OUT is set, writes the matrix cells there as one JSON
/// object keyed "SF/query/{baseline,schema}". Returns true when nothing
/// needed writing or the write succeeded.
inline bool MaybeWriteMatrixJson(const std::vector<MatrixCell>& cells) {
  const char* path = std::getenv("GQOPT_JSON_OUT");
  if (path == nullptr) return true;
  std::vector<std::pair<std::string, std::string>> members;
  members.reserve(cells.size() * 2);
  for (const MatrixCell& cell : cells) {
    std::string prefix = cell.sf + "/" + cell.query + "/";
    members.emplace_back(prefix + "baseline",
                         MeasurementJson(cell.baseline));
    members.emplace_back(prefix + "schema", MeasurementJson(cell.schema));
  }
  bool ok = WriteJsonObjectFile(path, members);
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "# wrote %s\n", path);
  }
  return ok;
}

/// Env-tuned harness defaults for the heavyweight matrix benches.
inline api::ExecOptions MatrixOptions() {
  api::ExecOptions options = api::ExecOptions::FromEnv();
  if (std::getenv("GQOPT_REPS") == nullptr) options.repetitions = 1;
  if (std::getenv("GQOPT_TIMEOUT_MS") == nullptr) options.timeout_ms = 1500;
  // Paper profile: the PostgreSQL backend evaluates recursive CTEs without
  // pushing outer bindings into the recursion. The µ-RA-seeded profile is
  // measured separately by bench_ablation.
  options.enable_fixpoint_seeding = false;
  return options;
}

}  // namespace bench
}  // namespace gqopt

#endif  // GQOPT_BENCH_BENCH_COMMON_H_
