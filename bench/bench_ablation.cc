// Ablation study (DESIGN.md): isolates the two levers of the rewriting —
// transitive-closure elimination and node-label annotations — on the
// recursive YAGO and LDBC queries, against the common baseline. "Full" is
// the paper's annotated form; "NoAnnotations" is the engine form the
// facade serves, and "Engine+muRA" runs it under the facade's µ-RA
// profile beside "Full+muRA".

#include <cstdio>

#include "bench_common.h"

namespace {

using gqopt::GraphSchema;
using gqopt::PropertyGraph;
using gqopt::RewriteOptions;
using gqopt::api::ExecOptions;
using gqopt::bench::PreparedQuery;
using gqopt::bench::PrepareWorkload;

void RunAblation(const char* title,
                 const std::vector<gqopt::WorkloadQuery>& workload,
                 const GraphSchema& schema, PropertyGraph graph,
                 const ExecOptions& options) {
  gqopt::api::Database db(schema, std::move(graph));

  RewriteOptions full = gqopt::bench::PaperForm();
  RewriteOptions no_tc = full;
  no_tc.enable_tc_elimination = false;
  RewriteOptions engine;  // the default: no inferred label atoms

  std::vector<PreparedQuery> with_full =
      PrepareWorkload(workload, schema, full);
  std::vector<PreparedQuery> with_no_tc =
      PrepareWorkload(workload, schema, no_tc);
  std::vector<PreparedQuery> with_engine =
      PrepareWorkload(workload, schema, engine);

  // Engine-side ablation: the µ-RA profile pushes joins into fixpoints
  // (seeded semi-naive recursion), which a SQL backend cannot do.
  ExecOptions mu_ra = options;
  mu_ra.enable_fixpoint_seeding = true;

  std::printf("== Ablation: %s (seconds; timeout = '-') ==\n", title);
  std::vector<std::string> header = {
      "Query",         "Baseline",      "Full",      "NoTcElim",
      "NoAnnotations", "Baseline+muRA", "Full+muRA", "Engine+muRA"};
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < with_full.size(); ++i) {
    if (!with_full[i].recursive) continue;  // the interesting lever is TC
    auto run = [&](const gqopt::Ucqt& query, const ExecOptions& opts) {
      gqopt::RunMeasurement m =
          gqopt::MeasureRelational(db, query, opts);
      return m.feasible ? gqopt::FormatSeconds(m.seconds)
                        : std::string("-");
    };
    rows.push_back({with_full[i].id,
                    run(with_full[i].baseline, options),
                    run(with_full[i].schema, options),
                    run(with_no_tc[i].schema, options),
                    run(with_engine[i].schema, options),
                    run(with_full[i].baseline, mu_ra),
                    run(with_full[i].schema, mu_ra),
                    run(with_engine[i].schema, mu_ra)});
  }
  gqopt::PrintTable(header, rows);
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace gqopt;
  using namespace gqopt::bench;

  api::ExecOptions options = MatrixOptions();

  {
    YagoConfig config;
    config.persons = 1200;
    RunAblation("YAGO recursive queries", YagoWorkload(), YagoSchema(),
                GenerateYago(config), options);
  }
  {
    LdbcConfig config;
    config.persons = LdbcScaleFactors()[2].persons;  // SF "1"
    RunAblation("LDBC recursive queries", LdbcWorkload(), LdbcSchema(),
                GenerateLdbc(config), options);
  }
  return 0;
}
