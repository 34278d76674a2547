// gqopt_cli — interactive shell around the api::Database facade: load or
// generate a schema + graph, then rewrite, explain, translate and run UCQT
// queries. Environment knobs (GQOPT_DOP, GQOPT_TIMEOUT_MS, GQOPT_REPS,
// GQOPT_PLAN_CACHE) are read exactly once, into the session's
// ExecOptions at startup; see src/api/options.h for the precedence rule.
//
//   $ gqopt_cli                 # starts with the YAGO demo dataset
//   gqopt> dataset ldbc 300
//   gqopt> rewrite x1, x2 <- (x1, likes/replyOf+/isLocatedIn+, x2)
//   gqopt> run     x1, x2 <- (x1, knows{1,2}/workAt, x2)
//   gqopt> explain x1, x2 <- (x1, owns/isLocatedIn+, x2)
//   gqopt> sql     x1, x2 <- (x1, knows+, x2)
//   gqopt> cypher  x1, x2 <- (x1, knows/workAt/isLocatedIn, x2)
//   gqopt> cache             # plan-cache counters (incl. LRU evictions)
//   gqopt> mutate edge 3 knows 17
//   gqopt> delta             # pending delta rows + write counters
//   gqopt> compact           # merge pending delta rows into the base
//   gqopt> stress 4 200 x1, x2 <- (x1, knows+, x2)
//   gqopt> faults plan=deadline:5
//   gqopt> schema            # print the active schema
//   gqopt> help

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/server.h"
#include "benchsup/harness.h"
#include "datasets/ldbc.h"
#include "datasets/yago.h"
#include "graph/consistency.h"
#include "graph/graph_io.h"
#include "schema/schema_parser.h"
#include "translate/cypher_emitter.h"
#include "translate/sql_emitter.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace gqopt {
namespace {

void PrintDataset(const api::Database& db) {
  std::printf("dataset: %zu nodes, %zu edges, %zu node labels, %zu edge "
              "relations\n",
              db.graph().num_nodes(), db.graph().num_edges(),
              db.graph().num_node_labels(), db.graph().num_edge_labels());
}

void PrintHelp() {
  std::puts(
      "commands:\n"
      "  dataset yago [persons]     generate the YAGO demo dataset\n"
      "  dataset ldbc [persons]     generate the LDBC-SNB demo dataset\n"
      "  load <schema> <graph>      load schema/graph text files\n"
      "  schema                     print the active schema\n"
      "  check                      check schema-database consistency\n"
      "  rewrite <query>            show the schema-enriched query: the\n"
      "                             served form, then the paper's\n"
      "                             annotated form\n"
      "  run <query>                rewrite + run on both engines\n"
      "  explain <query>            optimized relational plan (EXPLAIN)\n"
      "  analyze <query>            EXPLAIN + run, rows = est/actual\n"
      "  sql <query>                recursive SQL translation (paper form)\n"
      "  cypher <query>             Cypher translation (paper form)\n"
      "  cache                      plan-cache counters (hits/evictions);\n"
      "                             GQOPT_PLAN_CACHE=0 at startup makes\n"
      "                             this session bypass the cache\n"
      "  delta                      delta-store counters (pending rows,\n"
      "                             appends, compactions)\n"
      "  mutate node <label>        insert a node, print its id\n"
      "  mutate edge <src> <label> <tgt>\n"
      "                             insert an edge by endpoint ids\n"
      "  compact                    merge pending delta rows into the base\n"
      "  stress <clients> <reqs> [query]\n"
      "                             concurrent storm through the serving\n"
      "                             layer; reports throughput + shed/\n"
      "                             degraded/retry counts\n"
      "  faults [spec|off]          show, arm (GQOPT_FAULTS syntax) or\n"
      "                             disarm the fault injector\n"
      "  help | quit");
}

/// Prepares through the session. When the schema cannot rewrite the query
/// (e.g. it references undeclared edge labels), falls back to the
/// baseline plan so explain/translate keep working — the old hand-wired
/// behavior of each command, now in one place.
api::PreparedQueryPtr PrepareOrFallback(const api::Session& session,
                                        const std::string& text) {
  auto prepared = session.Prepare(text);
  if (prepared.ok()) return *prepared;
  if (api::ClassifyError(prepared.status()) == api::QueryStage::kRewrite) {
    api::ExecOptions baseline = session.options();
    baseline.apply_schema_rewrite = false;
    auto unrewritten = session.database().Prepare(text, baseline);
    if (unrewritten.ok()) return *unrewritten;
    std::printf("%s\n", unrewritten.status().ToString().c_str());
    return nullptr;
  }
  std::printf("%s\n", prepared.status().ToString().c_str());
  return nullptr;
}

/// The paper's annotated form of `query` (Example 13). The facade serves
/// the engine form, which plans no inferred label atoms; in a SQL or
/// Cypher backend a label filter can shrink a scan (Fig 15-17), so the
/// emitters and `rewrite`'s second line use this form.
Result<RewriteResult> PaperForm(const api::Session& session,
                                const Ucqt& query) {
  RewriteOptions paper;
  paper.enable_annotations = true;
  return PrepareSchemaQuery(query, session.database().schema(), paper);
}

void PrintRewrite(const char* title, const RewriteResult& rewritten) {
  if (rewritten.reverted) {
    std::printf("%s (reverted — schema adds nothing)\n", title);
  } else if (rewritten.unsatisfiable) {
    std::printf("%s (unsatisfiable under the schema)\n", title);
  } else {
    std::printf("%s %s\n", title, rewritten.query.ToString().c_str());
  }
}

void DoRewrite(const api::Session& session, const std::string& text,
               bool print_only) {
  auto prepared = session.Prepare(text);
  if (!prepared.ok()) {
    std::printf("%s\n", prepared.status().ToString().c_str());
    return;
  }
  const api::PreparedQuery& query = **prepared;
  const RewriteResult& rewritten = query.rewrite();
  std::printf("baseline:  %s\n", query.query().ToString().c_str());
  PrintRewrite("rewritten:", rewritten);
  for (const ClosureStats& c : rewritten.stats.closures) {
    std::printf("  closure %-24s %s\n", c.closure.c_str(),
                c.eliminated ? "eliminated" : "kept");
  }
  auto paper = PaperForm(session, query.query());
  if (paper.ok()) PrintRewrite("paper:    ", *paper);
  if (print_only) return;

  const api::Database& db = session.database();
  const api::ExecOptions& options = session.options();
  RunMeasurement base_rel = MeasureRelational(db, query.query(), options);
  RunMeasurement schema_rel =
      MeasureRelational(db, query.executable(), options);
  RunMeasurement base_graph = MeasureGraph(db, query.query(), options);
  auto render = [](const RunMeasurement& m) {
    if (m.feasible) {
      return FormatSeconds(m.seconds) + "s, " +
             std::to_string(m.result_rows) + " rows";
    }
    // A memory-budget breach is not a timeout: label it for what it is.
    bool resource = m.error.find("resource: ") != std::string::npos;
    return (resource ? "over budget (" : "timeout (") + m.error + ")";
  };
  std::printf("relational baseline: %s\n", render(base_rel).c_str());
  std::printf("relational schema:   %s\n", render(schema_rel).c_str());
  std::printf("graph engine:        %s\n", render(base_graph).c_str());
}

void DoExplain(const api::Session& session, const std::string& text,
               bool analyze) {
  api::PreparedQueryPtr prepared = PrepareOrFallback(session, text);
  if (prepared == nullptr) return;
  if (!analyze) {
    std::fputs(prepared->Explain().c_str(), stdout);
    return;
  }
  // EXPLAIN ANALYZE: run the plan, then print estimates next to the
  // recorded actual cardinalities ("rows = est/actual").
  auto rendered = prepared->ExplainAnalyze(session);
  if (!rendered.ok()) {
    std::printf("%s\n", rendered.status().ToString().c_str());
    return;
  }
  std::fputs(rendered->c_str(), stdout);
}

void DoTranslate(const api::Session& session, const std::string& text,
                 bool to_sql) {
  api::PreparedQueryPtr prepared = PrepareOrFallback(session, text);
  if (prepared == nullptr) return;
  // A query the schema cannot rewrite is emitted as written.
  auto paper = PaperForm(session, prepared->query());
  const Ucqt& to_emit = !paper.ok() || paper->reverted ? prepared->query()
                                                       : paper->query;
  auto emitted = to_sql ? EmitSql(to_emit) : EmitCypher(to_emit);
  if (!emitted.ok()) {
    std::printf("%s\n", emitted.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", emitted->c_str());
}

void DoCacheStats(const api::Session& session) {
  api::PlanCacheStats stats = session.database().plan_cache_stats();
  // ExecOptions::use_plan_cache is the cache's only switch.
  const char* use = session.options().use_plan_cache
                        ? "used by this session"
                        : "bypassed by this session";
  if (stats.capacity > 0) {
    std::printf("plan cache: %s, %zu entries (LRU capacity %zu)\n", use,
                stats.entries, stats.capacity);
  } else {
    std::printf("plan cache: %s, %zu entries (unbounded)\n", use,
                stats.entries);
  }
  if (stats.mem_capacity > 0) {
    std::printf("  bytes         %zu of %zu budget\n", stats.bytes,
                stats.mem_capacity);
  } else {
    std::printf("  bytes         %zu (no byte budget)\n", stats.bytes);
  }
  std::printf("  hits          %llu\n",
              static_cast<unsigned long long>(stats.hits));
  std::printf("  misses        %llu\n",
              static_cast<unsigned long long>(stats.misses));
  std::printf("  invalidations %llu\n",
              static_cast<unsigned long long>(stats.invalidations));
  std::printf("  evictions     %llu\n",
              static_cast<unsigned long long>(stats.evictions));
}

void DoDelta(const api::Database& db, const std::string& rest) {
  if (!rest.empty()) {
    std::puts("usage: delta");
    return;
  }
  inc::DeltaStats stats = db.delta_stats();
  std::printf("delta store: %zu pending rows (%zu nodes, %zu edges)\n",
              stats.pending_nodes + stats.pending_edges, stats.pending_nodes,
              stats.pending_edges);
  std::printf("  appended      %llu nodes, %llu edges\n",
              static_cast<unsigned long long>(stats.appended_nodes),
              static_cast<unsigned long long>(stats.appended_edges));
  std::printf("  duplicates    %llu dropped\n",
              static_cast<unsigned long long>(stats.dropped_duplicates));
  std::printf("  seals         %llu\n",
              static_cast<unsigned long long>(stats.seals));
  std::printf("  compactions   %llu (%llu rows merged, %llu failed)\n",
              static_cast<unsigned long long>(stats.compactions),
              static_cast<unsigned long long>(stats.compacted_rows),
              static_cast<unsigned long long>(stats.failed_compactions));
}

void DoMutate(api::Database& db, const std::string& rest) {
  auto parts = Split(rest, ' ');
  if (parts.size() == 2 && parts[0] == "node") {
    NodeId id = db.AddNode(parts[1]);
    std::printf("node %llu (%s)\n", static_cast<unsigned long long>(id),
                parts[1].c_str());
    return;
  }
  if (parts.size() == 4 && parts[0] == "edge") {
    char* end = nullptr;
    NodeId source = static_cast<NodeId>(std::strtoul(parts[1].c_str(), &end,
                                                     10));
    NodeId target =
        static_cast<NodeId>(std::strtoul(parts[3].c_str(), nullptr, 10));
    Status status = db.AddEdge(source, parts[2], target);
    if (!status.ok()) {
      std::printf("%s\n", status.ToString().c_str());
    } else {
      std::printf("edge %llu -%s-> %llu\n",
                  static_cast<unsigned long long>(source), parts[2].c_str(),
                  static_cast<unsigned long long>(target));
    }
    return;
  }
  std::puts("usage: mutate node <label> | mutate edge <src> <label> <tgt>");
}

// stress <clients> <requests> [query] — a concurrent storm through the
// serving layer: `clients` threads share `requests` QueryWithRetry calls
// against a Server over the live database, then the serving counters are
// reported. A cheap way to watch shedding and the degradation ladder
// engage interactively (combine with `faults`).
void DoStress(const api::Database& db, const api::ExecOptions& options,
              const std::string& rest) {
  auto parts = Split(rest, ' ');
  if (parts.size() < 2) {
    std::puts("usage: stress <clients> <requests> [query]");
    return;
  }
  size_t clients = std::strtoul(parts[0].c_str(), nullptr, 10);
  size_t requests = std::strtoul(parts[1].c_str(), nullptr, 10);
  if (clients == 0 || requests == 0) {
    std::puts("stress: clients and requests must be positive");
    return;
  }
  size_t space = rest.find(' ');
  space = rest.find(' ', space + 1);
  std::string query =
      space == std::string::npos
          ? std::string("x1, x2 <- (x1, owns/isLocatedIn+, x2)")
          : std::string(StripWhitespace(rest.substr(space)));

  api::ServerOptions server_options;
  server_options.workers = static_cast<int>(std::min<size_t>(clients, 4));
  api::Server server(db, server_options);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0};
  std::mutex error_mu;
  std::string first_error;
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      api::RetryPolicy policy;
      while (next.fetch_add(1) < requests) {
        auto response = server.QueryWithRetry(query, options, policy);
        if (response.result.ok()) {
          ok.fetch_add(1);
        } else {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) {
            first_error = response.result.status().ToString();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  api::ServerStats stats = server.stats();
  std::printf("%zu requests, %zu clients: %.2f queries/sec\n", requests,
              clients, seconds > 0 ? requests / seconds : 0.0);
  std::printf("  ok            %llu\n", static_cast<unsigned long long>(
                                            ok.load()));
  std::printf(
      "  shed          %llu (queue full %llu, deadline %llu, memory %llu)\n",
      static_cast<unsigned long long>(stats.shed_queue_full +
                                      stats.shed_deadline +
                                      stats.shed_memory),
      static_cast<unsigned long long>(stats.shed_queue_full),
      static_cast<unsigned long long>(stats.shed_deadline),
      static_cast<unsigned long long>(stats.shed_memory));
  std::printf("  degraded      %llu\n",
              static_cast<unsigned long long>(stats.degraded));
  std::printf("  retries       %llu\n",
              static_cast<unsigned long long>(stats.retries));
  std::printf("  failed        %llu\n",
              static_cast<unsigned long long>(stats.failed));
  if (!first_error.empty()) {
    std::printf("  first error   %s\n", first_error.c_str());
  }
}

void DoFaults(const std::string& rest) {
  FaultInjector& injector = FaultInjector::Global();
  if (rest.empty()) {
    std::printf("%s\n", injector.Describe().c_str());
    return;
  }
  if (rest == "off") {
    injector.DisarmAll();
    std::puts("faults disarmed");
    return;
  }
  if (!injector.ArmFromSpec(rest)) {
    std::puts(
        "malformed spec; expected point=kind[:every_n],... with points\n"
        "parse|rewrite|plan|execute|snapshot-build|catalog-build|\n"
        "stats-build|csr-build|mem|delta-merge and kinds\n"
        "deadline|alloc|invalidate");
    return;
  }
  std::printf("%s\n", injector.Describe().c_str());
}

}  // namespace
}  // namespace gqopt

int main() {
  using namespace gqopt;
  api::Database db(YagoSchema(), GenerateYago({.persons = 500, .seed = 42}));
  // Env knobs are read here, once; every command reuses these options.
  api::Session session(db, api::ExecOptions::FromEnv());
  PrintDataset(db);
  PrintHelp();

  std::string line;
  while (std::fputs("gqopt> ", stdout), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    size_t space = trimmed.find(' ');
    std::string command(trimmed.substr(0, space));
    std::string rest(space == std::string_view::npos
                         ? std::string_view{}
                         : StripWhitespace(trimmed.substr(space + 1)));

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "dataset") {
      auto parts = Split(rest, ' ');
      size_t persons = parts.size() > 1 && !parts[1].empty()
                           ? std::strtoul(parts[1].c_str(), nullptr, 10)
                           : 500;
      if (!parts.empty() && parts[0] == "ldbc") {
        db.Use(LdbcSchema(), GenerateLdbc({.persons = persons}));
      } else {
        db.Use(YagoSchema(), GenerateYago({.persons = persons}));
      }
      PrintDataset(db);
    } else if (command == "load") {
      auto parts = Split(rest, ' ');
      if (parts.size() != 2) {
        std::puts("usage: load <schema-file> <graph-file>");
        continue;
      }
      auto schema_text = ReadFile(parts[0]);
      auto graph_text = ReadFile(parts[1]);
      if (!schema_text.ok() || !graph_text.ok()) {
        std::puts("cannot read files");
        continue;
      }
      auto schema = ParseSchema(*schema_text);
      auto graph = ReadGraphText(*graph_text);
      if (!schema.ok() || !graph.ok()) {
        std::printf("parse error: %s %s\n",
                    schema.ok() ? "" : schema.status().ToString().c_str(),
                    graph.ok() ? "" : graph.status().ToString().c_str());
        continue;
      }
      db.Use(std::move(*schema), std::move(*graph));
      PrintDataset(db);
    } else if (command == "schema") {
      std::fputs(db.schema().ToString().c_str(), stdout);
    } else if (command == "check") {
      ConsistencyReport report = CheckConsistency(db.graph(), db.schema(), 5);
      if (report.consistent()) {
        std::puts("consistent with the schema");
      } else {
        for (const auto& violation : report.violations) {
          std::printf("violation: %s\n", violation.detail.c_str());
        }
      }
    } else if (command == "rewrite") {
      DoRewrite(session, rest, /*print_only=*/true);
    } else if (command == "run") {
      DoRewrite(session, rest, /*print_only=*/false);
    } else if (command == "explain") {
      DoExplain(session, rest, /*analyze=*/false);
    } else if (command == "analyze") {
      DoExplain(session, rest, /*analyze=*/true);
    } else if (command == "sql") {
      DoTranslate(session, rest, /*to_sql=*/true);
    } else if (command == "cypher") {
      DoTranslate(session, rest, /*to_sql=*/false);
    } else if (command == "cache") {
      DoCacheStats(session);
    } else if (command == "delta") {
      DoDelta(db, rest);
    } else if (command == "mutate") {
      DoMutate(db, rest);
    } else if (command == "compact") {
      auto status = db.Compact();
      if (status.ok()) {
        inc::DeltaStats stats = db.delta_stats();
        std::printf("compacted (%llu compactions, %llu rows merged total)\n",
                    static_cast<unsigned long long>(stats.compactions),
                    static_cast<unsigned long long>(stats.compacted_rows));
      } else {
        std::printf("%s\n", status.ToString().c_str());
      }
    } else if (command == "stress") {
      DoStress(db, session.options(), rest);
    } else if (command == "faults") {
      DoFaults(rest);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }
  return 0;
}
