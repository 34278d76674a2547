// The benchmark runner: runs one workload through the public facade
// (api::Database / Session / PreparedQuery) on library defaults, checks
// every result, and writes the raw measurements as one JSON document for
// run.py, which turns them into the named metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --out PATH [--break-gate]
//
// A run is: one ingest of the generated graph's text (the served
// Database), an untimed warm-up that doubles as the correctness gate, the
// timed phase (a fixed op sequence derived from the seed and --seconds,
// with blocks of further ingests, and on the read-only workloads probe
// inserts, spread through it) and the after-run checks. With --trace 1
// every other pass of the timed phase records spans around the facade
// calls (the passes between them stay untraced, so the run measures its
// own tracing overhead), and a stage pass times parse, rewrite, translate
// and optimize one by one through api/stages.h.
//
// --break-gate drops one row from every result of the first query before
// it is checked, to show that a wrong result fails the run.
//
// Exit codes: 0 ok, 1 error, 2 refused, 3 a correctness check failed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/database.h"
#include "api/stages.h"
#include "runner/trace.h"
#include "runner/workloads.h"
#include "graph/graph_io.h"

extern char** environ;

namespace perfbench {
namespace {

namespace api = gqopt::api;

// Set-up samples and probe inserts are taken in this many blocks spread
// evenly through the timed phase, so they sample the machine across the
// whole run rather than during one second of it.
constexpr size_t kBlocks = 8;
constexpr int kStageRepeats = 3;
constexpr int kHitProbeRepeats = 50;
// Request ids of the phases outside the timed loop (timed-loop requests
// are numbered by op index from 0).
constexpr uint64_t kSetupRequest = 1ULL << 40;
constexpr uint64_t kWarmupRequest = 2ULL << 40;
constexpr uint64_t kStageRequest = 3ULL << 40;
constexpr uint64_t kProbeRequest = 4ULL << 40;
constexpr uint64_t kHitProbeRequest = 5ULL << 40;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out;
  bool break_gate = false;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

size_t CountPlanNodes(const gqopt::RaExprPtr& plan) {
  std::unordered_set<const gqopt::RaExpr*> seen;
  std::vector<const gqopt::RaExpr*> stack = {plan.get()};
  while (!stack.empty()) {
    const gqopt::RaExpr* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.insert(node).second) continue;
    stack.push_back(node->left().get());
    stack.push_back(node->right().get());
  }
  return seen.size();
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct ReadRecord {
  size_t query;
  double ms;
  bool traced;
  bool hit;
  size_t rows;
  uint64_t rows_processed;
  int64_t mem_peak_bytes;
};

struct WriteRecord {
  double ms;
  bool traced;
  bool probe;
};

struct PassRecord {
  bool traced;
  size_t ops;
  double seconds;
};

// One template's row in the paper view: medians over the stage pass.
struct QueryRow {
  std::string id;
  double baseline_ms = 0;
  double rewritten_ms = 0;
  size_t rows = 0;
  bool reverted = false;
  size_t closures_eliminated = 0;
  size_t plan_nodes = 0;
  double parse_us = 0;
  double rewrite_us = 0;
  double translate_us = 0;
  double optimize_us = 0;
};

// A read of a template whose rows the inserts can change, checked after
// the timed phase.
struct Observation {
  size_t query;
  size_t epoch;  // inserts applied before the read
  size_t rows;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args) {}

  int Run() {
    inputs_ = MakeInputs(spec_);
    db_ = Ingest(kSetupRequest);
    session_ = std::make_unique<api::Session>(*db_);
    api::ExecOptions baseline;
    baseline.apply_schema_rewrite = false;
    base_session_ = std::make_unique<api::Session>(*db_, baseline);
    ops_ = MakeOps(spec_, inputs_, db_->graph(), args_.seed, args_.seconds);
    if (spec_.writes_per_pass == 0) {
      SplitMix64 rng(args_.seed ^ 0x70726F6265ULL);
      probe_inserts_ = MakeInserts(
          inputs_, db_->graph(),
          static_cast<size_t>(spec_.setup_repeats * spec_.probe_inserts),
          &rng);
    }
    Warmup();
    TimedLoop();
    CheckAfterLoop();
    if (args_.trace) {
      PrepareHitProbe();
      StagePass();
    }
    peak_rss_kb_ = PeakRssKb();
    WriteOutput();
    for (const std::string& message : failures_) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", message.c_str());
    }
    return failures_.empty() ? 0 : 3;
  }

 private:
  Tracer* tracer() { return args_.trace ? &tracer_ : nullptr; }

  void Fail(std::string message) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(std::move(message));
  }

  // Ingest to ready: ReadGraphText of the generated graph's text, the
  // Database, its first snapshot and a read of every statistic. Each call
  // is one setup_s sample.
  std::unique_ptr<api::Database> Ingest(uint64_t request) {
    std::unique_ptr<api::Database> db;
    auto start = Clock::now();
    {
      ScopedSpan setup(tracer(), "setup", request);
      std::optional<gqopt::Result<gqopt::PropertyGraph>> graph;
      {
        ScopedSpan span(tracer(), "graph.read_text", request);
        graph.emplace(gqopt::ReadGraphText(inputs_.graph_text));
      }
      if (!graph->ok()) {
        throw std::runtime_error("ReadGraphText: " +
                                 graph->status().ToString());
      }
      {
        ScopedSpan span(tracer(), "api.database", request);
        db = std::make_unique<api::Database>(inputs_.schema,
                                             std::move(*graph).value());
      }
      api::SnapshotPtr snapshot;
      {
        ScopedSpan span(tracer(), "api.snapshot_build", request);
        snapshot = db->snapshot();
      }
      ScopedSpan span(tracer(), "stats.collect", request);
      const gqopt::GraphStatistics& stats = snapshot->catalog().stats();
      for (const std::string& label : snapshot->graph().edge_label_names()) {
        stats.EdgeFor(label);
      }
      stats.GlobalClosureBound();
    }
    setup_s_.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    return db;
  }

  // One block of set-up samples, each on a Database of its own that then
  // takes the read-only workloads' probe inserts (each retiring a live
  // snapshot, as the inserts of yago_rw do) so that every workload
  // reports what an insert costs on its graph. The served Database is
  // never touched.
  void SetupBlock(size_t block) {
    size_t reps = static_cast<size_t>(spec_.setup_repeats);
    size_t probes = static_cast<size_t>(spec_.probe_inserts);
    for (size_t rep = block * reps / kBlocks;
         rep < (block + 1) * reps / kBlocks; ++rep) {
      std::unique_ptr<api::Database> db = Ingest(kSetupRequest + 1 + rep);
      if (probes == 0) continue;
      size_t edges_before = db->graph().num_edges();
      for (size_t k = rep * probes; k < (rep + 1) * probes; ++k) {
        db->snapshot();
        const EdgeInsert& edge = probe_inserts_[k];
        auto start = Clock::now();
        std::optional<gqopt::Status> status;
        {
          ScopedSpan span(tracer(), "api.add_edge", kProbeRequest + k);
          status.emplace(
              db->AddEdge(edge.source, inputs_.insert_label, edge.target));
        }
        writes_.push_back({Ms(Clock::now() - start), args_.trace, true});
        ++attempted_;
        if (!status->ok()) Fail("probe insert: " + status->ToString());
      }
      if (db->MaterializedGraph()->num_edges() != edges_before + probes) {
        Fail("probe inserts: edge count did not grow by " +
             std::to_string(probes));
      }
    }
  }

  // Session::Query untraced; traced, the same work as Prepare + Execute
  // with a span around each facade call.
  gqopt::Result<api::QueryResult> Read(const std::string& text,
                                       uint64_t request, Tracer* tracer,
                                       bool* hit) {
    *hit = false;
    bool rebuild = snapshot_retired_;
    snapshot_retired_ = false;
    if (tracer == nullptr) {
      auto result = session_->Query(text);
      if (result.ok()) *hit = result->plan_cache_hit;
      return result;
    }
    ScopedSpan span(tracer, "request", request);
    if (rebuild) {
      ScopedSpan build(tracer, "api.snapshot_build", request);
      db_->snapshot();
    }
    std::optional<gqopt::Result<api::PreparedQueryPtr>> prepared;
    {
      ScopedSpan prepare(tracer, "api.prepare", request);
      prepared.emplace(session_->Prepare(text, hit));
      prepare.Rename(*hit ? "api.prepare_hit" : "api.prepare_miss");
    }
    if (!prepared->ok()) return prepared->status();
    ScopedSpan execute(tracer, "ra.execute", request);
    return prepared->value()->Execute(*session_);
  }

  // The rows a check sees: --break-gate drops one from the first query.
  size_t ObservedRows(size_t query, const api::QueryResult& result) const {
    size_t rows = result.rows();
    return args_.break_gate && query == 0 && rows > 0 ? rows - 1 : rows;
  }

  // Sorted rows of the default (rewritten) path against the baseline plan
  // (apply_schema_rewrite = false): the paper's soundness claim.
  void GateQuery(size_t q, uint64_t request, std::vector<size_t>* counts) {
    const gqopt::WorkloadQuery& tq = inputs_.templates[q];
    bool hit = false;
    attempted_ += 2;
    auto rewritten = Read(tq.text, request, tracer(), &hit);
    auto baseline = base_session_->Query(tq.text);
    if (!rewritten.ok() || !baseline.ok()) {
      Fail("gate " + tq.id + ": " +
           (rewritten.ok() ? baseline.status() : rewritten.status())
               .ToString());
      return;
    }
    auto rows = rewritten->SortedRows();
    if (args_.break_gate && q == 0 && !rows.empty()) rows.pop_back();
    if (rows != baseline->SortedRows()) {
      Fail("gate " + tq.id + ": rewritten rows differ from the baseline plan");
    }
    if (rewritten->rows() != baseline->rows()) {
      Fail("gate " + tq.id + ": row counts differ");
    }
    (*counts)[q] = baseline->rows();
  }

  void Warmup() {
    size_t n = inputs_.templates.size();
    expected_.assign(n, 0);
    for (size_t q = 0; q < n; ++q) {
      GateQuery(q, kWarmupRequest + q, &expected_);
    }
    // A second untimed pass over the default path: every lazy CSR,
    // statistic and plan-cache entry the timed phase can use exists.
    for (size_t q = 0; q < n; ++q) {
      auto result = session_->Query(inputs_.templates[q].text);
      ++attempted_;
      if (!result.ok()) {
        Fail("warm-up " + inputs_.templates[q].id + ": " +
             result.status().ToString());
      }
    }
  }

  void TimedLoop() {
    api::PlanCacheStats before = db_->plan_cache_stats();
    size_t epoch = 0;
    size_t passes = ops_.empty() ? 0 : ops_.back().pass + 1;
    size_t block = 0;
    for (size_t i = 0; i < ops_.size();) {
      size_t pass = ops_[i].pass;
      for (; block < kBlocks && block * passes / kBlocks <= pass; ++block) {
        SetupBlock(block);
      }
      bool traced = args_.trace && pass % 2 == 1;
      Tracer* tracer = traced ? &tracer_ : nullptr;
      auto pass_start = Clock::now();
      size_t pass_ops = 0;
      for (; i < ops_.size() && ops_[i].pass == pass; ++i, ++pass_ops) {
        const Op& op = ops_[i];
        ++attempted_;
        if (op.write) {
          auto start = Clock::now();
          std::optional<gqopt::Status> status;
          {
            ScopedSpan span(tracer, "api.add_edge", i);
            status.emplace(db_->AddEdge(op.edge.source, inputs_.insert_label,
                                        op.edge.target));
          }
          writes_.push_back({Ms(Clock::now() - start), traced, false});
          if (!status->ok()) Fail("insert: " + status->ToString());
          ++epoch;
          snapshot_retired_ = true;
          continue;
        }
        bool hit = false;
        auto start = Clock::now();
        auto result = Read(op.text, i, tracer, &hit);
        double ms = Ms(Clock::now() - start);
        if (!result.ok()) {
          Fail("read " + inputs_.templates[op.query].id + ": " +
               result.status().ToString());
          continue;
        }
        size_t rows = ObservedRows(op.query, *result);
        reads_.push_back({op.query, ms, traced, hit, rows,
                          result->rows_processed, result->mem_peak_bytes});
        if (spec_.writes_per_pass > 0 &&
            ReadsInsertLabel(inputs_.templates[op.query], inputs_)) {
          observations_.push_back({op.query, epoch, rows});
        } else if (rows != expected_[op.query]) {
          Fail("read " + inputs_.templates[op.query].id + ": " +
               std::to_string(rows) + " rows, expected " +
               std::to_string(expected_[op.query]));
        }
      }
      passes_.push_back(
          {traced, pass_ops,
           std::chrono::duration<double>(Clock::now() - pass_start).count()});
    }
    api::PlanCacheStats after = db_->plan_cache_stats();
    cache_hits_ = after.hits - before.hits;
    cache_misses_ = after.misses - before.misses;
    cache_evictions_ = after.evictions - before.evictions;
    final_epoch_ = epoch;
  }

  // With inserts: every template against the baseline plan over the final
  // data, then the reads whose rows the inserts could change. Inserts only
  // add edges and the queries are monotone, so such a read's rows lie
  // between its warm-up and final counts, never shrink from one read to
  // the next, stay put while no insert lands, and equal the final count
  // after the last insert.
  void CheckAfterLoop() {
    if (spec_.writes_per_pass == 0) return;
    size_t n = inputs_.templates.size();
    std::vector<size_t> final_counts(n, 0);
    for (size_t q = 0; q < n; ++q) {
      GateQuery(q, kWarmupRequest + n + q, &final_counts);
    }
    std::vector<std::optional<Observation>> last(n);
    for (const Observation& o : observations_) {
      const std::string& id = inputs_.templates[o.query].id;
      const std::optional<Observation>& prev = last[o.query];
      if (o.rows < expected_[o.query] || o.rows > final_counts[o.query]) {
        Fail("read " + id + ": " + std::to_string(o.rows) +
             " rows, outside [" + std::to_string(expected_[o.query]) + ", " +
             std::to_string(final_counts[o.query]) + "]");
      } else if (prev && o.rows < prev->rows) {
        Fail("read " + id + ": rows shrank after an insert");
      } else if (prev && o.epoch == prev->epoch && o.rows != prev->rows) {
        Fail("read " + id + ": rows changed without an insert");
      } else if (o.epoch == final_epoch_ && o.rows != final_counts[o.query]) {
        Fail("read " + id + ": rows after the last insert differ from the "
             "final count");
      }
      last[o.query] = o;
    }
  }

  // Timed prepare-cache hits for a workload whose traced passes saw none.
  void PrepareHitProbe() {
    bool any_hit = false;
    for (const ReadRecord& r : reads_) any_hit |= r.traced && r.hit;
    // A pass always ends with a read, so the last op is the most recently
    // cached text.
    if (any_hit || ops_.empty()) return;
    const std::string& text = ops_.back().text;
    for (int k = 0; k < kHitProbeRepeats; ++k) {
      bool hit = false;
      ScopedSpan prepare(&tracer_, "api.prepare", kHitProbeRequest + k);
      auto prepared = session_->Prepare(text, &hit);
      prepare.Rename(hit ? "api.prepare_hit" : "api.prepare_miss");
    }
  }

  // The paper view: each template's stages called one by one, and its
  // baseline and rewritten plans executed, kStageRepeats times.
  void StagePass() {
    api::SnapshotPtr snapshot = db_->snapshot();
    for (size_t q = 0; q < inputs_.templates.size(); ++q) {
      const gqopt::WorkloadQuery& tq = inputs_.templates[q];
      std::vector<double> parse, rewrite, translate, optimize, base, rewr;
      QueryRow row;
      row.id = tq.id;
      for (int rep = 0; rep < kStageRepeats; ++rep) {
        uint64_t request =
            kStageRequest + q * kStageRepeats + static_cast<uint64_t>(rep);
        std::string text =
            spec_.fresh_texts ? RenameVariables(tq.text, request) : tq.text;
        ScopedSpan stage(&tracer_, "stage", request);
        auto timed = [&](const char* name, std::vector<double>* us,
                         const std::function<void()>& call) {
          auto start = Clock::now();
          {
            ScopedSpan span(&tracer_, name, request);
            call();
          }
          us->push_back(Us(Clock::now() - start));
        };
        std::optional<gqopt::Result<gqopt::Ucqt>> parsed;
        timed("query.parse", &parse,
              [&] { parsed.emplace(gqopt::ParseUcqt(text)); });
        if (!parsed->ok()) {
          Fail("stage " + tq.id + ": " + parsed->status().ToString());
          break;
        }
        std::optional<gqopt::Result<gqopt::RewriteResult>> rewritten;
        timed("core.rewrite", &rewrite, [&] {
          rewritten.emplace(gqopt::RewriteQuery(**parsed, snapshot->schema()));
        });
        if (!rewritten->ok()) {
          Fail("stage " + tq.id + ": " + rewritten->status().ToString());
          break;
        }
        const gqopt::RewriteResult& rr = **rewritten;
        std::optional<gqopt::Result<gqopt::RaExprPtr>> plan;
        timed("ra.translate", &translate, [&] {
          plan.emplace(gqopt::UcqtToRa(rr.reverted ? **parsed : rr.query));
        });
        if (!plan->ok()) {
          Fail("stage " + tq.id + ": " + plan->status().ToString());
          break;
        }
        gqopt::RaExprPtr optimized;
        timed("ra.optimize", &optimize, [&] {
          optimized = gqopt::OptimizePlan(
              **plan, snapshot->catalog(),
              session_->options().ToOptimizerOptions());
        });
        row.reverted = rr.reverted;
        row.closures_eliminated = rr.stats.eliminated_closures();
        row.plan_nodes = CountPlanNodes(optimized);
        std::optional<gqopt::Result<api::QueryResult>> r_rewr, r_base;
        auto p_rewr = session_->Prepare(text);
        auto p_base = base_session_->Prepare(text);
        if (!p_rewr.ok() || !p_base.ok()) {
          Fail("stage " + tq.id + ": prepare failed");
          break;
        }
        // Alternate which plan runs first, so neither always finds the
        // caches the other warmed.
        auto run_rewritten = [&] {
          timed("ra.execute_rewritten", &rewr,
                [&] { r_rewr.emplace((*p_rewr)->Execute(*session_)); });
        };
        auto run_baseline = [&] {
          timed("ra.execute_baseline", &base,
                [&] { r_base.emplace((*p_base)->Execute(*base_session_)); });
        };
        if (rep % 2 == 0) {
          run_rewritten();
          run_baseline();
        } else {
          run_baseline();
          run_rewritten();
        }
        attempted_ += 2;
        if (!r_rewr->ok() || !r_base->ok()) {
          Fail("stage " + tq.id + ": execute failed");
          break;
        }
        row.rows = (*r_base)->rows();
        if ((*r_rewr)->rows() != row.rows) {
          Fail("stage " + tq.id + ": rewritten and baseline row counts differ");
        }
      }
      row.parse_us = Median(parse);
      row.rewrite_us = Median(rewrite);
      row.translate_us = Median(translate);
      row.optimize_us = Median(optimize);
      row.rewritten_ms = Median(rewr) / 1000;
      row.baseline_ms = Median(base) / 1000;
      queries_.push_back(row);
    }
  }

  void WriteOutput() {
    std::ostringstream o;
    api::ExecOptions defaults;
    o << "{\"workload\":" << JsonString(spec_.name)
      << ",\"seed\":" << args_.seed << ",\"seconds\":" << args_.seconds
      << ",\"trace\":" << (args_.trace ? 1 : 0)
      << ",\"provenance\":{\"hardware_concurrency\":"
      << std::thread::hardware_concurrency()
      << ",\"online_cpus\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"dop\":" << defaults.dop
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"persons\":" << spec_.persons
      << ",\"nodes\":" << db_->graph().num_nodes()
      << ",\"edges\":" << db_->graph().num_edges() << "}";
    o << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"failures\":[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      o << (i ? "," : "") << JsonString(failures_[i]);
    }
    o << "],\"setup_s\":[";
    for (size_t i = 0; i < setup_s_.size(); ++i) {
      o << (i ? "," : "") << JsonNumber(setup_s_[i]);
    }
    o << "],\"passes\":[";
    for (size_t i = 0; i < passes_.size(); ++i) {
      const PassRecord& p = passes_[i];
      o << (i ? "," : "") << "[" << p.traced << "," << p.ops << ","
        << JsonNumber(p.seconds) << "]";
    }
    o << "],\"reads\":[";
    for (size_t i = 0; i < reads_.size(); ++i) {
      const ReadRecord& r = reads_[i];
      o << (i ? "," : "") << "[" << JsonNumber(r.ms) << "," << r.traced << ","
        << r.hit << "," << r.rows << "," << r.rows_processed << ","
        << r.mem_peak_bytes << "," << r.query << "]";
    }
    o << "],\"writes\":[";
    for (size_t i = 0; i < writes_.size(); ++i) {
      const WriteRecord& w = writes_[i];
      o << (i ? "," : "") << "[" << JsonNumber(w.ms) << "," << w.traced << ","
        << w.probe << "]";
    }
    o << "],\"plan_cache\":{\"hits\":" << cache_hits_
      << ",\"misses\":" << cache_misses_
      << ",\"evictions\":" << cache_evictions_ << "}";
    o << ",\"peak_rss_kb\":" << peak_rss_kb_ << ",\"spans\":[";
    const std::vector<Span>& spans = tracer_.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      o << (i ? "," : "") << "[" << s.id << "," << s.parent << ","
        << s.request << "," << JsonString(s.name) << "," << s.start_ns << ","
        << s.end_ns << "]";
    }
    o << "],\"queries\":[";
    for (size_t i = 0; i < queries_.size(); ++i) {
      const QueryRow& q = queries_[i];
      o << (i ? "," : "") << "{\"id\":" << JsonString(q.id)
        << ",\"baseline_ms\":" << JsonNumber(q.baseline_ms)
        << ",\"rewritten_ms\":" << JsonNumber(q.rewritten_ms)
        << ",\"rows\":" << q.rows << ",\"reverted\":" << q.reverted
        << ",\"closures_eliminated\":" << q.closures_eliminated
        << ",\"plan_nodes\":" << q.plan_nodes
        << ",\"parse_us\":" << JsonNumber(q.parse_us)
        << ",\"rewrite_us\":" << JsonNumber(q.rewrite_us)
        << ",\"translate_us\":" << JsonNumber(q.translate_us)
        << ",\"optimize_us\":" << JsonNumber(q.optimize_us) << "}";
    }
    o << "]}\n";
    std::ofstream file(args_.out);
    file << o.str();
    if (!file) throw std::runtime_error("cannot write " + args_.out);
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  Inputs inputs_;
  std::vector<Op> ops_;
  std::unique_ptr<api::Database> db_;
  std::unique_ptr<api::Session> session_;
  std::unique_ptr<api::Session> base_session_;
  Tracer tracer_;
  bool snapshot_retired_ = false;

  std::vector<size_t> expected_;
  std::vector<Observation> observations_;
  size_t final_epoch_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;

  std::vector<double> setup_s_;
  std::vector<PassRecord> passes_;
  std::vector<ReadRecord> reads_;
  std::vector<WriteRecord> writes_;
  std::vector<EdgeInsert> probe_inserts_;
  std::vector<QueryRow> queries_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  int64_t peak_rss_kb_ = 0;
};

// Library defaults only: an ambient GQOPT_* knob would change what is
// measured.
bool RefuseEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GQOPT_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      return true;
    }
  }
  return false;
}

bool RefuseBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to run a sanitizer build\n");
  return true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  std::fprintf(stderr, "perfbench: refusing to run a sanitizer build\n");
  return true;
#endif
#endif
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run a build with assertions\n");
  return true;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 ||
      std::strlen(PERFBENCH_SANITIZE) != 0) {
    std::fprintf(stderr, "perfbench: refusing to run a %s build%s%s\n",
                 PERFBENCH_BUILD_TYPE,
                 std::strlen(PERFBENCH_SANITIZE) ? " sanitized with " : "",
                 PERFBENCH_SANITIZE);
    return true;
  }
  return false;
#endif
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--break-gate") {
      args->break_gate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--out") {
        args->out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && !args->out.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out PATH [--break-gate]\n");
    return 2;
  }
  if (RefuseEnvironment() || RefuseBuild()) return 2;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    Runner runner(*spec, args);
    return runner.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
