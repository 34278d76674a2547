// The library front door (docs/API.md): one stable facade owning the whole
// query lifecycle of the paper's pipeline,
//
//   text --parse--> Ucqt --schema rewrite--> Ucqt --UCQT2RRA--> RRA plan
//        --optimize--> annotated plan --execute--> QueryResult
//
// split across three handle types:
//   Database       schema + PropertyGraph + snapshot-swapped
//                  Catalog/statistics + the shape-keyed plan cache; the
//                  only mutation point.
//   Session        a caller's ExecOptions bundle (env knobs are read once,
//                  at session creation, never per command).
//   PreparedQuery  immutable product of Prepare(): parse + rewrite + plan
//                  ran exactly once; Execute() any number of times.
//
// Everything below src/api (core/rewriter.h, ra/ucqt_to_ra.h,
// ra/optimizer.h) is an implementation layer: code outside src/ goes
// through this facade (or api/stages.h for white-box tests and benches).
//
// Two generations stamp every publication (docs/ARCHITECTURE.md):
//   generation       (schema) — bumped by Use() only; outstanding handles
//                    and cached plans from older schema generations are
//                    dead.
//   data_generation  — bumped by AddNode/AddEdge and by compaction;
//                    cached plans and handles stay VALID across it
//                    (Execute re-resolves the snapshot, the plan-cache
//                    lookup re-plans only when an estimated
//                    cardinality drifted past kPlanDriftThreshold).

#ifndef GQOPT_API_DATABASE_H_
#define GQOPT_API_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/options.h"
#include "api/plan_cache.h"
#include "core/rewriter.h"
#include "graph/property_graph.h"
#include "inc/delta_store.h"
#include "query/ucqt.h"
#include "ra/catalog.h"
#include "ra/ra_expr.h"
#include "ra/table.h"
#include "schema/graph_schema.h"
#include "util/deadline.h"
#include "util/mem_tracker.h"
#include "util/status.h"

namespace gqopt {
namespace api {

class Database;
class Session;

/// Which pipeline stage a failed Status came from. Stages are encoded as
/// stable message prefixes ("parse: ", "rewrite: ", "plan: ",
/// "execute: ", "overloaded: ", "resource: ") so callers can branch on
/// the failure class without string-matching ad hoc. kOverloaded is
/// raised only by the serving layer's admission control
/// (src/api/server.h) — shed load, not a pipeline failure — and is the
/// retryable class. kResource is a memory-budget breach
/// (util/mem_tracker.h): the query as written does not fit its limit, so
/// retrying unchanged will fail again — not retryable.
enum class QueryStage : uint8_t {
  kParse,
  kRewrite,
  kPlan,
  kExecute,
  kOverloaded,
  kResource,
};

/// Classifies a non-OK Status returned by Prepare/Execute/Server::Query.
/// Statuses without a stage prefix (e.g. raised by lower layers directly)
/// classify as kExecute, the only stage that can surface them.
QueryStage ClassifyError(const Status& status);

/// Human-readable stage name ("parse", ..., "execute", "overloaded").
std::string_view QueryStageName(QueryStage stage);

/// \brief One immutable, generation-stamped publication of the database
/// state: the schema, the frozen base graph, the base catalog (edge
/// tables + statistics) and — when pending mutations exist — the sealed
/// delta with the overlay catalog that merges it into every read.
///
/// Snapshots are what reader threads actually query: the Database
/// publishes one through a guarded shared_ptr slot, mutations retire it and
/// the next reader builds a fresh one (copy-on-swap for the base, seal
/// reuse for the delta). Everything inside a published Snapshot is either
/// deeply immutable or synchronized lazy cache state (see
/// Catalog/GraphStatistics/PropertyGraph), so any number of threads can
/// execute against one concurrently. A reader holds exactly one seal (or
/// none) for its whole execution — it can never observe a partially
/// merged delta.
class Snapshot {
 public:
  Snapshot(uint64_t generation, uint64_t data_generation, GraphSchema schema,
           std::shared_ptr<const PropertyGraph> graph,
           std::shared_ptr<const Catalog> base_catalog,
           inc::SealedDeltaPtr delta);
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Schema generation this snapshot was built from.
  uint64_t generation() const { return generation_; }
  /// Data generation (delta appends + compactions) at build time.
  uint64_t data_generation() const { return data_generation_; }
  const GraphSchema& schema() const { return schema_; }
  /// The frozen base graph (pending delta rows are NOT in it — they are
  /// overlaid by catalog()).
  const PropertyGraph& graph() const { return *graph_; }
  /// The catalog queries run against: the overlay (base ∪ sealed delta)
  /// when pending mutations exist, the base catalog otherwise.
  const Catalog& catalog() const {
    return overlay_ != nullptr ? *overlay_ : *base_catalog_;
  }
  /// The sealed pending delta, or null when none existed at build time.
  const inc::SealedDeltaPtr& delta() const { return delta_; }

 private:
  uint64_t generation_;
  uint64_t data_generation_;
  GraphSchema schema_;
  std::shared_ptr<const PropertyGraph> graph_;
  std::shared_ptr<const Catalog> base_catalog_;
  inc::SealedDeltaPtr delta_;
  std::unique_ptr<const Catalog> overlay_;  // built iff delta non-empty
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// One execution's output: rows plus the counters and timing a serving
/// layer wants to log per request.
struct QueryResult {
  /// Result rows; columns are the query's head variables in order.
  Table table;
  /// Wall-clock seconds spent executing (planning excluded — it happened
  /// at Prepare time, possibly in another request entirely).
  double exec_seconds = 0;
  /// True when the plan came from the Database plan cache (set on results
  /// produced via Session::Query; Execute on an explicit handle leaves it
  /// false because the prepare step happened elsewhere).
  bool plan_cache_hit = false;
  /// Distinct plan operators evaluated (memoized duplicates count once).
  size_t plan_operators = 0;
  /// Total rows produced across all operators — a work proxy.
  uint64_t rows_processed = 0;
  /// Peak bytes charged against this execution's memory tracker (0 when
  /// the run was completely untracked).
  int64_t mem_peak_bytes = 0;

  size_t rows() const { return table.rows(); }
  /// Rows sorted lexicographically with duplicates dropped; the canonical
  /// form for result-identity comparisons.
  std::vector<std::vector<NodeId>> SortedRows() const;
};

/// \brief Immutable, shareable product of Database::Prepare.
///
/// Parse, typecheck, schema rewrite, UCQT→RA translation and optimization
/// ran exactly once; the handle can be executed any number of times and
/// from any number of threads (Execute creates per-call executor state
/// over the captured Snapshot). Handles pin the SCHEMA generation they
/// were prepared against: after Use() Execute refuses with an
/// "execute: stale" status and the caller re-prepares. Data mutations
/// (AddNode/AddEdge, compaction) do NOT stale a handle — Execute notices
/// the advanced data generation and re-resolves the current snapshot, so
/// the same plan serves the fresh data. An execution already in flight
/// when any mutation lands finishes correctly on the snapshot it
/// captured.
class PreparedQuery {
 public:
  /// The cache-key text this query was prepared from (normalized input
  /// text, or the canonical rendering when prepared from a Ucqt).
  const std::string& text() const { return text_; }
  /// The parsed query before schema enrichment.
  const Ucqt& query() const { return query_; }
  /// The schema rewrite outcome (reverted/unsatisfiable flags, closure
  /// stats). Trivially "reverted" when the rewrite was disabled.
  const RewriteResult& rewrite() const { return rewrite_; }
  /// The query the plan was built from: the enriched query, or the input
  /// when the rewrite reverted.
  const Ucqt& executable() const {
    return rewrite_.reverted ? query_ : rewrite_.query;
  }
  /// The optimized, strategy-annotated RRA plan.
  const RaExprPtr& plan() const { return plan_; }
  /// Output column names (the head variables, in order).
  const std::vector<std::string>& columns() const {
    return query_.head_vars;
  }
  /// Schema generation this plan was prepared against.
  uint64_t generation() const { return generation_; }
  /// Data generation at Prepare time (the snapshot the cost estimates
  /// came from; Execute may run against a newer one).
  uint64_t data_generation() const { return data_generation_; }
  /// Estimated execution footprint in bytes (EstimatePlanMemory over the
  /// plan at Prepare time). The serving layer's admission control
  /// compares this against the remaining server budget; it is an
  /// estimate, so enforcement still happens at execution time.
  int64_t estimated_memory_bytes() const { return estimated_memory_bytes_; }

  /// Renders the plan with estimated cost/rows (docs/EXPLAIN.md), or a
  /// one-line staleness notice when the database has changed since
  /// Prepare (the old plan must never be costed against the new data).
  std::string Explain() const;

  /// Runs the plan under the session's ExecOptions (fresh deadline per
  /// call) and renders it with "rows = est/actual" annotations, followed
  /// by a "(N result rows)" line.
  Result<std::string> ExplainAnalyze(const Session& session) const;

  /// Executes the plan under the session's ExecOptions. A fresh deadline
  /// starts at this call; `timeout_ms <= 0` runs without one.
  Result<QueryResult> Execute(const Session& session) const;

  /// Same, under an externally supplied deadline (the serving layer's
  /// admission-time deadline, which keeps counting across queueing and
  /// planning). The generation check and the execution both observe one
  /// Snapshot: the one captured at Prepare, or — when data mutations
  /// advanced the data generation since — the current publication,
  /// fetched once. A concurrent schema mutation can make
  /// this call refuse as stale, but never corrupt a run in flight.
  Result<QueryResult> Execute(const Session& session,
                              const Deadline& deadline) const;

 private:
  friend class Database;
  PreparedQuery() = default;

  /// The run path Execute and ExplainAnalyze share: the session and
  /// generation checks, the execute fault probe, snapshot re-resolution,
  /// the per-query memory tracker and context under `deadline`, and the
  /// bad_alloc boundary. `finish(table, seconds, executor, tracker,
  /// snapshot)` builds the caller's T while the executor and the tracker
  /// are still alive. Defined (and only used) in database.cc.
  template <typename T, typename Finish>
  Result<T> Run(const Session& session, const Deadline& deadline,
                Finish finish) const;

  const Database* db_ = nullptr;
  SnapshotPtr snapshot_;
  uint64_t generation_ = 0;
  uint64_t data_generation_ = 0;
  int64_t estimated_memory_bytes_ = 0;
  std::string text_;
  Ucqt query_;
  RewriteResult rewrite_;
  RaExprPtr plan_;
  /// Edge-scan labels of the plan with the statistics row counts they
  /// were costed under — the drift check compares these against the
  /// current counts to decide whether a cached plan may keep serving.
  std::vector<std::pair<std::string, size_t>> planned_label_rows_;
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// \brief Schema + graph + snapshot-swapped catalog/statistics + plan
/// cache: the stable entry point for every consumer (CLI, examples,
/// benches, tests).
///
/// A Database is pinned in memory (not copyable or movable) because
/// Sessions and PreparedQuery handles point back into it.
///
/// Threading: N threads may call Prepare/Execute/Session::Query
/// concurrently with each other AND with the mutators. Readers work
/// against an immutable Snapshot published through a swapped shared_ptr slot
/// (double-checked build: the first reader after a mutation rebuilds it
/// once, under a writer mutex); mutators bump a generation and retire
/// the publication, so in-flight executions finish on the state they
/// captured. The single-object accessors graph()/schema() return the
/// master state (stable references for the Database lifetime, contents
/// change under mutation); catalog() references the current publication
/// and is only stable until the next mutation or Use() —
/// concurrent pipelines should hold a snapshot() or a PreparedQuery
/// instead.
///
/// Writes: AddNode/AddEdge append to the master graph. Published
/// snapshots read a frozen copy of the master, taken by the first
/// snapshot after construction or compaction; while that copy exists,
/// writes also append to a side buffer (src/inc) whose sealed rows the
/// snapshots overlay, and cached plans keep serving (drift-checked).
/// Once the buffer exceeds the merge threshold, or on Compact(),
/// it clears and the next snapshot re-freezes the master. Writes made
/// while no copy is frozen (bulk loads) skip the buffer.
class Database {
 public:
  /// An empty database (no schema, no nodes) — populate with Use() or the
  /// mutators.
  Database();
  /// Adopts a schema and a graph (e.g. from the YAGO/LDBC generators).
  Database(GraphSchema schema, PropertyGraph graph);

  /// Loads the text formats of schema_parser.h and graph_io.h from disk.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& schema_path, const std::string& graph_path);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const GraphSchema& schema() const { return schema_; }
  /// The master graph, every accepted write included (pending delta rows
  /// too): flat-graph consumers like the graph engine and the
  /// consistency checker read it directly. The reference is stable for
  /// the lifetime of the Database (snapshots copy it; writes append to
  /// it), but reading it concurrently with the mutators is the caller's
  /// problem — concurrent pipelines should hold a snapshot() instead.
  const PropertyGraph& graph() const { return graph_; }
  /// graph() as a non-owning shared pointer (same lifetime contract).
  std::shared_ptr<const PropertyGraph> MaterializedGraph() const {
    return std::shared_ptr<const PropertyGraph>(std::shared_ptr<void>(),
                                                &graph_);
  }
  /// The relational catalog of the current snapshot (built on first use
  /// after a mutation: writes since the last one cost one seal and
  /// overlay at the next query, not one per call). The reference is
  /// stable until the next mutation or Use().
  const Catalog& catalog() const;
  /// Schema generation: bumped by Use() only; PreparedQuery handles from
  /// older schema generations refuse to execute.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Data generation: bumped by every accepted write and by each
  /// compaction. Handles and cached plans survive it.
  uint64_t data_generation() const {
    return data_generation_.load(std::memory_order_acquire);
  }

  /// The current publication, building it if a mutation retired it.
  /// Everything reachable from the returned Snapshot is safe for
  /// concurrent use and stays alive while the pointer is held.
  SnapshotPtr snapshot() const;

  /// Swaps in a new dataset (schema + graph). Invalidates the plan cache
  /// and all outstanding PreparedQuery handles; discards any pending
  /// delta rows (they described the dataset being replaced).
  void Use(GraphSchema schema, PropertyGraph graph);

  /// Graph writes: append to the master graph and, while a frozen base
  /// exists, to the pending buffer; retire the publication and bump only
  /// the data generation — handles and cached plans keep serving — then
  /// auto-compact once the buffer exceeds the merge threshold (a failed
  /// auto-compaction is counted and retried later; the write itself
  /// still succeeds). A duplicate edge changes no content and returns OK.
  /// AddEdge refuses, with InvalidArgument and no change, an edge whose
  /// (source label, edge label, target label) is not a basic triple of
  /// the schema — rewritten plans are exact only on conforming graphs. A
  /// schema that declares no edge labels admits any edge. Loads (the
  /// constructors, Open, Use) and AddNode are not checked yet.
  NodeId AddNode(std::string_view label, std::vector<Property> properties = {});
  Status AddEdge(NodeId source, std::string_view label, NodeId target);

  /// Folds all pending delta rows into the base (no-op when none are
  /// pending). The master already holds them, so on success the buffer
  /// clears, the publication is retired (the next reader re-freezes the
  /// master into a delta-free snapshot) and the data generation is
  /// bumped. On an injected kDeltaMerge fault the pending rows stay
  /// buffered, published snapshots keep serving, and the typed
  /// "compact: " status reports the cause; a later Compact() retries.
  Status Compact();

  /// Delta-store counters (pending sizes, appends, dropped duplicates,
  /// seals, compactions). Consistent snapshot under the state mutex.
  inc::DeltaStats delta_stats() const;

  /// Pending-row threshold that triggers auto-compaction (default 4096).
  void set_delta_merge_rows(size_t rows);

  /// Parse + typecheck + schema rewrite + translate + optimize, or a plan
  /// cache hit skipping all of it. Errors carry a stage prefix (see
  /// ClassifyError); allocation failures (real or injected) surface as
  /// "plan: " ResourceExhausted, never as an exception. `cache_hit`,
  /// when non-null, reports whether the returned handle came from the
  /// cache.
  Result<PreparedQueryPtr> Prepare(std::string_view text,
                                   const ExecOptions& options = {},
                                   bool* cache_hit = nullptr) const;

  /// Same, from an already-parsed query (keyed by its canonical
  /// rendering). Used by the measurement harness.
  Result<PreparedQueryPtr> Prepare(const Ucqt& query,
                                   const ExecOptions& options = {},
                                   bool* cache_hit = nullptr) const;

  PlanCacheStats plan_cache_stats() const { return cache_.stats(); }
  /// Explicit LRU capacity (0 = unbounded); overrides
  /// GQOPT_PLAN_CACHE_CAP.
  void set_plan_cache_capacity(size_t capacity) {
    cache_.set_capacity(capacity);
  }
  /// Explicit plan-cache byte budget (0 = unbounded); overrides
  /// GQOPT_PLAN_CACHE_MEM.
  void set_plan_cache_memory_capacity(size_t bytes) {
    cache_.set_memory_capacity(bytes);
  }
  void ClearPlanCache() { cache_.Invalidate(); }

  /// The server-wide memory budget (GQOPT_SERVER_MEM_LIMIT at
  /// construction; 0 = unbounded). Every execution's per-query tracker is
  /// a child of this root, so consumed()/available() reflect all queries
  /// in flight and the serving layer's admission control can refuse work
  /// that cannot fit.
  const MemoryTracker& memory() const { return mem_; }
  /// Overrides the server budget (explicit beats env beats default).
  /// Takes effect for charges from this point on; in-flight executions
  /// keep their already-acquired reservations.
  void set_memory_limit(int64_t bytes) { mem_.set_limit(bytes); }

 private:
  friend class PreparedQuery;

  Result<PreparedQueryPtr> PrepareInternal(const std::string& key,
                                           const Ucqt* parsed,
                                           std::string_view text,
                                           const ExecOptions& options,
                                           bool* cache_hit) const;
  Result<PreparedQueryPtr> PrepareImpl(const std::string& key,
                                       const Ucqt* parsed,
                                       std::string_view text,
                                       const ExecOptions& options,
                                       bool* cache_hit) const;
  /// Double-checked snapshot build; caller holds state_mu_.
  SnapshotPtr BuildSnapshotLocked() const;
  /// Data-generation bump + publication retire, plan cache KEPT; caller
  /// holds state_mu_.
  void DataMutatedLocked();
  /// The tail of an accepted write: DataMutatedLocked, then the
  /// auto-compaction past the merge threshold; caller holds state_mu_.
  void WroteLocked();
  /// The compaction body (see Compact()); caller holds state_mu_.
  Status CompactLocked();
  /// True when the cached plan's estimated cardinalities still hold
  /// within the drift threshold against the current statistics.
  bool PlanStillFits(const PreparedQuery& cached) const;
  /// Probes the fault injector at a stage boundary: returns the injected
  /// stage-prefixed failure, or OK (kInvalidate retires the publication
  /// with its statistics and clears the plan cache, then continues).
  Status StageFault(QueryStage stage) const;

  // Guards the master state (schema_, graph_, delta_, base slots) and
  // serializes snapshot builds. Readers never take it on the fast path —
  // they load the atomic publication.
  mutable std::mutex state_mu_;
  GraphSchema schema_;
  // The master graph: every accepted write appends to it under state_mu_.
  // It never moves, so the graph() reference is stable for the Database
  // lifetime.
  PropertyGraph graph_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> data_generation_{0};
  // Write path (guarded by state_mu_): the pending buffer, the frozen
  // copy of the master that published snapshots share, and the base
  // catalog built over that copy. The base slots reset on compaction and
  // Use() (content changed), and base_catalog_ alone on an injected
  // kInvalidate fault (same data, fresh statistics).
  size_t delta_merge_rows_ = 4096;
  inc::DeltaStore delta_;
  mutable std::shared_ptr<const PropertyGraph> base_graph_;
  mutable std::shared_ptr<const Catalog> base_catalog_;
  // Leaf mutex guarding only the publication slot below — taken for
  // pointer copies, never across a build. (Not std::atomic<shared_ptr>:
  // libstdc++'s _Sp_atomic trips ThreadSanitizer, and the robustness
  // suite requires a TSan-clean facade.) May be taken while state_mu_ is
  // held; never the other way around.
  mutable std::mutex publish_mu_;
  // The published snapshot (null while retired). Guarded by publish_mu_.
  mutable SnapshotPtr snapshot_;
  mutable PlanCache cache_;
  // Root of the memory-tracker hierarchy: per-query trackers created in
  // PreparedQuery::Execute parent here, so the sum of all in-flight
  // executions observes one server-wide ceiling. Mutable because charging
  // is logically const (executions run on const handles).
  mutable MemoryTracker mem_;
};

/// \brief A caller's options bundle over a Database.
///
/// The ExecOptions are fixed at session creation: environment knobs are
/// read exactly once (via ExecOptions::FromEnv(), if the caller opts in),
/// never re-read per command. Sessions are cheap value objects — a
/// serving layer creates one per request thread (concurrent use of one
/// const Session is safe; the non-const options() setter is not
/// synchronized).
class Session {
 public:
  explicit Session(const Database& db, ExecOptions options = ExecOptions());

  const Database& database() const { return *db_; }
  const ExecOptions& options() const { return options_; }
  /// Adjust options mid-session (explicit assignment — highest
  /// precedence). Affects subsequent Prepare/Execute calls only.
  ExecOptions& options() { return options_; }

  /// Database::Prepare under this session's options.
  Result<PreparedQueryPtr> Prepare(std::string_view text,
                                   bool* cache_hit = nullptr) const;

  /// Prepare (cached) + Execute in one call; the serving fast path. When
  /// a concurrent Use() invalidates the handle between the two steps,
  /// re-prepares against the new generation (bounded retries) instead of
  /// surfacing the transient staleness to the caller.
  Result<QueryResult> Query(std::string_view text) const;

 private:
  const Database* db_;
  ExecOptions options_;
};

}  // namespace api
}  // namespace gqopt

#endif  // GQOPT_API_DATABASE_H_
