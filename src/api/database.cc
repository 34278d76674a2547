#include "api/database.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "graph/graph_io.h"
#include "query/query_parser.h"
#include "ra/executor.h"
#include "ra/explain.h"
#include "ra/optimizer.h"
#include "ra/ucqt_to_ra.h"
#include "schema/schema_parser.h"
#include "util/fault_injection.h"

namespace gqopt {
namespace api {
namespace {

double Now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

Status StageError(QueryStage stage, const Status& status) {
  return Status(status.code(), std::string(QueryStageName(stage)) + ": " +
                                   status.message());
}

// Builds "<prefix>(database generation <now>, prepared at generation
// <then>)<suffix>" via append (operator+ chains trip a GCC 12 -Wrestrict
// false positive here).
std::string StaleMessage(const char* prefix, uint64_t now, uint64_t then,
                         const char* suffix) {
  std::string out(prefix);
  out.append("(database generation ");
  out.append(std::to_string(now));
  out.append(", prepared at generation ");
  out.append(std::to_string(then));
  out.append(")");
  out.append(suffix);
  return out;
}

/// The plan-affecting option fields, folded into the cache key so two
/// sessions with different planning knobs never share a plan.
std::string PlanFingerprint(const ExecOptions& options) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r%d fs%d dop%d|",
                options.apply_schema_rewrite ? 1 : 0,
                options.enable_fixpoint_seeding ? 1 : 0, options.dop);
  return buf;
}

/// Fixed slack per cached plan entry covering the Slot, the LRU node and
/// the expression tree — plans are a handful of small nodes, so a flat
/// allowance beats walking the tree on the Insert path.
constexpr size_t kPlanCacheEntryOverhead = 1024;

/// Ratio between a label's current and costed row counts past which a
/// cached plan re-plans instead of serving.
constexpr double kPlanDriftThreshold = 2.0;

bool IsStale(const Status& status) {
  return status.message().find("stale prepared query") != std::string::npos;
}

/// Records every edge-scan label of `plan` with the statistics row count
/// it was costed under — the inputs of the cached-plan drift check.
void CollectEdgeScanLabels(
    const RaExpr* e, const GraphStatistics& stats,
    std::vector<std::pair<std::string, size_t>>* out) {
  if (e == nullptr) return;
  if (e->op() == RaOp::kEdgeScan) {
    out->emplace_back(e->label(), stats.EdgeFor(e->label()).rows);
  }
  CollectEdgeScanLabels(e->left().get(), stats, out);
  CollectEdgeScanLabels(e->right().get(), stats, out);
}

}  // namespace

QueryStage ClassifyError(const Status& status) {
  const std::string& message = status.message();
  if (message.starts_with("parse: ")) return QueryStage::kParse;
  if (message.starts_with("rewrite: ")) return QueryStage::kRewrite;
  if (message.starts_with("plan: ")) return QueryStage::kPlan;
  if (message.starts_with("overloaded: ")) return QueryStage::kOverloaded;
  // Budget breaches surface either bare ("resource: ...") from the
  // tracker or wrapped by the execute stage ("execute: resource: ...");
  // both classify as the non-retryable resource class.
  if (message.starts_with("resource: ") ||
      message.find(": resource: ") != std::string::npos) {
    return QueryStage::kResource;
  }
  return QueryStage::kExecute;
}

std::string_view QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kParse:
      return "parse";
    case QueryStage::kRewrite:
      return "rewrite";
    case QueryStage::kPlan:
      return "plan";
    case QueryStage::kExecute:
      return "execute";
    case QueryStage::kOverloaded:
      return "overloaded";
    case QueryStage::kResource:
      return "resource";
  }
  return "unknown";
}

std::vector<std::vector<NodeId>> QueryResult::SortedRows() const {
  Table sorted = table;
  sorted.SortDistinct();
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(sorted.rows());
  for (size_t r = 0; r < sorted.rows(); ++r) {
    std::vector<NodeId> row;
    row.reserve(sorted.arity());
    for (size_t c = 0; c < sorted.arity(); ++c) row.push_back(sorted.At(r, c));
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---- Snapshot --------------------------------------------------------------

Snapshot::Snapshot(uint64_t generation, uint64_t data_generation,
                   GraphSchema schema,
                   std::shared_ptr<const PropertyGraph> graph,
                   std::shared_ptr<const Catalog> base_catalog,
                   inc::SealedDeltaPtr delta)
    : generation_(generation),
      data_generation_(data_generation),
      schema_(std::move(schema)),
      graph_(std::move(graph)),
      base_catalog_(std::move(base_catalog)),
      delta_(std::move(delta)) {
  if (delta_ != nullptr && !delta_->empty()) {
    overlay_ = std::make_unique<const Catalog>(base_catalog_.get(), delta_);
  }
}

// ---- PreparedQuery ---------------------------------------------------------

std::string PreparedQuery::Explain() const {
  uint64_t now = db_->generation();
  if (generation_ != now) {
    // Estimating the old plan against the changed catalog would print
    // confidently wrong numbers; report the staleness instead.
    return StaleMessage("stale prepared query ", now, generation_,
                        "; re-prepare\n");
  }
  return ExplainPlan(plan_, snapshot_->catalog());
}

template <typename T, typename Finish>
Result<T> PreparedQuery::Run(const Session& session, const Deadline& deadline,
                             Finish finish) const {
  if (&session.database() != db_) {
    return Status::InvalidArgument(
        "execute: session belongs to a different Database");
  }
  // One atomic generation read, then everything runs on one Snapshot: a
  // mutation landing after this check cannot swap the catalog out from
  // under the executor (the old TOCTOU window), it only makes the *next*
  // run refuse.
  uint64_t now = db_->generation();
  if (generation_ != now) {
    return Status::InvalidArgument(StaleMessage(
        "execute: stale prepared query ", now, generation_, ""));
  }
  GQOPT_RETURN_NOT_OK(db_->StageFault(QueryStage::kExecute));
  // Data mutations advance the data generation without staling the
  // handle: re-resolve the current publication so the cached plan serves
  // the fresh rows.
  SnapshotPtr snap = snapshot_;
  if (snap->data_generation() != db_->data_generation()) {
    snap = db_->snapshot();
    if (snap->generation() != generation_) {
      return Status::InvalidArgument(StaleMessage(
          "execute: stale prepared query ", snap->generation(), generation_,
          ""));
    }
  }
  try {
    Executor executor(snap->catalog());
    // Per-query budget, child of the Database-wide root: the run charges
    // against both its own limit and the shared server ceiling, and the
    // reservation flows back to the root when the tracker dies.
    MemoryTracker query_mem(session.options().mem_limit_bytes, "query",
                            &db_->mem_, /*probe_faults=*/true);
    ExecContext ctx = session.options().MakeExecContext();
    ctx.deadline = deadline;
    ctx.mem = &query_mem;
    double start = Now();
    auto table = executor.Run(plan_, ctx);
    double elapsed = Now() - start;
    if (!table.ok()) return StageError(QueryStage::kExecute, table.status());
    return finish(std::move(table).value(), elapsed, executor, query_mem,
                  *snap);
  } catch (const std::bad_alloc&) {
    return StageError(QueryStage::kExecute,
                      Status::ResourceExhausted(
                          "allocation failed (out of memory or injected)"));
  }
}

Result<std::string> PreparedQuery::ExplainAnalyze(
    const Session& session) const {
  return Run<std::string>(
      session, Deadline::AfterMillis(session.options().timeout_ms),
      [this](Table table, double, const Executor& executor,
             const MemoryTracker& query_mem, const Snapshot& snap) {
        std::string out =
            ExplainPlanAnalyze(plan_, snap.catalog(), executor.actual_rows(),
                               &executor.actual_bytes());
        out.append("(");
        out.append(std::to_string(table.rows()));
        out.append(" result rows, peak memory ");
        out.append(std::to_string(query_mem.peak()));
        out.append(" bytes)\n");
        return out;
      });
}

Result<QueryResult> PreparedQuery::Execute(const Session& session) const {
  return Execute(session,
                 Deadline::AfterMillis(session.options().timeout_ms));
}

Result<QueryResult> PreparedQuery::Execute(const Session& session,
                                           const Deadline& deadline) const {
  return Run<QueryResult>(
      session, deadline,
      [](Table table, double elapsed, const Executor& executor,
         const MemoryTracker& query_mem, const Snapshot&) {
        QueryResult result;
        result.table = std::move(table);
        result.exec_seconds = elapsed;
        result.plan_operators = executor.actual_rows().size();
        for (const auto& [node, rows] : executor.actual_rows()) {
          result.rows_processed += rows;
        }
        result.mem_peak_bytes = query_mem.peak();
        return result;
      });
}

// ---- Database --------------------------------------------------------------

Database::Database() : Database(GraphSchema(), PropertyGraph()) {}

Database::Database(GraphSchema schema, PropertyGraph graph)
    : schema_(std::move(schema)),
      graph_(std::move(graph)),
      mem_(ParseByteSize(std::getenv("GQOPT_SERVER_MEM_LIMIT")), "server") {}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& schema_path, const std::string& graph_path) {
  GQOPT_ASSIGN_OR_RETURN(std::string schema_text, ReadFile(schema_path));
  GQOPT_ASSIGN_OR_RETURN(std::string graph_text, ReadFile(graph_path));
  GQOPT_ASSIGN_OR_RETURN(GraphSchema schema, ParseSchema(schema_text));
  GQOPT_ASSIGN_OR_RETURN(PropertyGraph graph, ReadGraphText(graph_text));
  return std::make_unique<Database>(std::move(schema), std::move(graph));
}

const Catalog& Database::catalog() const { return snapshot()->catalog(); }

SnapshotPtr Database::snapshot() const {
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (snapshot_) return snapshot_;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  return BuildSnapshotLocked();
}

SnapshotPtr Database::BuildSnapshotLocked() const {
  // Double-checked: a racing reader may have published while this thread
  // waited on state_mu_.
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (snapshot_) return snapshot_;
  }
  if (FaultHit(FaultPoint::kSnapshotBuild) == FaultKind::kAlloc) {
    throw std::bad_alloc();
  }
  if (base_graph_ == nullptr) {
    // Freeze the master into the shared base copy — once per compaction
    // cycle, never per query or per write. The master stays in place so
    // graph() references survive every snapshot swap. Finalizing it
    // first sorts the rows written since the last freeze once, for the
    // master and the copy, before any reader or delta append sees them.
    graph_.Finalize();
    base_graph_ = std::make_shared<const PropertyGraph>(graph_);
    base_catalog_.reset();
  }
  if (base_catalog_ == nullptr) {
    base_catalog_ = std::make_shared<const Catalog>(*base_graph_);
  }
  // Pending delta rows ride along as one immutable seal: the overlay the
  // snapshot builds over it is the only way readers see them, so a
  // reader can never observe a partially merged delta. The build runs
  // outside publish_mu_ (readers of the old publication never wait on
  // it) and the result is published with two pointer stores.
  inc::SealedDeltaPtr seal;
  if (!delta_.empty()) seal = delta_.Seal();
  auto built = std::make_shared<const Snapshot>(
      generation(), data_generation(), schema_, base_graph_, base_catalog_,
      std::move(seal));
  std::lock_guard<std::mutex> lock(publish_mu_);
  snapshot_ = built;
  return built;
}

void Database::DataMutatedLocked() {
  // Retire the publication so the next reader seals the new pending
  // state; cached plans and outstanding handles stay valid (Execute
  // re-resolves, the plan-cache lookup drift-checks).
  data_generation_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(publish_mu_);
  snapshot_.reset();
}

void Database::WroteLocked() {
  DataMutatedLocked();
  if (delta_.pending_rows() >= delta_merge_rows_) {
    // Auto-compaction failure is counted and retried at the next
    // threshold crossing; the write itself already succeeded.
    (void)CompactLocked();
  }
}

void Database::Use(GraphSchema schema, PropertyGraph graph) {
  std::lock_guard<std::mutex> lock(state_mu_);
  schema_ = std::move(schema);
  graph_ = std::move(graph);
  // The only schema-generation bump. The catalog/statistics rebuild is
  // deferred to the next snapshot() access.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  base_graph_.reset();
  base_catalog_.reset();
  // Whatever was pending described the dataset being replaced.
  delta_.DiscardPending();
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    snapshot_.reset();
  }
  cache_.Invalidate();
}

// Each accepted row lands in the master, so graph() shows it at once.
// While a frozen base exists (a snapshot may share it), the row also
// lands in the delta, which readers overlay on that base. With no base
// frozen — a fresh Database, or after a compaction — there is nothing to
// overlay: the row goes to the master only, and the next snapshot
// freezes the master with it. Bulk loads thus skip the delta and the
// re-freeze that every auto-compaction would otherwise force.
NodeId Database::AddNode(std::string_view label,
                         std::vector<Property> properties) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (base_graph_ != nullptr) delta_.AddNode(*base_graph_, label, properties);
  // A delta append assigned this same id (base nodes + pending position).
  NodeId id = graph_.AddNode(label, std::move(properties));
  WroteLocked();
  return id;
}

Status Database::AddEdge(NodeId source, std::string_view label,
                         NodeId target) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // A rewritten plan is exact only on a graph that conforms to the schema
  // (Def 3, Theorem 1), so an edge the schema does not admit is refused
  // before it reaches the delta or the master. A schema that declares no
  // edge labels constrains nothing (and never yields a rewritten plan).
  // A bad endpoint is left to the write path's OutOfRange.
  if (schema_.num_edge_labels() > 0 && source < graph_.num_nodes() &&
      target < graph_.num_nodes()) {
    GQOPT_RETURN_NOT_OK(schema_.CheckEdge(graph_.NodeLabel(source), label,
                                          graph_.NodeLabel(target)));
  }
  if (base_graph_ == nullptr) {
    GQOPT_RETURN_NOT_OK(graph_.AddEdge(source, label, target));
  } else {
    size_t before = delta_.pending_rows();
    GQOPT_RETURN_NOT_OK(delta_.AddEdge(*base_graph_, source, label, target));
    // A duplicate append changes nothing — keep the publication.
    if (delta_.pending_rows() == before) return Status::OK();
    // The delta just checked the endpoints against the same node count.
    (void)graph_.AddEdge(source, label, target);
  }
  WroteLocked();
  return Status::OK();
}

Status Database::Compact() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return CompactLocked();
}

Status Database::CompactLocked() {
  if (delta_.empty()) return Status::OK();
  // An injected fault leaves the pending rows buffered: published
  // snapshots keep serving and the next compaction retries.
  switch (FaultHit(FaultPoint::kDeltaMerge)) {
    case FaultKind::kDeadline:
      delta_.CountFailedCompaction();
      return Status::DeadlineExceeded("compact: injected deadline expiry");
    case FaultKind::kAlloc:
      delta_.CountFailedCompaction();
      return Status::ResourceExhausted("compact: injected allocation failure");
    default:
      break;
  }
  // The master already holds every pending row: drop the buffer and the
  // frozen base (the next snapshot re-freezes the master) and retire the
  // publication.
  delta_.ClearAfterCompaction();
  base_graph_.reset();
  base_catalog_.reset();
  DataMutatedLocked();
  return Status::OK();
}

inc::DeltaStats Database::delta_stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return delta_.stats();
}

void Database::set_delta_merge_rows(size_t rows) {
  std::lock_guard<std::mutex> lock(state_mu_);
  delta_merge_rows_ = rows == 0 ? 1 : rows;
}

Status Database::StageFault(QueryStage stage) const {
  FaultPoint point = FaultPoint::kExecute;
  switch (stage) {
    case QueryStage::kParse:
      point = FaultPoint::kParse;
      break;
    case QueryStage::kRewrite:
      point = FaultPoint::kRewrite;
      break;
    case QueryStage::kPlan:
      point = FaultPoint::kPlan;
      break;
    default:
      break;
  }
  switch (FaultHit(point)) {
    case FaultKind::kDeadline:
      return StageError(stage,
                        Status::DeadlineExceeded("injected deadline expiry"));
    case FaultKind::kAlloc:
      return StageError(
          stage, Status::ResourceExhausted("injected allocation failure"));
    case FaultKind::kInvalidate: {
      // Forced mid-request cache invalidation without a generation bump:
      // retire the publication and the base catalog (the next reader
      // re-collects statistics over the same base graph) and clear the
      // plan cache. The request continues on the state it already
      // captured.
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        base_catalog_.reset();
        std::lock_guard<std::mutex> publish(publish_mu_);
        snapshot_.reset();
      }
      cache_.Invalidate();
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

bool Database::PlanStillFits(const PreparedQuery& cached) const {
  // Estimated-cardinality drift: compare the row counts the plan was
  // costed under against the current statistics, label by label. Within
  // the threshold the plan keeps serving (same pointer — no re-plan);
  // past it the entry is dropped and the query re-plans under the fresh
  // numbers.
  SnapshotPtr snap = snapshot();
  if (snap->generation() != cached.generation_) return false;
  const GraphStatistics& stats = snap->catalog().stats();
  for (const auto& [label, planned] : cached.planned_label_rows_) {
    double current = static_cast<double>(stats.EdgeFor(label).rows) + 1;
    double costed = static_cast<double>(planned) + 1;
    double ratio = current > costed ? current / costed : costed / current;
    if (ratio > kPlanDriftThreshold) return false;
  }
  return true;
}

Result<PreparedQueryPtr> Database::Prepare(std::string_view text,
                                           const ExecOptions& options,
                                           bool* cache_hit) const {
  std::string key =
      "t|" + PlanFingerprint(options) + NormalizeQueryText(text);
  return PrepareInternal(key, nullptr, text, options, cache_hit);
}

Result<PreparedQueryPtr> Database::Prepare(const Ucqt& query,
                                           const ExecOptions& options,
                                           bool* cache_hit) const {
  // Keyed by the canonical rendering in a namespace of its own: the
  // rendering is a stable identity but not guaranteed to re-parse, so it
  // must never collide with text-keyed entries.
  std::string key = "q|" + PlanFingerprint(options) + query.ToString();
  return PrepareInternal(key, &query, {}, options, cache_hit);
}

Result<PreparedQueryPtr> Database::PrepareInternal(
    const std::string& key, const Ucqt* parsed, std::string_view text,
    const ExecOptions& options, bool* cache_hit) const {
  // Allocation failure — a real out-of-memory or the injected kAlloc
  // fault inside any lazy cache build — is a plan-stage resource error,
  // not a crash: the facade is the exception boundary.
  try {
    return PrepareImpl(key, parsed, text, options, cache_hit);
  } catch (const std::bad_alloc&) {
    return StageError(QueryStage::kPlan,
                      Status::ResourceExhausted(
                          "allocation failed (out of memory or injected)"));
  }
}

Result<PreparedQueryPtr> Database::PrepareImpl(const std::string& key,
                                               const Ucqt* parsed,
                                               std::string_view text,
                                               const ExecOptions& options,
                                               bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (options.use_plan_cache) {
    if (PreparedQueryPtr cached = cache_.Lookup(key)) {
      // An Insert can race a concurrent mutation's Invalidate and land a
      // dead-generation plan after the clear; validating here turns that
      // window into a plain miss instead of serving a stale plan. Plans
      // survive data mutations as long as their estimated cardinalities
      // have not drifted past the threshold.
      if (cached->generation_ == generation() &&
          (cached->data_generation_ == data_generation() ||
           PlanStillFits(*cached))) {
        if (cache_hit != nullptr) *cache_hit = true;
        return cached;
      }
      cache_.Remove(key);
    }
  }

  // The whole prepare pipeline observes this one snapshot; the handle
  // pins it so Execute later runs against exactly what was planned.
  SnapshotPtr snap = snapshot();

  auto prepared = std::make_shared<PreparedQuery>(PreparedQuery());
  prepared->db_ = this;
  prepared->snapshot_ = snap;
  prepared->generation_ = snap->generation();
  prepared->data_generation_ = snap->data_generation();

  GQOPT_RETURN_NOT_OK(StageFault(QueryStage::kParse));
  if (parsed != nullptr) {
    prepared->query_ = *parsed;
    prepared->text_ = parsed->ToString();
  } else {
    auto query = ParseUcqt(text);
    if (!query.ok()) return StageError(QueryStage::kParse, query.status());
    prepared->query_ = std::move(query).value();
    prepared->text_ = NormalizeQueryText(text);
  }

  GQOPT_RETURN_NOT_OK(StageFault(QueryStage::kRewrite));
  if (options.apply_schema_rewrite) {
    auto rewritten = RewriteQuery(prepared->query_, snap->schema());
    if (!rewritten.ok()) {
      return StageError(QueryStage::kRewrite, rewritten.status());
    }
    prepared->rewrite_ = std::move(rewritten).value();
  } else {
    prepared->rewrite_.query = prepared->query_;
    prepared->rewrite_.reverted = true;
  }

  GQOPT_RETURN_NOT_OK(StageFault(QueryStage::kPlan));
  auto plan = UcqtToRa(prepared->executable());
  if (!plan.ok()) return StageError(QueryStage::kPlan, plan.status());
  prepared->plan_ =
      OptimizePlan(plan.value(), snap->catalog(), options.ToOptimizerOptions());
  prepared->estimated_memory_bytes_ =
      EstimatePlanMemory(prepared->plan_, snap->catalog());
  CollectEdgeScanLabels(prepared->plan_.get(), snap->catalog().stats(),
                        &prepared->planned_label_rows_);

  PreparedQueryPtr shared = std::move(prepared);
  // Skip the insert when a mutation already outdated this plan — the
  // lookup-side validation would only have to throw it away again.
  if (options.use_plan_cache && shared->generation_ == generation()) {
    cache_.Insert(key, shared,
                  key.size() + shared->text_.size() + kPlanCacheEntryOverhead);
  }
  return shared;
}

// ---- Session ---------------------------------------------------------------

Session::Session(const Database& db, ExecOptions options)
    : db_(&db), options_(std::move(options)) {}

Result<PreparedQueryPtr> Session::Prepare(std::string_view text,
                                          bool* cache_hit) const {
  return db_->Prepare(text, options_, cache_hit);
}

Result<QueryResult> Session::Query(std::string_view text) const {
  // A Use() can land between Prepare and Execute; that transient
  // staleness is resolved by re-preparing against the new generation.
  // Bounded retries: under a continuous stream of swaps the final stale
  // error surfaces (typed, in the execute stage) rather than looping.
  for (int attempt = 0;; ++attempt) {
    bool cache_hit = false;
    GQOPT_ASSIGN_OR_RETURN(PreparedQueryPtr prepared,
                           db_->Prepare(text, options_, &cache_hit));
    auto result = prepared->Execute(*this);
    if (result.ok()) {
      result->plan_cache_hit = cache_hit;
      return result;
    }
    if (attempt >= 2 || !IsStale(result.status())) return result;
  }
}

}  // namespace api
}  // namespace gqopt
