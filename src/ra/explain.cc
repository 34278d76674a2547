#include "ra/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ra/planner/cost_model.h"

namespace gqopt {
namespace {

// Average expansion factor assumed for a transitive closure, used only for
// costing (execution is exact).
constexpr double kClosureDepthFactor = 4.0;

double NdvOf(const PlanEstimate& est, const std::string& col) {
  auto it = est.ndv.find(col);
  return it == est.ndv.end() ? std::max(1.0, est.rows) : it->second;
}

// True when `b` is a union tree of plain forward edge scans over the
// (src, tgt) columns — a relation that is a subset of the graph's
// forward edges, so label-graph reachability bounds its closure.
bool IsForwardEdgeUnion(const RaExpr* b, const std::string& src,
                        const std::string& tgt) {
  if (b->op() == RaOp::kEdgeScan) {
    return b->columns()[0] == src && b->columns()[1] == tgt;
  }
  if (b->op() == RaOp::kUnion) {
    return IsForwardEdgeUnion(b->left().get(), src, tgt) &&
           IsForwardEdgeUnion(b->right().get(), src, tgt);
  }
  return false;
}

}  // namespace

const PlanEstimate& Estimator::Estimate(const RaExpr* e) {
  auto cached = memo_.find(e);
  if (cached != memo_.end()) return cached->second;

  PlanEstimate est;
  switch (e->op()) {
    case RaOp::kEdgeScan: {
      const EdgeLabelStats& stats =
          catalog_.stats().EdgeFor(e->label(), deadline_);
      est.rows = static_cast<double>(stats.rows);
      est.cost = est.rows;
      est.ndv[e->columns()[0]] =
          std::max<double>(1.0, static_cast<double>(stats.distinct_sources));
      est.ndv[e->columns()[1]] =
          std::max<double>(1.0, static_cast<double>(stats.distinct_targets));
      break;
    }
    case RaOp::kNodeScan: {
      size_t rows = 0;
      for (const std::string& label : e->labels()) {
        rows += catalog_.node_count(label);
      }
      est.rows = static_cast<double>(rows);
      est.cost = est.rows;
      est.ndv[e->columns()[0]] = std::max(1.0, est.rows);
      break;
    }
    case RaOp::kProject: {
      const PlanEstimate& child = Estimate(e->left().get());
      est.rows = child.rows;
      est.cost = child.cost;
      for (const auto& [from, to] : e->mappings()) {
        est.ndv[to] = NdvOf(child, from);
      }
      break;
    }
    case RaOp::kSelectEq: {
      const PlanEstimate& child = Estimate(e->left().get());
      double ndv = std::max(NdvOf(child, e->eq_columns().first),
                            NdvOf(child, e->eq_columns().second));
      est.rows = child.rows / std::max(1.0, ndv);
      est.cost = child.cost + child.rows;
      est.ndv = child.ndv;
      break;
    }
    case RaOp::kJoin: {
      const PlanEstimate& l = Estimate(e->left().get());
      const PlanEstimate& r = Estimate(e->right().get());
      std::vector<std::string> shared =
          SharedColumns(*e->left(), *e->right());
      double selectivity = 1.0;
      for (const std::string& col : shared) {
        selectivity /= std::max({NdvOf(l, col), NdvOf(r, col), 1.0});
      }
      est.rows = l.rows * r.rows * selectivity;
      // Strategy-aware cost (the planner's cost model): annotated joins
      // are costed as annotated; unannotated ones as the strategy the
      // input shapes admit; flat hash joins under the size rule.
      JoinStrategy strategy = e->join_strategy();
      if (strategy == JoinStrategy::kAuto && !shared.empty()) {
        strategy = AnalyzeJoinShape(*e->left(), *e->right()).strategy;
      }
      strategy = SizeJoinStrategy(strategy, l.rows, r.rows);
      est.cost = l.cost + r.cost +
                 JoinWorkCost(strategy, l.rows, r.rows, est.rows,
                              e->parallel_hint());
      for (const std::string& col : e->columns()) {
        double ndv = est.rows;
        auto lit = l.ndv.find(col);
        if (lit != l.ndv.end()) ndv = std::min(ndv, lit->second);
        auto rit = r.ndv.find(col);
        if (rit != r.ndv.end()) ndv = std::min(ndv, rit->second);
        est.ndv[col] = std::max(1.0, ndv);
      }
      break;
    }
    case RaOp::kSemiJoin: {
      const PlanEstimate& l = Estimate(e->left().get());
      const PlanEstimate& r = Estimate(e->right().get());
      double fraction = 1.0;
      for (const std::string& col : SharedColumns(*e->left(), *e->right())) {
        fraction =
            std::min(fraction, NdvOf(r, col) / std::max(1.0, NdvOf(l, col)));
      }
      est.rows = l.rows * std::min(1.0, fraction);
      est.cost = l.cost + r.cost + l.rows + r.rows;
      est.ndv = l.ndv;
      for (auto& [col, ndv] : est.ndv) ndv = std::min(ndv, est.rows);
      break;
    }
    case RaOp::kUnion: {
      const PlanEstimate& l = Estimate(e->left().get());
      const PlanEstimate& r = Estimate(e->right().get());
      est.rows = l.rows + r.rows;
      est.cost = l.cost + r.cost + est.rows;
      for (const std::string& col : e->columns()) {
        est.ndv[col] = std::min(est.rows, NdvOf(l, col) + NdvOf(r, col));
      }
      break;
    }
    case RaOp::kDistinct: {
      const PlanEstimate& child = Estimate(e->left().get());
      double distinct = 1.0;
      for (const std::string& col : e->columns()) {
        distinct *= NdvOf(child, col);
        if (distinct > child.rows) break;
      }
      est.rows = std::min(child.rows, std::max(1.0, distinct));
      est.cost = child.cost + child.rows;
      est.ndv = child.ndv;
      break;
    }
    case RaOp::kTransitiveClosure: {
      const PlanEstimate& body = Estimate(e->left().get());
      double src_ndv = NdvOf(body, e->src_col());
      double tgt_ndv = NdvOf(body, e->tgt_col());
      est.rows = std::min(body.rows * kClosureDepthFactor, src_ndv * tgt_ndv);
      // Schema-derived cap: a closure over forward edges can never grow
      // past the reachable-label-pair bound of the statistics catalog,
      // regardless of fixpoint depth — the per-label bound for a single
      // scan, the whole-graph bound for a union of scans. (Bodies with
      // reversed or recomposed columns get no cap: reachability in the
      // forward label graph does not bound them.)
      const RaExpr* b = e->left().get();
      if (b->op() == RaOp::kEdgeScan && b->columns()[0] == e->src_col() &&
          b->columns()[1] == e->tgt_col()) {
        double bound =
            catalog_.stats().EdgeFor(b->label(), deadline_).closure_bound;
        if (bound > 0) est.rows = std::min(est.rows, bound);
      } else if (IsForwardEdgeUnion(b, e->src_col(), e->tgt_col())) {
        double bound = catalog_.stats().GlobalClosureBound(deadline_);
        if (bound > 0) est.rows = std::min(est.rows, bound);
      }
      est.cost = body.cost + est.rows * kClosureDepthFactor;
      if (e->seed_side() != SeedSide::kNone) {
        const PlanEstimate& seed = Estimate(e->seed().get());
        double anchor_ndv =
            e->seed_side() == SeedSide::kSource ? src_ndv : tgt_ndv;
        double fraction =
            std::min(1.0, seed.rows / std::max(1.0, anchor_ndv));
        est.rows *= fraction;
        est.cost = body.cost + seed.cost + est.rows * kClosureDepthFactor;
      }
      est.ndv[e->src_col()] = std::max(1.0, std::min(src_ndv, est.rows));
      est.ndv[e->tgt_col()] = std::max(1.0, std::min(tgt_ndv, est.rows));
      break;
    }
    case RaOp::kSort: {
      const PlanEstimate& child = Estimate(e->left().get());
      est.rows = child.rows;
      est.cost =
          child.cost + child.rows * std::log2(std::max(2.0, child.rows));
      est.ndv = child.ndv;
      break;
    }
    case RaOp::kLimit: {
      // A window offset shrinks neither the scan (the skipped prefix
      // still materializes) nor the output bound k, but a short child
      // may run out before the window starts.
      const PlanEstimate& child = Estimate(e->left().get());
      est.rows = std::min(
          std::max(0.0, child.rows - static_cast<double>(e->offset())),
          static_cast<double>(e->limit()));
      est.cost = child.cost + est.rows + static_cast<double>(e->offset());
      est.ndv = child.ndv;
      for (auto& [col, ndv] : est.ndv) {
        ndv = std::max(1.0, std::min(ndv, est.rows));
      }
      break;
    }
    case RaOp::kTopK: {
      // Bounded heap: one pass over the child at log2(k) per row — and
      // est.rows = min(k, child) is what keeps SumPlanMemory's
      // materialization figure bounded by k, the admission-control win
      // over Sort + Limit.
      const PlanEstimate& child = Estimate(e->left().get());
      est.rows = std::min(
          std::max(0.0, child.rows - static_cast<double>(e->offset())),
          static_cast<double>(e->limit()));
      est.cost =
          child.cost +
          child.rows * std::log2(static_cast<double>(e->limit()) +
                                 static_cast<double>(e->offset()) + 2.0);
      est.ndv = child.ndv;
      for (auto& [col, ndv] : est.ndv) {
        ndv = std::max(1.0, std::min(ndv, est.rows));
      }
      break;
    }
  }
  est.rows = std::max(0.0, est.rows);
  return memo_.emplace(e, std::move(est)).first->second;
}

namespace {

// Compact byte-count rendering for the "mem =" annotation.
std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes < size_t{1} << 10) {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  } else if (bytes < size_t{1} << 20) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / (1 << 20));
  }
  return buf;
}

void RenderExplain(
    const RaExpr& e, Estimator* estimator,
    const std::unordered_map<const RaExpr*, size_t>* actual_rows,
    const std::unordered_map<const RaExpr*, size_t>* actual_bytes, int depth,
    std::string* out) {
  const PlanEstimate& est = estimator->Estimate(&e);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  // Analyze mode appends "/<actual>" to the rows figure.
  char rows_buf[48];
  std::snprintf(rows_buf, sizeof(rows_buf), "%.0f", est.rows);
  std::string rows = rows_buf;
  if (actual_rows != nullptr) {
    auto it = actual_rows->find(&e);
    rows += it != actual_rows->end() ? "/" + std::to_string(it->second)
                                     : "/?";
  }
  // Materialized result bytes, when the caller recorded them.
  std::string mem;
  if (actual_bytes != nullptr) {
    auto it = actual_bytes->find(&e);
    mem = ", mem = " + (it != actual_bytes->end() ? HumanBytes(it->second)
                                                  : std::string("?"));
  }
  char buf[160];
  if (e.sorted_prefix() > 0) {
    std::snprintf(buf, sizeof(buf),
                  " (cost = %.2f, rows = %s%s, sorted = %zu)", est.cost,
                  rows.c_str(), mem.c_str(), e.sorted_prefix());
  } else {
    std::snprintf(buf, sizeof(buf), " (cost = %.2f, rows = %s%s)", est.cost,
                  rows.c_str(), mem.c_str());
  }
  *out += e.NodeString();
  *out += buf;
  *out += "\n";
  if (e.left()) {
    RenderExplain(*e.left(), estimator, actual_rows, actual_bytes, depth + 1,
                  out);
  }
  if (e.right()) {
    RenderExplain(*e.right(), estimator, actual_rows, actual_bytes, depth + 1,
                  out);
  }
}

// Sums estimated materialized bytes over the distinct nodes of a plan
// DAG (structurally shared subplans evaluate — and are memoized — once,
// so they are counted once).
void SumPlanMemory(const RaExpr* e, Estimator* estimator,
                   std::unordered_map<const RaExpr*, bool>* seen,
                   double* total) {
  if (!seen->emplace(e, true).second) return;
  const PlanEstimate& est = estimator->Estimate(e);
  *total += est.rows * static_cast<double>(e->columns().size()) *
            static_cast<double>(sizeof(NodeId));
  if (e->left()) SumPlanMemory(e->left().get(), estimator, seen, total);
  if (e->right()) SumPlanMemory(e->right().get(), estimator, seen, total);
  if (e->op() == RaOp::kTransitiveClosure && e->seed()) {
    SumPlanMemory(e->seed().get(), estimator, seen, total);
  }
}

}  // namespace

std::string ExplainPlan(const RaExprPtr& plan, const Catalog& catalog) {
  Estimator estimator(catalog);
  std::string out;
  RenderExplain(*plan, &estimator, nullptr, nullptr, 0, &out);
  return out;
}

std::string ExplainPlanAnalyze(
    const RaExprPtr& plan, const Catalog& catalog,
    const std::unordered_map<const RaExpr*, size_t>& actual_rows,
    const std::unordered_map<const RaExpr*, size_t>* actual_bytes) {
  Estimator estimator(catalog);
  std::string out;
  RenderExplain(*plan, &estimator, &actual_rows, actual_bytes, 0, &out);
  return out;
}

int64_t EstimatePlanMemory(const RaExprPtr& plan, const Catalog& catalog) {
  Estimator estimator(catalog);
  std::unordered_map<const RaExpr*, bool> seen;
  double total = 0;
  SumPlanMemory(plan.get(), &estimator, &seen, &total);
  // Clamp to int64 range: a wildly over-estimated plan should read as
  // "does not fit any budget", not overflow into a negative admission.
  double cap = 9.0e18;
  return static_cast<int64_t>(std::min(total, cap));
}

}  // namespace gqopt
