#include "ra/optimizer.h"

#include <algorithm>
#include <vector>

#include "ra/explain.h"

namespace gqopt {
namespace {

class Optimizer {
 public:
  Optimizer(const Catalog& catalog, const OptimizerOptions& options)
      : estimator_(catalog, options.planning_deadline), options_(options) {}

  RaExprPtr Rewrite(const RaExprPtr& e) {
    switch (e->op()) {
      case RaOp::kEdgeScan:
      case RaOp::kNodeScan:
        return e;
      case RaOp::kJoin:
        return RewriteJoinCluster(e);
      case RaOp::kProject: {
        RaExprPtr child = Rewrite(e->left());
        // Identity projection: same columns in the same order, no rename.
        bool identity = e->mappings().size() == child->columns().size();
        if (identity) {
          for (size_t i = 0; i < e->mappings().size(); ++i) {
            if (e->mappings()[i].first != e->mappings()[i].second ||
                e->mappings()[i].first != child->columns()[i]) {
              identity = false;
              break;
            }
          }
        }
        if (identity) return child;
        if (child == e->left()) return e;
        return RaExpr::Project(std::move(child), e->mappings());
      }
      case RaOp::kSelectEq: {
        RaExprPtr child = Rewrite(e->left());
        if (child == e->left()) return e;
        return RaExpr::SelectEq(std::move(child), e->eq_columns().first,
                                e->eq_columns().second);
      }
      case RaOp::kSemiJoin: {
        RaExprPtr l = Rewrite(e->left());
        RaExprPtr r = Rewrite(e->right());
        if (l == e->left() && r == e->right()) return e;
        return RaExpr::SemiJoin(std::move(l), std::move(r));
      }
      case RaOp::kUnion: {
        RaExprPtr l = Rewrite(e->left());
        RaExprPtr r = Rewrite(e->right());
        if (l == e->left() && r == e->right()) return e;
        return RaExpr::Union(std::move(l), std::move(r));
      }
      case RaOp::kDistinct: {
        RaExprPtr child = Rewrite(e->left());
        // Distinct over an already-distinct child is a no-op.
        if (child->op() == RaOp::kDistinct) return child;
        if (child == e->left()) return e;
        return RaExpr::Distinct(std::move(child));
      }
      case RaOp::kTransitiveClosure: {
        RaExprPtr body = Rewrite(e->left());
        RaExprPtr seed = e->seed() ? Rewrite(e->seed()) : nullptr;
        if (body == e->left() && seed == e->seed()) return e;
        return RaExpr::TransitiveClosure(std::move(body), e->src_col(),
                                         e->tgt_col(), std::move(seed),
                                         e->seed_side());
      }
      case RaOp::kSort: {
        RaExprPtr child = RewriteOrdered(e->left(), e->sort_keys());
        // A child whose derived ordering already delivers the requested
        // order makes the Sort a no-op — elide it.
        if (OrderSatisfiedBy(*child, e->sort_keys())) return child;
        if (child == e->left()) return e;
        return RaExpr::Sort(std::move(child), e->sort_keys());
      }
      case RaOp::kLimit: {
        RaExprPtr child = Rewrite(e->left());
        // Limit(Sort(x)) fuses to TopK: a k-bounded heap replaces the
        // full sort buffer. (An elided Sort never reaches here — the
        // kSort case already returned its ordered child, leaving a plain
        // Limit that truncates for free.)
        if (child->op() == RaOp::kSort) {
          return RaExpr::TopK(child->left(), child->sort_keys(), e->limit(),
                              e->offset());
        }
        if (child == e->left()) return e;
        return RaExpr::Limit(std::move(child), e->limit(), e->offset());
      }
      case RaOp::kTopK: {
        RaExprPtr child = RewriteOrdered(e->left(), e->sort_keys());
        // A child already delivering the order downgrades the TopK to a
        // plain Limit — the first k rows, no heap at all.
        if (OrderSatisfiedBy(*child, e->sort_keys())) {
          return RaExpr::Limit(std::move(child), e->limit(), e->offset());
        }
        if (child == e->left()) return e;
        return RaExpr::TopK(std::move(child), e->sort_keys(), e->limit(),
                            e->offset());
      }
    }
    return e;
  }

 private:
  // Rewrites the subtree under a Sort/TopK with its keys published as the
  // requested interesting order: the DP enumerator's winner selection
  // charges plans that do not deliver the requested ascending prefix a
  // full sort of their output, so an already-ordered join tree can win.
  RaExprPtr RewriteOrdered(const RaExprPtr& e,
                           const std::vector<SortKey>& keys) {
    std::vector<SortKey> saved = std::move(requested_order_);
    requested_order_ = keys;
    RaExprPtr out = Rewrite(e);
    requested_order_ = std::move(saved);
    return out;
  }

  // Flattens nested joins into a conjunct list.
  void Flatten(const RaExprPtr& e, std::vector<RaExprPtr>* conjuncts) {
    if (e->op() == RaOp::kJoin) {
      Flatten(e->left(), conjuncts);
      Flatten(e->right(), conjuncts);
      return;
    }
    conjuncts->push_back(Rewrite(e));
  }

  bool HasColumn(const RaExprPtr& e, const std::string& col) {
    return std::find(e->columns().begin(), e->columns().end(), col) !=
           e->columns().end();
  }

  bool SharesColumn(const RaExprPtr& a, const RaExprPtr& b) {
    for (const std::string& col : a->columns()) {
      if (HasColumn(b, col)) return true;
    }
    return false;
  }

  double Rows(const RaExprPtr& e) { return estimator_.Estimate(e.get()).rows; }

  // Estimated cardinality of Join(a, b), built only to be estimated.
  // The probe node must stay alive as long as the estimator: its memo
  // is keyed by node address, so a freed probe's address could be
  // reused by a later node and alias the cached estimate.
  double JoinedRows(const RaExprPtr& a, const RaExprPtr& b) {
    estimate_probes_.push_back(RaExpr::Join(a, b));
    return Rows(estimate_probes_.back());
  }

  // Orders one flattened join cluster: the DP enumerator orders the
  // non-closure core (interesting-order aware, so orders that keep
  // merge/offset applicable downstream survive pruning), then the
  // closures attach greedily on top — late, once the core provides the
  // richest binding set for fixpoint seeding. Where DP does not apply
  // (see OptimizerOptions::dp_max_relations) the greedy pass orders the
  // whole cluster.
  RaExprPtr RewriteJoinCluster(const RaExprPtr& e) {
    std::vector<RaExprPtr> conjuncts, core, closures;
    Flatten(e, &conjuncts);
    for (const RaExprPtr& c : conjuncts) {
      (c->op() == RaOp::kTransitiveClosure ? closures : core).push_back(c);
    }
    DpPlannerOptions dp_options;
    dp_options.dop = options_.dop;
    dp_options.max_relations = options_.dp_max_relations;
    dp_options.deadline = options_.planning_deadline;
    dp_options.requested_order = requested_order_;
    if (RaExprPtr acc = DpPlanJoinOrder(core, &estimator_, dp_options)) {
      return AttachGreedily(std::move(acc), std::move(closures));
    }

    // Greedy: start from the cheapest non-closure conjunct (closures are
    // most valuable late, once a seed is available).
    size_t start = conjuncts.size();
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      bool closure = conjuncts[i]->op() == RaOp::kTransitiveClosure;
      if (start == conjuncts.size()) {
        start = i;
        continue;
      }
      bool best_closure = conjuncts[start]->op() == RaOp::kTransitiveClosure;
      if (closure != best_closure) {
        if (!closure) start = i;
        continue;
      }
      if (Rows(conjuncts[i]) < Rows(conjuncts[start])) start = i;
    }

    RaExprPtr acc = conjuncts[start];
    conjuncts.erase(conjuncts.begin() + static_cast<std::ptrdiff_t>(start));
    return AttachGreedily(std::move(acc), std::move(conjuncts));
  }

  // Joins every candidate onto `acc`, one per round: connected candidates
  // first, then the smallest estimated joined cardinality, ties going to
  // the earliest candidate in `candidates` order.
  RaExprPtr AttachGreedily(RaExprPtr acc, std::vector<RaExprPtr> candidates) {
    while (!candidates.empty()) {
      size_t best = 0;
      bool best_connected = false;
      double best_rows = 0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        bool connected = SharesColumn(acc, candidates[i]);
        double joined_rows = JoinedRows(acc, candidates[i]);
        if (i == 0 || (connected && !best_connected) ||
            (connected == best_connected && joined_rows < best_rows)) {
          best = i;
          best_connected = connected;
          best_rows = joined_rows;
        }
      }
      acc = JoinWithSeeding(std::move(acc), candidates[best]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
    }
    return acc;
  }

  // Joins `acc` with `next`; when `next` is an unseeded transitive closure
  // whose source or target column is already bound in `acc`, seed it so the
  // fixpoint only explores the reachable frontier. Every join the
  // optimizer emits is annotated by the physical join rule (ra_expr.h).
  // The executor validates each choice against the runtime Table
  // properties and degrades gracefully when a prediction (e.g. key-domain
  // density for kOffset) does not hold.
  RaExprPtr JoinWithSeeding(RaExprPtr acc, RaExprPtr next) {
    if (options_.enable_fixpoint_seeding &&
        next->op() == RaOp::kTransitiveClosure &&
        next->seed_side() == SeedSide::kNone) {
      bool src_bound = HasColumn(acc, next->src_col());
      bool tgt_bound = HasColumn(acc, next->tgt_col());
      if (src_bound || tgt_bound) {
        const std::string& col = src_bound ? next->src_col()
                                           : next->tgt_col();
        RaExprPtr seed =
            RaExpr::Distinct(RaExpr::Project(acc, {{col, col}}));
        next = RaExpr::TransitiveClosure(
            next->left(), next->src_col(), next->tgt_col(), std::move(seed),
            src_bound ? SeedSide::kSource : SeedSide::kTarget);
      }
    }
    JoinPhysical phys = AnalyzeJoinShape(*acc, *next);
    // Only a hash join's choice depends on sizes, so only it pays for the
    // estimates.
    if (phys.strategy == JoinStrategy::kFlatHash) {
      phys = PlanJoin(phys, Rows(acc), Rows(next), options_.dop);
    }
    return RaExpr::Join(std::move(acc), std::move(next), phys.strategy,
                        phys.parallel_hint);
  }

  Estimator estimator_;
  const OptimizerOptions& options_;
  // The ORDER BY keys of the nearest enclosing Sort/TopK being rewritten
  // (empty outside one); see RewriteOrdered.
  std::vector<SortKey> requested_order_;
  // Keeps estimate-only join probes alive for the estimator's lifetime
  // (see JoinedRows).
  std::vector<RaExprPtr> estimate_probes_;
};

}  // namespace

RaExprPtr OptimizePlan(const RaExprPtr& plan, const Catalog& catalog,
                       const OptimizerOptions& options) {
  Optimizer optimizer(catalog, options);
  return optimizer.Rewrite(plan);
}

}  // namespace gqopt
