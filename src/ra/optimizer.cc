#include "ra/optimizer.h"

#include <algorithm>
#include <vector>

#include "ra/explain.h"
#include "util/radix.h"

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

  RaExprPtr RewriteJoinCluster(const RaExprPtr& e) {
    std::vector<RaExprPtr> conjuncts;
    Flatten(e, &conjuncts);
    if (options_.planner == PlannerKind::kDp) {
      RaExprPtr planned = DpRewriteJoinCluster(conjuncts);
      if (planned != nullptr) return planned;
      // DP not applicable (cluster too large, too many columns, or the
      // planning deadline expired): the greedy pass below runs instead.
    }

    // Pick the cheapest non-closure conjunct as the start (closures are
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

    std::vector<bool> used(conjuncts.size(), false);
    RaExprPtr acc = conjuncts[start];
    used[start] = true;
    for (size_t round = 1; round < conjuncts.size(); ++round) {
      // Among unused conjuncts, prefer connected ones minimizing the
      // estimated joined cardinality.
      size_t best = conjuncts.size();
      bool best_connected = false;
      double best_rows = 0;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (used[i]) continue;
        bool connected = SharesColumn(acc, conjuncts[i]);
        double joined_rows = JoinedRows(acc, conjuncts[i]);
        if (best == conjuncts.size() || (connected && !best_connected) ||
            (connected == best_connected && joined_rows < best_rows)) {
          best = i;
          best_connected = connected;
          best_rows = joined_rows;
        }
      }
      acc = JoinWithSeeding(std::move(acc), conjuncts[best]);
      used[best] = true;
    }
    return acc;
  }

  // Cost-based join ordering for one flattened cluster: the DP enumerator
  // orders the non-closure core (interesting-order aware, so orders that
  // keep merge/offset applicable downstream survive pruning), then the
  // closures attach greedily on top — late, once the core provides the
  // richest binding set for fixpoint seeding (the same "closures last"
  // preference the greedy start-selection encodes). Returns nullptr when
  // DP is not applicable and the greedy pass should run.
  RaExprPtr DpRewriteJoinCluster(const std::vector<RaExprPtr>& conjuncts) {
    std::vector<RaExprPtr> core, closures;
    for (const RaExprPtr& c : conjuncts) {
      (c->op() == RaOp::kTransitiveClosure ? closures : core).push_back(c);
    }
    if (core.size() < 2) return nullptr;

    DpPlannerOptions dp_options;
    dp_options.dop = options_.dop;
    dp_options.max_relations = options_.dp_max_relations;
    dp_options.deadline = options_.planning_deadline;
    dp_options.low_memory = options_.low_memory;
    dp_options.requested_order = requested_order_;
    RaExprPtr acc = DpPlanJoinOrder(core, &estimator_, dp_options);
    if (acc == nullptr) return nullptr;

    // Attach closures with the greedy criterion: connected-first,
    // smallest estimated joined cardinality next.
    std::vector<bool> used(closures.size(), false);
    for (size_t round = 0; round < closures.size(); ++round) {
      size_t best = closures.size();
      bool best_connected = false;
      double best_rows = 0;
      for (size_t i = 0; i < closures.size(); ++i) {
        if (used[i]) continue;
        bool connected = SharesColumn(acc, closures[i]);
        double joined_rows = JoinedRows(acc, closures[i]);
        if (best == closures.size() || (connected && !best_connected) ||
            (connected == best_connected && joined_rows < best_rows)) {
          best = i;
          best_connected = connected;
          best_rows = joined_rows;
        }
      }
      acc = JoinWithSeeding(std::move(acc), closures[best]);
      used[best] = true;
    }
    return acc;
  }

  // Joins `acc` with `next`; when `next` is an unseeded transitive closure
  // whose source or target column is already bound in `acc`, seed it so the
  // fixpoint only explores the reachable frontier. Every join the
  // optimizer emits is annotated with its physical strategy: the choice
  // the propagated ordering properties admit (AnalyzeJoinShape), with the
  // hash fallback refined to radix-partitioned when the estimated build
  // side is large enough to pay for the partition passes. The executor
  // validates each choice against the runtime Table properties and
  // degrades gracefully when a prediction (e.g. key-domain density for
  // kOffset) does not hold.
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
    if (phys.strategy == JoinStrategy::kFlatHash && !options_.low_memory &&
        std::min(Rows(acc), Rows(next)) >=
            static_cast<double>(kRadixMinBuildRows)) {
      // Skipped under the memory rung: the radix scatter copies both
      // inputs, the flat index copies neither.
      phys.strategy = JoinStrategy::kRadixHash;
    }
    // Parallelism hint: hash joins partition their work (radix scatter,
    // probe ranges), so when planning for dop > 1 and the estimated
    // probe side crosses the runtime degrade threshold, predict the
    // join runs at the full dop. Merge/offset joins stream in order and
    // stay serial. The executor re-validates against actual table sizes.
    int hint = 0;
    if (phys.strategy == JoinStrategy::kRadixHash ||
        phys.strategy == JoinStrategy::kFlatHash) {
      hint = options_.dop > 1 &&
                     std::max(Rows(acc), Rows(next)) >=
                         static_cast<double>(kParallelMinRows)
                 ? options_.dop
                 : 1;
    }
    return RaExpr::Join(std::move(acc), std::move(next), phys.strategy, hint);
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
