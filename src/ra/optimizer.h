// RRA plan optimizer (the µ-RA-style optimisation step of the paper's
// Translator, §4):
//  - flattens join clusters and orders them with the cost-based DP
//    enumerator (src/ra/planner/) — interesting-order aware, so orders
//    that keep merge/offset joins applicable downstream survive — with
//    the PR-1 greedy pass (cheapest-first, connected-next) retained as
//    the fallback above the DP size cutoff and behind
//    OptimizerOptions::planner = kGreedy;
//  - pushes joins into fixpoints: an unseeded transitive closure joined on
//    its source (or target) column is rewritten into a seeded closure whose
//    semi-naive iteration only explores the relevant frontier (the µ-RA
//    join-pushdown of Jachiet et al. applied to UCQT's recursion).
//
// The optimizer is applied to both baseline and schema-enriched plans, so
// measured speedups isolate the contribution of the schema rewriting.

#ifndef GQOPT_RA_OPTIMIZER_H_
#define GQOPT_RA_OPTIMIZER_H_

#include "ra/catalog.h"
#include "ra/planner/dp_enumerator.h"
#include "ra/ra_expr.h"
#include "util/deadline.h"
#include "util/exec_context.h"

namespace gqopt {

/// Optimizer switches (ablations).
struct OptimizerOptions {
  bool enable_fixpoint_seeding = true;
  /// Degree of parallelism the plan is optimized for: hash joins whose
  /// estimated inputs cross the parallel row threshold are annotated
  /// with a "p=dop" hint (shown by EXPLAIN, validated by the executor).
  /// Defaults to the core-aware DefaultDop(); 1 plans serially.
  int dop = DefaultDop();
  /// Join-order planner: the cost-based DP enumerator (default) or the
  /// greedy pass. The DP planner itself falls back to greedy for clusters
  /// above `dp_max_relations`, for clusters with more than 64 distinct
  /// columns, and when `planning_deadline` expires mid-enumeration.
  PlannerKind planner = PlannerKind::kDp;
  size_t dp_max_relations = kDpMaxJoinRelations;
  /// Deadline polled by the DP enumeration loops (planning-time budget,
  /// distinct from the execution deadline). Default: never expires.
  Deadline planning_deadline;
};

/// Returns an optimized equivalent of `plan`.
RaExprPtr OptimizePlan(const RaExprPtr& plan, const Catalog& catalog,
                       const OptimizerOptions& options = {});

}  // namespace gqopt

#endif  // GQOPT_RA_OPTIMIZER_H_
