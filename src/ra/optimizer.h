// RRA plan optimizer (the µ-RA-style optimisation step of the paper's
// Translator, §4):
//  - flattens join clusters and orders them with the cost-based DP
//    enumerator (src/ra/planner/) — interesting-order aware, so orders
//    that keep merge/offset joins applicable downstream survive — with
//    a greedy pass (cheapest-first, connected-next) as its fallback
//    where DP does not apply (see OptimizerOptions::dp_max_relations);
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
  /// Join clusters are ordered by the DP enumerator, which falls back to
  /// the greedy pass for fewer than 2 non-closure relations, for more
  /// than `dp_max_relations` of them (1 = always greedy), for more than
  /// 64 distinct columns, and when `planning_deadline` expires.
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
