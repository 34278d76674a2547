// Cost-based dynamic-programming join-order enumeration (System-R DPsize
// over connected subsets) with interesting-order awareness: per subset the
// table keeps the cheapest plan *for each distinct sorted-column-prefix*,
// not one global winner, so an ordering that keeps a merge or offset join
// applicable downstream survives pruning even when it is locally more
// expensive than hashing. This is the planning-side counterpart of the
// executor's ordering-property machinery (PR 2) — and the "interesting-
// order-aware join ordering" step the ROADMAP names.
//
// The enumerator works on lightweight candidates (column-id vectors,
// cardinality/NDV estimates, the strategy cost model of cost_model.h) and
// only materializes RaExpr nodes for the winning tree. Each candidate
// join takes its strategy, ordering and p=N hint from the physical join
// rule (ra_expr.h) that also annotates the materialized tree, and its
// cardinality from formulas mirroring the Estimator's (ra/explain.h), so
// the cost EXPLAIN prints for the chosen plan is the cost the enumerator
// minimized.

#ifndef GQOPT_RA_PLANNER_DP_ENUMERATOR_H_
#define GQOPT_RA_PLANNER_DP_ENUMERATOR_H_

#include <vector>

#include "ra/explain.h"
#include "ra/ra_expr.h"
#include "util/deadline.h"

namespace gqopt {

/// Join clusters above this size fall back to the greedy pass (DPsize is
/// exponential in the cluster size; 10 relations stay well under the
/// 50 ms planning budget, see BM_PlanEnumeration).
constexpr size_t kDpMaxJoinRelations = 10;

/// Enumeration settings (a subset of OptimizerOptions, to keep the
/// planner layer free of an optimizer.h dependency).
struct DpPlannerOptions {
  /// Degree of parallelism plans are costed for (the p=N hint discount).
  int dop = 1;
  /// Cluster-size cutoff; larger clusters return nullptr (greedy runs).
  size_t max_relations = kDpMaxJoinRelations;
  /// Enumeration polls this deadline and bails to nullptr on expiry.
  Deadline deadline;
  /// The query's ORDER BY keys, when one sits above this cluster: a
  /// requested interesting order. Winner selection charges candidates
  /// that do NOT deliver the requested ascending prefix a full sort of
  /// their output (rows * log2 rows), so an already-ordered plan wins
  /// whenever the sort it saves outweighs its extra join cost. Empty =
  /// no order requested (pure cheapest-cost selection).
  std::vector<SortKey> requested_order;
};

/// Enumerates join orders over `relations` (the flattened, already
/// rewritten conjuncts of one join cluster, none of them closures) and
/// returns the cheapest strategy-annotated join tree, or nullptr when DP
/// is not applicable (fewer than 2 relations, cluster above the cutoff,
/// more than 64 distinct columns, or deadline expiry) — the caller then
/// falls back to the greedy pass. `estimator` supplies the leaf
/// cardinalities; disconnected clusters are planned per connected
/// component and cross-joined smallest-first.
RaExprPtr DpPlanJoinOrder(const std::vector<RaExprPtr>& relations,
                          Estimator* estimator,
                          const DpPlannerOptions& options);

}  // namespace gqopt

#endif  // GQOPT_RA_PLANNER_DP_ENUMERATOR_H_
