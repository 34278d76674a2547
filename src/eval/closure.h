// Transitive closure evaluation. Every closure in the engine runs one
// semi-naive (delta) fixpoint kernel (eval/closure.cc):
// BinaryRelation::TransitiveClosure starts it from the whole relation,
// SeededClosure from the pairs whose source or target is a seed (the
// µ-RA join pushdown).
//
// The kernel extends the second, moving component of (fixed, moving)
// pairs: a round extends every frontier pair through the relation's CSR
// and keeps the candidates its PairDedupSet insert admits as the next
// frontier. A target-seeded closure runs over the reversed relation, so
// its fixed component is the target, and swaps its pairs back.
//
// Expansion never changes a pair's fixed component, so pairs with
// different fixed values never meet. The start pairs, sorted by fixed
// value, split into contiguous ranges of whole fixed values, and each
// range runs the loop alone with a dedup set over its own fixed values:
// one range when serial, one range per pool morsel at dop > 1. The
// ranges share the deadline, memory-budget and result-cap polls, so both
// entry points fail with the same typed statuses ("transitive closure
// ..." or "seeded closure ..."), and the cap counts the pairs of all
// ranges together.
//
// Invariant: the output is the sorted set of closure pairs, so it is the
// same at every dop.

#ifndef GQOPT_EVAL_CLOSURE_H_
#define GQOPT_EVAL_CLOSURE_H_

#include <cstddef>
#include <vector>

#include "eval/binary_relation.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace gqopt {

/// Bound for the seeded-closure top-k frontier prune: once `k` result
/// pairs are held, frontier entries and candidate pairs whose fixed-side
/// component (the source for source seeds, the target for target seeds)
/// sorts strictly after the current k-th best fixed-side value can never
/// enter the top k — expansion preserves the fixed component — so they
/// are dropped. `k == 0` disables. A bounded closure runs as one range.
struct ClosureTopKBound {
  size_t k = 0;
  bool descending = false;  // direction of the leading TopK key
};

/// Closure of `base` restricted to the pairs whose source (`seed_source`)
/// or target lies in sorted-unique `seeds`. With a bound, the result
/// holds every pair that can reach the top k under a leading key on the
/// fixed column, but not necessarily the rest — it only ever feeds the
/// TopK that set the bound. Pairs the prune dropped are added to
/// `*pruned` when it is non-null.
Result<BinaryRelation> SeededClosure(const BinaryRelation& base,
                                     const std::vector<NodeId>& seeds,
                                     bool seed_source, const ExecContext& ctx,
                                     const ClosureTopKBound& bound = {},
                                     size_t* pruned = nullptr);

}  // namespace gqopt

#endif  // GQOPT_EVAL_CLOSURE_H_
