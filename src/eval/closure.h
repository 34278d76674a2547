// Transitive closure evaluation. Every closure in the engine runs one
// semi-naive (delta) fixpoint kernel (eval/closure.cc):
// BinaryRelation::TransitiveClosure starts it from the whole relation,
// SeededClosure from the pairs whose source or target is a seed (the
// µ-RA join pushdown), over the forward or the reversed adjacency.
//
// A round extends every frontier pair through the adjacency's CSR and
// deduplicates each candidate against the pairs found so far with one
// PairDedupSet insert; the survivors form the next frontier. Deadline,
// memory-budget and result-cap polls are shared by both entry points, so
// they fail with the same typed statuses ("transitive closure ..." or
// "seeded closure ...").
//
// Bit-identity at every dop. The dedup insert is a round's only
// mutation, so a parallel round splits in two:
//   phase A (parallel): morsels of the frontier walk the adjacency and
//     keep the candidates the frozen dedup set does not contain
//     (read-only Contains) — the expensive part fans out;
//   phase B (serial): the buffered candidates are inserted in morsel
//     order and the survivors appended to the next frontier.
// A pair several morsels generate passes phase A in each, but phase B
// keeps only its first occurrence — in frontier order, exactly where the
// serial insert-as-you-go loop keeps it. The accumulated pairs, the next
// frontier and the top-k prune decisions (taken serially between rounds)
// are therefore the same sequence at every dop. When phase A's buffers
// cross twice the result cap — possible without the deduplicated result
// being near it, when many frontier pairs regenerate the same few pairs —
// the round is redone by the serial loop, which never buffers candidates:
// whether a closure succeeds never depends on the dop, only how fast such
// a round runs.

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
/// are dropped. `k == 0` disables.
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
