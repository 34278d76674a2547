// Merged (overlay) view over a base adjacency run and a pending delta
// run: two sorted-unique, mutually disjoint pair sequences iterated as
// one sorted union with two cursors — no materialization, no re-sort.
// This is what the executor's edge scans read, so a scan over base +
// delta keeps the sorted-by-(source, target) physical property the join
// strategies and the limit-hint truncation rely on.

#ifndef GQOPT_INC_MERGED_VIEW_H_
#define GQOPT_INC_MERGED_VIEW_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/property_graph.h"

namespace gqopt {
namespace inc {

/// \brief A non-owning union view over two sorted-unique pair runs.
///
/// `base` is required (may be empty); `extra` is optional. Both runs are
/// sorted by (first, second); when they are disjoint — the DeltaStore
/// append path guarantees it — the union is sorted AND unique, so
/// consumers may mark their output sorted. Equal pairs are emitted once
/// anyway (robustness, not a licence to pass overlapping runs).
struct MergedEdgeRun {
  const std::vector<Edge>* base = nullptr;
  const std::vector<Edge>* extra = nullptr;

  size_t size() const {
    return (base ? base->size() : 0) + (extra ? extra->size() : 0);
  }
  bool empty() const { return size() == 0; }

  /// Calls `fn(pair)` for every pair in ascending (source, target)
  /// order; `fn` returns false to stop early (limit-hint truncation:
  /// the emitted prefix equals the full output's prefix).
  template <typename Fn>
  void Scan(Fn&& fn) const {
    static const std::vector<Edge> kEmpty;
    const std::vector<Edge>& a = base ? *base : kEmpty;
    const std::vector<Edge>& b = extra ? *extra : kEmpty;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        if (!fn(a[i++])) return;
      } else if (b[j] < a[i]) {
        if (!fn(b[j++])) return;
      } else {
        ++j;  // duplicate across runs: emit once
        if (!fn(a[i++])) return;
      }
    }
    for (; i < a.size(); ++i) {
      if (!fn(a[i])) return;
    }
    for (; j < b.size(); ++j) {
      if (!fn(b[j])) return;
    }
  }
};

}  // namespace inc
}  // namespace gqopt

#endif  // GQOPT_INC_MERGED_VIEW_H_
