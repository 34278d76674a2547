// Set-semantics binary relations over node ids: the value domain of path
// expression evaluation (paper Fig 5 interprets every expression as a set
// of (source, target) node pairs).

#ifndef GQOPT_EVAL_BINARY_RELATION_H_
#define GQOPT_EVAL_BINARY_RELATION_H_

#include <atomic>
#include <memory>
#include <vector>

#include "eval/csr_view.h"
#include "graph/property_graph.h"
#include "util/deadline.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace gqopt {

/// Hard cap on the pairs one relation operation materializes (~128 MB of
/// Edge storage): compositions and closures whose results exceed it fail
/// with ResourceExhausted, which the benchmark harness counts as
/// infeasible — the in-memory analogue of the paper's 30-minute timeout.
inline constexpr size_t kMaxPairs = size_t{1} << 24;

/// \brief Immutable sorted-unique set of (source, target) node pairs.
///
/// All operations respect set semantics; the mutating builders sort/dedup
/// once at construction. A CSR offset index over the pairs is built lazily
/// on first use and shared across copies (the pair set is immutable), so
/// repeated compositions against the same relation — the fixpoint inner
/// loop — pay for the index once.
///
/// Threading: const access (including the lazy SourceCsr build) is safe
/// from any number of threads — the index is published through an atomic
/// pointer with the build serialized behind a mutex, so concurrent
/// first-touch lookups in a shared relation race-freely build it once.
/// Copying FROM a shared relation is likewise safe; the copy/move *target*
/// must be exclusively owned, as usual for assignment.
class BinaryRelation {
 public:
  BinaryRelation() = default;
  BinaryRelation(const BinaryRelation& other);
  BinaryRelation& operator=(const BinaryRelation& other);
  BinaryRelation(BinaryRelation&& other) noexcept;
  BinaryRelation& operator=(BinaryRelation&& other) noexcept;

  /// Takes ownership of `pairs`; sorts and deduplicates.
  static BinaryRelation FromPairs(std::vector<Edge> pairs);

  /// Wraps pairs already sorted by (first, second) and unique. The
  /// optional `csr` adopts a pre-built index over the same pair contents
  /// (e.g. the PropertyGraph per-label cache) instead of rebuilding it.
  static BinaryRelation FromSortedUnique(
      std::vector<Edge> pairs, std::shared_ptr<const CsrView> csr = nullptr);

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::vector<Edge>& pairs() const { return pairs_; }

  bool Contains(Edge pair) const;

  /// CSR index over the pairs by source; built on first call, cached.
  /// May be unindexed (csr.indexed() == false) for pathologically sparse
  /// source ids — prefer EqualRange(), which handles both cases.
  const CsrView& SourceCsr() const;

  /// Index range [first, second) into pairs() whose source is `v`:
  /// O(1) through the CSR for dense id spaces, binary search otherwise.
  std::pair<uint32_t, uint32_t> EqualRange(NodeId v) const;

  /// Relational composition a ; b = {(x,z) | (x,y) in a, (y,z) in b}.
  static Result<BinaryRelation> Compose(const BinaryRelation& a,
                                        const BinaryRelation& b,
                                        const Deadline& deadline = {});

  static BinaryRelation Union(const BinaryRelation& a,
                              const BinaryRelation& b);
  static BinaryRelation Intersect(const BinaryRelation& a,
                                  const BinaryRelation& b);
  static BinaryRelation Difference(const BinaryRelation& a,
                                   const BinaryRelation& b);

  /// {(y,x) | (x,y) in this}.
  BinaryRelation Reverse() const;

  /// Transitive closure via the semi-naive kernel of eval/closure.h
  /// (defined in eval/closure.cc, next to it). The deadline form runs at
  /// the core-aware DefaultDop(); pass an ExecContext to set how many
  /// ranges of source values run their fixpoints at once. The result is
  /// the sorted closure, the same at every dop.
  static Result<BinaryRelation> TransitiveClosure(
      const BinaryRelation& r, const Deadline& deadline = {});
  static Result<BinaryRelation> TransitiveClosure(const BinaryRelation& r,
                                                  const ExecContext& ctx);

  /// Keeps pairs whose source satisfies `keep`. Templated so the predicate
  /// inlines into the scan loop.
  template <typename Pred>
  BinaryRelation FilterSource(const Pred& keep) const {
    std::vector<Edge> out;
    for (const Edge& e : pairs_) {
      if (keep(e.first)) out.push_back(e);
    }
    return FromSortedUnique(std::move(out));
  }

  /// Keeps pairs whose target satisfies `keep`.
  template <typename Pred>
  BinaryRelation FilterTarget(const Pred& keep) const {
    std::vector<Edge> out;
    for (const Edge& e : pairs_) {
      if (keep(e.second)) out.push_back(e);
    }
    return FromSortedUnique(std::move(out));
  }

  /// Keeps pairs whose source appears in sorted-unique `nodes`.
  BinaryRelation SemiJoinSource(const std::vector<NodeId>& nodes) const;
  /// Keeps pairs whose target appears in sorted-unique `nodes`.
  BinaryRelation SemiJoinTarget(const std::vector<NodeId>& nodes) const;

  /// Distinct sources, sorted.
  std::vector<NodeId> Sources() const;
  /// Distinct targets, sorted.
  std::vector<NodeId> Targets() const;

  bool operator==(const BinaryRelation& other) const {
    return pairs_ == other.pairs_;
  }

 private:
  /// Slow path of SourceCsr(): builds (or adopts) the index under a
  /// global build mutex and publishes it through csr_raw_.
  const CsrView& BuildSourceCsr() const;

  std::vector<Edge> pairs_;
  // Lazy CSR over pairs_ by source. Offsets are positional, so a copied
  // relation shares the index with its original. Never reassigned once
  // published (pairs_ is immutable after construction). csr_ owns the
  // index; csr_raw_ is the atomic publication readers load — non-null
  // means csr_ is set and safe to read without synchronization.
  mutable std::shared_ptr<const CsrView> csr_;
  mutable std::atomic<const CsrView*> csr_raw_{nullptr};
};

}  // namespace gqopt

#endif  // GQOPT_EVAL_BINARY_RELATION_H_
