#include "eval/binary_relation.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <new>

#include "util/fault_injection.h"

namespace gqopt {
namespace {

// Largest node id for which SemiJoinTarget builds a membership bitmap;
// beyond it (sparse ids) the per-pair binary search is used instead.
constexpr NodeId kMaxBitmapNode = NodeId{1} << 26;

}  // namespace

// Copies share the already-built index when the source has published one;
// a source mid-build simply yields a copy without an index (it rebuilds
// lazily). Reading csr_ is safe exactly when the acquire-load of csr_raw_
// returns non-null: the raw pointer is release-stored after csr_ is set
// and neither changes afterwards.

BinaryRelation::BinaryRelation(const BinaryRelation& other)
    : pairs_(other.pairs_) {
  if (const CsrView* raw = other.csr_raw_.load(std::memory_order_acquire)) {
    csr_ = other.csr_;
    csr_raw_.store(raw, std::memory_order_relaxed);
  }
}

BinaryRelation& BinaryRelation::operator=(const BinaryRelation& other) {
  if (this != &other) {
    pairs_ = other.pairs_;
    if (const CsrView* raw =
            other.csr_raw_.load(std::memory_order_acquire)) {
      csr_ = other.csr_;
      csr_raw_.store(raw, std::memory_order_relaxed);
    } else {
      csr_.reset();
      csr_raw_.store(nullptr, std::memory_order_relaxed);
    }
  }
  return *this;
}

BinaryRelation::BinaryRelation(BinaryRelation&& other) noexcept
    : pairs_(std::move(other.pairs_)), csr_(std::move(other.csr_)) {
  // Moving requires exclusive ownership of `other`, so relaxed is enough.
  csr_raw_.store(other.csr_raw_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  other.csr_raw_.store(nullptr, std::memory_order_relaxed);
}

BinaryRelation& BinaryRelation::operator=(BinaryRelation&& other) noexcept {
  if (this != &other) {
    pairs_ = std::move(other.pairs_);
    csr_ = std::move(other.csr_);
    csr_raw_.store(other.csr_raw_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    other.csr_raw_.store(nullptr, std::memory_order_relaxed);
  }
  return *this;
}

BinaryRelation BinaryRelation::FromPairs(std::vector<Edge> pairs) {
  SortUniquePairs(&pairs);
  BinaryRelation r;
  r.pairs_ = std::move(pairs);
  return r;
}

BinaryRelation BinaryRelation::FromSortedUnique(
    std::vector<Edge> pairs, std::shared_ptr<const CsrView> csr) {
  BinaryRelation r;
  r.pairs_ = std::move(pairs);
  r.csr_ = std::move(csr);
  if (r.csr_) r.csr_raw_.store(r.csr_.get(), std::memory_order_relaxed);
  return r;
}

bool BinaryRelation::Contains(Edge pair) const {
  return std::binary_search(pairs_.begin(), pairs_.end(), pair);
}

const CsrView& BinaryRelation::SourceCsr() const {
  // Hot path (EqualRange calls this per lookup): one acquire load.
  if (const CsrView* csr = csr_raw_.load(std::memory_order_acquire)) {
    return *csr;
  }
  return BuildSourceCsr();
}

const CsrView& BinaryRelation::BuildSourceCsr() const {
  // One process-wide build mutex: builds are rare (once per relation) and
  // short, so contention is irrelevant next to per-relation mutex bloat.
  static std::mutex build_mu;
  std::lock_guard<std::mutex> lock(build_mu);
  if (const CsrView* csr = csr_raw_.load(std::memory_order_relaxed)) {
    return *csr;
  }
  if (FaultHit(FaultPoint::kCsrBuild) == FaultKind::kAlloc) {
    throw std::bad_alloc();
  }
  if (!csr_) csr_ = std::make_shared<const CsrView>(CsrView::Build(pairs_));
  csr_raw_.store(csr_.get(), std::memory_order_release);
  return *csr_;
}

std::pair<uint32_t, uint32_t> BinaryRelation::EqualRange(NodeId v) const {
  const CsrView& csr = SourceCsr();
  if (csr.indexed()) return csr.Range(v);
  auto lo = std::lower_bound(pairs_.begin(), pairs_.end(), Edge{v, 0});
  auto hi = std::upper_bound(
      lo, pairs_.end(), Edge{v, std::numeric_limits<NodeId>::max()});
  return {static_cast<uint32_t>(lo - pairs_.begin()),
          static_cast<uint32_t>(hi - pairs_.begin())};
}

Result<BinaryRelation> BinaryRelation::Compose(const BinaryRelation& a,
                                               const BinaryRelation& b,
                                               const Deadline& deadline) {
  if (a.empty() || b.empty()) return BinaryRelation();
  const std::vector<Edge>& bp = b.pairs_;
  const std::vector<Edge>& ap = a.pairs_;
  // a is sorted by source, so the output is produced in runs of equal x.
  // Sorting/deduping each run's targets independently yields globally
  // sorted-unique output without a final full-size sort.
  std::vector<Edge> out;
  std::vector<NodeId> targets;
  DeadlinePoller poll(deadline);
  size_t i = 0;
  while (i < ap.size()) {
    NodeId x = ap[i].first;
    targets.clear();
    for (; i < ap.size() && ap[i].first == x; ++i) {
      auto [lo, hi] = b.EqualRange(ap[i].second);
      for (uint32_t j = lo; j < hi; ++j) {
        targets.push_back(bp[j].second);
        if (poll.Due()) {
          if (deadline.Expired()) {
            return Status::DeadlineExceeded("compose timed out");
          }
          if (out.size() + targets.size() > kMaxPairs) {
            return Status::ResourceExhausted(
                "compose exceeded the intermediate-result cap");
          }
        }
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (NodeId z : targets) out.emplace_back(x, z);
  }
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Union(const BinaryRelation& a,
                                     const BinaryRelation& b) {
  std::vector<Edge> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                 b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Intersect(const BinaryRelation& a,
                                         const BinaryRelation& b) {
  std::vector<Edge> out;
  std::set_intersection(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                        b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Difference(const BinaryRelation& a,
                                         const BinaryRelation& b) {
  std::vector<Edge> out;
  std::set_difference(a.pairs_.begin(), a.pairs_.end(), b.pairs_.begin(),
                      b.pairs_.end(), std::back_inserter(out));
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::Reverse() const {
  std::vector<Edge> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.emplace_back(e.second, e.first);
  // Reversing a unique pair set keeps it unique: sort directly, no dedup.
  std::sort(out.begin(), out.end());
  return FromSortedUnique(std::move(out));
}

Result<BinaryRelation> BinaryRelation::TransitiveClosure(
    const BinaryRelation& r, const Deadline& deadline) {
  return TransitiveClosure(r, ExecContext{deadline});
}

BinaryRelation BinaryRelation::SemiJoinSource(
    const std::vector<NodeId>& nodes) const {
  if (empty() || nodes.empty()) return BinaryRelation();
  // Each kept source contributes a contiguous pair range; `nodes` is
  // sorted and unique, so concatenating the ranges preserves sorted
  // order.
  std::vector<Edge> out;
  for (NodeId v : nodes) {
    auto [lo, hi] = EqualRange(v);
    out.insert(out.end(), pairs_.begin() + lo, pairs_.begin() + hi);
  }
  return FromSortedUnique(std::move(out));
}

BinaryRelation BinaryRelation::SemiJoinTarget(
    const std::vector<NodeId>& nodes) const {
  if (empty() || nodes.empty()) return BinaryRelation();
  std::vector<Edge> out;
  // The bitmap costs O(max node id); require the id domain to be dense
  // relative to the input sizes, else binary-search per pair.
  if (nodes.back() < kMaxBitmapNode &&
      nodes.back() < 64 * (nodes.size() + pairs_.size()) + 1024) {
    // O(1) membership via a dense bitmap over the node-id domain.
    std::vector<bool> member(nodes.back() + 1, false);
    for (NodeId v : nodes) member[v] = true;
    for (const Edge& e : pairs_) {
      if (e.second < member.size() && member[e.second]) out.push_back(e);
    }
  } else {
    for (const Edge& e : pairs_) {
      if (std::binary_search(nodes.begin(), nodes.end(), e.second)) {
        out.push_back(e);
      }
    }
  }
  return FromSortedUnique(std::move(out));
}

std::vector<NodeId> BinaryRelation::Sources() const {
  std::vector<NodeId> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.push_back(e.first);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> BinaryRelation::Targets() const {
  std::vector<NodeId> out;
  out.reserve(pairs_.size());
  for (const Edge& e : pairs_) out.push_back(e.second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gqopt
