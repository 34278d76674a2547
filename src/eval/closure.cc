#include "eval/closure.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <string_view>

#include "util/flat_hash.h"
#include "util/mem_tracker.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

// What the ranges of one closure share (see eval/closure.h). `adj`
// extends the moving component; `total` counts the pairs all ranges have
// found (distinct, as the ranges' fixed values are) against the one
// result cap.
struct Closure {
  const BinaryRelation& adj;
  const ExecContext& ctx;
  std::string_view what;
  const ClosureTopKBound& bound;
  size_t* pruned;
  NodeId moving_lo;
  NodeId moving_hi;
  bool dense;  // dedup form, chosen once from the whole closure's domain
  std::atomic<size_t> total;
};

// One range's output: its closure pairs and their memory charge, which
// is held until the closure returns.
struct Range {
  std::vector<Edge> pairs;
  GrowthCharge charge;
  Status status;
};

// The semi-naive loop over the start pairs [first, last), which hold all
// start pairs of their fixed values. Leaves the range's closure pairs,
// unsorted, in out->pairs.
Status RangeFixpoint(const Edge* first, const Edge* last, Closure& c,
                     Range* out) {
  const ExecContext& ctx = c.ctx;
  const Deadline& deadline = ctx.deadline;
  const std::vector<Edge>& adj_pairs = c.adj.pairs();
  out->charge = GrowthCharge(ctx.mem);
  std::vector<Edge>& acc = out->pairs;
  acc.assign(first, last);
  PairDedupSet seen(first->first, (last - 1)->first, c.moving_lo,
                    c.moving_hi, c.dense, acc.size() * 4, ctx.mem);
  for (const Edge& e : acc) seen.Insert(e.first, e.second);
  std::vector<Edge> delta = acc;
  std::vector<Edge> next;

  // ---- Top-k frontier prune -----------------------------------------------
  // Expansion preserves the fixed component, so once k result pairs
  // exist, any pair whose fixed value sorts strictly after the k-th best
  // fixed value — and every pair reachable from it — is outside the top
  // k under a leading key on the fixed column. Track the k best fixed
  // values (duplicates count: the bound is the k-th ROW's key) in a
  // worst-on-top heap; drop frontier entries and fresh candidates that
  // sort strictly past its top. Ties are kept, so results are exact.
  const ClosureTopKBound& bound = c.bound;
  const bool prune = bound.k > 0;
  std::vector<NodeId> best;  // worst-on-top heap, size <= bound.k
  // a strictly before b in key order.
  auto better = [desc = bound.descending](NodeId a, NodeId b) {
    return desc ? a > b : a < b;
  };
  // std heaps put the comparator's maximum at front; comparing by
  // `better` makes the front the worst retained value — the bound.
  auto observe = [&](NodeId v) {
    if (best.size() < bound.k) {
      best.push_back(v);
      std::push_heap(best.begin(), best.end(), better);
    } else if (better(v, best.front())) {
      std::pop_heap(best.begin(), best.end(), better);
      best.back() = v;
      std::push_heap(best.begin(), best.end(), better);
    }
  };
  auto prunable = [&](NodeId v) {
    return best.size() == bound.k && better(best.front(), v);
  };
  auto count_pruned = [pruned = c.pruned](size_t n) {
    if (pruned != nullptr) *pruned += n;
  };
  // Admits `pairs` in order, tightening the bound as it goes; with
  // `drop`, first removes (in place, order kept) and counts the pairs
  // already past it.
  auto admit = [&](std::vector<Edge>* pairs, bool drop) {
    size_t kept = 0;
    for (const Edge& p : *pairs) {
      if (drop && prunable(p.first)) continue;
      observe(p.first);
      (*pairs)[kept++] = p;
    }
    count_pruned(pairs->size() - kept);
    pairs->resize(kept);
  };
  if (prune) {
    best.reserve(bound.k);
    admit(&acc, /*drop=*/false);
  }

  DeadlinePoller poll(deadline);
  // The poll at each round and, strided, in the insert loop below: the
  // deadline, the budget and the result cap over all ranges. A range
  // that adds pairs always runs one more round, so it polls the cap
  // after its last addition. Kept out of the per-candidate path, which
  // is one dedup insert and one append.
  auto check = [&]() -> Status {
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, c.what);
    }
    if (c.total.load(std::memory_order_relaxed) + next.size() > kMaxPairs) {
      return Status::ResourceExhausted(std::string(c.what) +
                                       " exceeded the result cap");
    }
    return Status::OK();
  };

  while (!delta.empty()) {
    next.clear();
    GQOPT_RETURN_NOT_OK(check());
    if (prune) {
      // Pre-filter the frontier against the current bound (it only ever
      // tightens).
      size_t kept = 0;
      for (const Edge& d : delta) {
        if (prunable(d.first)) continue;
        delta[kept++] = d;
      }
      count_pruned(delta.size() - kept);
      delta.resize(kept);
      if (delta.empty()) break;
    }
    for (const Edge& d : delta) {
      auto [lo, hi] = c.adj.EqualRange(d.second);
      for (uint32_t i = lo; i < hi; ++i) {
        NodeId z = adj_pairs[i].second;
        if (seen.Insert(d.first, z)) next.emplace_back(d.first, z);
        if (poll.Due()) GQOPT_RETURN_NOT_OK(check());
      }
    }
    if (prune) {
      // Filter the round's candidates, tightening the bound as survivors
      // are admitted (in frontier order). Pruned candidates never
      // re-enter (they are already in the dedup set) and are excluded
      // from the result — sound because a bounded evaluation only ever
      // feeds the TopK that set the bound and is never memoized as the
      // closure's full result.
      admit(&next, /*drop=*/true);
    }
    acc.insert(acc.end(), next.begin(), next.end());
    c.total.fetch_add(next.size(), std::memory_order_relaxed);
    // Charges the accumulator/frontier buffers against the query budget,
    // re-measured once per round (they only grow).
    if (!out->charge.Update(static_cast<size_t>(
            (acc.capacity() + delta.capacity() + next.capacity()) *
            sizeof(Edge)))) {
      return AbortStatus(ctx, c.what);
    }
    delta.swap(next);
  }
  return Status::OK();
}

// The kernel: the closure of `adj` from the non-empty `start` pairs, a
// subset of `adj` sorted by fixed value. With `swapped`, the result holds
// each (fixed, moving) pair as (moving, fixed).
Result<BinaryRelation> Fixpoint(const std::vector<Edge>& start,
                                const BinaryRelation& adj,
                                const ExecContext& ctx, std::string_view what,
                                const ClosureTopKBound& bound, size_t* pruned,
                                bool swapped) {
  // Force the lazy CSR build before ranges run concurrently, so no
  // worker waits on the build mutex.
  adj.SourceCsr();
  // Dedup domain: the fixed component stays within the start pairs, the
  // moving one within the adjacency's targets.
  NodeId moving_lo = std::numeric_limits<NodeId>::max();
  NodeId moving_hi = 0;
  for (const Edge& e : adj.pairs()) {
    moving_lo = std::min(moving_lo, e.second);
    moving_hi = std::max(moving_hi, e.second);
  }
  bool dense = PairDedupSet::DenseFits(
      uint64_t{start.back().first} - start.front().first + 1,
      uint64_t{moving_hi} - moving_lo + 1);
  Closure c{adj,       ctx,       what,  bound,       pruned,
            moving_lo, moving_hi, dense, start.size()};

  // Like every operator, the closure sizes its parallelism by its input.
  // A bounded closure runs as one range: its prune bound is global. One
  // range runs inline on the caller's thread.
  int par = bound.k == 0 ? ctx.EffectiveDop(adj.size()) : 1;
  // No fixed value spans two ranges.
  std::vector<size_t> cuts = CutAtRuns(
      start.size(),
      par > 1 ? ParallelGrain(start.size(), par, 1) : start.size(),
      [&start](size_t i) { return start[i].first == start[i - 1].first; });
  std::vector<Range> ranges(cuts.size() - 1);
  bool ok = ParallelFor(
      ctx.TaskPool(), par, ranges.size(), 1, ctx.deadline,
      [&](size_t r, size_t) {
        ranges[r].status = RangeFixpoint(start.data() + cuts[r],
                                         start.data() + cuts[r + 1], c,
                                         &ranges[r]);
        return ranges[r].status.ok();
      });
  for (const Range& range : ranges) GQOPT_RETURN_NOT_OK(range.status);
  if (!ok) return AbortStatus(ctx, what);
  // Sorted only once every range succeeded, so a closure that fails (on
  // the result cap, say) sorts nothing. The ranges hold ascending,
  // disjoint fixed values, so sorted ranges concatenate into a sorted
  // result.
  if (!swapped && !ParallelFor(ctx.TaskPool(), par, ranges.size(), 1,
                               ctx.deadline, [&](size_t r, size_t) {
                                 SortUniquePairs(&ranges[r].pairs);
                                 return true;
                               })) {
    return AbortStatus(ctx, what);
  }

  // The ranges keep their memory charges until the closure returns: the
  // concatenated result holds the same pairs.
  std::vector<Edge> out = std::move(ranges[0].pairs);
  if (ranges.size() > 1) {
    out.reserve(c.total.load(std::memory_order_relaxed));
    for (size_t r = 1; r < ranges.size(); ++r) {
      out.insert(out.end(), ranges[r].pairs.begin(), ranges[r].pairs.end());
      ranges[r].pairs = {};
    }
  }
  if (swapped) {
    for (Edge& e : out) std::swap(e.first, e.second);
    SortUniquePairs(&out);
  }
  return BinaryRelation::FromSortedUnique(std::move(out));
}

}  // namespace

Result<BinaryRelation> BinaryRelation::TransitiveClosure(
    const BinaryRelation& r, const ExecContext& ctx) {
  if (r.empty()) return r;
  return Fixpoint(r.pairs_, r, ctx, "transitive closure", ClosureTopKBound(),
                  nullptr, /*swapped=*/false);
}

Result<BinaryRelation> SeededClosure(const BinaryRelation& base,
                                     const std::vector<NodeId>& seeds,
                                     bool seed_source, const ExecContext& ctx,
                                     const ClosureTopKBound& bound,
                                     size_t* pruned) {
  // Target seeds are the sources of the reversed relation: the loop
  // fixes them there, and the result swaps back.
  BinaryRelation reversed = seed_source ? BinaryRelation() : base.Reverse();
  const BinaryRelation& adj = seed_source ? base : reversed;
  BinaryRelation start = adj.SemiJoinSource(seeds);
  if (start.empty()) return start;
  return Fixpoint(start.pairs(), adj, ctx, "seeded closure", bound, pruned,
                  /*swapped=*/!seed_source);
}

}  // namespace gqopt
