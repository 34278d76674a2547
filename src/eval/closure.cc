#include "eval/closure.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>

#include "util/flat_hash.h"
#include "util/mem_tracker.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

// The semi-naive kernel (see eval/closure.h). `acc` holds the start
// pairs, which are also the first frontier. kForward: `adj` is the
// relation itself, and a round extends (x, y) by the successors z of y to
// (x, z) — x is fixed. Otherwise `adj` is the reversed relation, and a
// round extends (x, y) by the predecessors w of x to (w, y) — y is fixed.
// The direction is a template parameter so the inner loops carry no
// branch or indirect call per candidate.
template <bool kForward>
Result<BinaryRelation> Fixpoint(std::vector<Edge> acc,
                                const BinaryRelation& adj,
                                const ExecContext& ctx, std::string_view what,
                                const ClosureTopKBound& bound,
                                size_t* pruned) {
  const Deadline& deadline = ctx.deadline;
  const std::vector<Edge>& adj_pairs = adj.pairs();
  // Force the lazy CSR build before any parallel round: EqualRange from
  // several threads must only ever read an already-built index.
  adj.SourceCsr();
  auto joined = [](const Edge& p) { return kForward ? p.second : p.first; };
  auto fixed_of = [](const Edge& p) { return kForward ? p.first : p.second; };
  auto extend = [](const Edge& p, NodeId n) {
    return kForward ? Edge{p.first, n} : Edge{n, p.second};
  };
  auto cap_exceeded = [what] {
    return Status::ResourceExhausted(std::string(what) +
                                     " exceeded the result cap");
  };

  // Dedup domain: the fixed component stays within the start pairs, the
  // moving one also ranges over the adjacency's targets.
  NodeId max_x = 0, max_z = 0;
  for (const Edge& e : acc) {
    max_x = std::max(max_x, e.first);
    max_z = std::max(max_z, e.second);
  }
  NodeId& max_moving = kForward ? max_z : max_x;
  for (const Edge& e : adj_pairs) max_moving = std::max(max_moving, e.second);
  // Each candidate costs one bitmap test-and-set (dense id domains) or
  // flat hash insert instead of a sort + Difference + Union re-merge of
  // the accumulator per round.
  PairDedupSet seen(static_cast<uint64_t>(max_x) + 1,
                    static_cast<uint64_t>(max_z) + 1, acc.size() * 4,
                    ctx.mem);
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
  auto count_pruned = [pruned](size_t n) {
    if (pruned != nullptr) *pruned += n;
  };
  // Admits `pairs` in order, tightening the bound as it goes; with
  // `drop`, first removes (in place, order kept) and counts the pairs
  // already past it.
  auto admit = [&](std::vector<Edge>* pairs, bool drop) {
    size_t kept = 0;
    for (const Edge& p : *pairs) {
      NodeId v = fixed_of(p);
      if (drop && prunable(v)) continue;
      observe(v);
      (*pairs)[kept++] = p;
    }
    count_pruned(pairs->size() - kept);
    pairs->resize(kept);
  };
  if (prune) {
    best.reserve(bound.k);
    admit(&acc, /*drop=*/false);
  }

  // Charges the accumulator/frontier buffers against the query budget,
  // re-measured once per round (they only grow).
  GrowthCharge mem_charge(ctx.mem);
  DeadlinePoller poll(deadline);
  // The strided poll of the insert loops below: the deadline, the budget
  // and the result cap. Kept out of the per-candidate path, which is one
  // dedup insert and one append.
  auto check = [&]() -> Status {
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, what);
    }
    if (acc.size() + next.size() > kMaxPairs) return cap_exceeded();
    return Status::OK();
  };
  // Phase A of a parallel round (see eval/closure.h): fills one
  // candidate buffer per frontier morsel. True when generated; false
  // when the buffers crossed 2 * kMaxPairs and the round must be redone
  // serially (phase A is read-only, so nothing needs undoing).
  auto generate = [&](int par,
                      std::vector<std::vector<Edge>>* candidates)
      -> Result<bool> {
    size_t grain = ParallelGrain(delta.size(), par);
    candidates->resize((delta.size() + grain - 1) / grain);
    std::atomic<size_t> buffered{0};
    std::atomic<bool> overflow{false};
    bool ok = ParallelFor(
        ctx.TaskPool(), par, delta.size(), grain, deadline,
        [&](size_t b, size_t e) {
          std::vector<Edge>& out = (*candidates)[b / grain];
          DeadlinePoller morsel_poll(deadline);
          GrowthCharge morsel_charge(ctx.mem);
          size_t reported = 0;
          // Publishes the morsel's unreported growth into the shared
          // total (and the buffer's capacity into the memory budget);
          // true when the buffered candidates crossed a bound.
          auto publish = [&] {
            size_t grown = out.size() - reported;
            reported = out.size();
            if (!morsel_charge.Update(out.capacity() * sizeof(Edge))) {
              return true;
            }
            if (buffered.fetch_add(grown, std::memory_order_relaxed) +
                    grown >
                2 * kMaxPairs) {
              overflow.store(true, std::memory_order_relaxed);
              return true;
            }
            return false;
          };
          for (size_t i = b; i < e; ++i) {
            const Edge& d = delta[i];
            auto [lo, hi] = adj.EqualRange(joined(d));
            for (uint32_t j = lo; j < hi; ++j) {
              Edge c = extend(d, adj_pairs[j].second);
              if (!seen.Contains(c.first, c.second)) out.push_back(c);
              if (morsel_poll.Expired()) return false;
            }
            // Amortized memory poll; the final publish below catches the
            // tail generated after the last stride.
            if (morsel_poll.Due() && publish()) return false;
          }
          return !publish();
        });
    if (ok) return true;
    candidates->clear();  // free the buffers before any serial redo
    if (ctx.MemBreached()) return AbortStatus(ctx, what);
    if (overflow.load(std::memory_order_relaxed)) return false;
    return Status::DeadlineExceeded(std::string(what) + " timed out");
  };

  while (!delta.empty()) {
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, what);
    }
    if (prune) {
      // Pre-filter the frontier against the current bound (it only ever
      // tightens, so a once-per-round serial pass is race-free at any
      // dop and keeps the expansion itself unchanged).
      size_t kept = 0;
      for (const Edge& d : delta) {
        if (prunable(fixed_of(d))) continue;
        delta[kept++] = d;
      }
      count_pruned(delta.size() - kept);
      delta.resize(kept);
      if (delta.empty()) break;
    }
    next.clear();
    std::vector<std::vector<Edge>> candidates;
    bool generated = false;
    int par = ctx.EffectiveDop(delta.size());
    if (par > 1) {
      GQOPT_ASSIGN_OR_RETURN(generated, generate(par, &candidates));
    }
    if (generated) {
      for (const std::vector<Edge>& chunk : candidates) {
        for (const Edge& c : chunk) {
          if (seen.Insert(c.first, c.second)) next.push_back(c);
          if (poll.Due()) GQOPT_RETURN_NOT_OK(check());
        }
      }
    } else {
      for (const Edge& d : delta) {
        auto [lo, hi] = adj.EqualRange(joined(d));
        for (uint32_t i = lo; i < hi; ++i) {
          Edge c = extend(d, adj_pairs[i].second);
          if (seen.Insert(c.first, c.second)) next.push_back(c);
          if (poll.Due()) GQOPT_RETURN_NOT_OK(check());
        }
      }
    }
    if (prune) {
      // Filter the round's candidates, tightening the bound as survivors
      // are admitted (serial, in frontier order). Pruned candidates never
      // re-enter (they are already in the dedup set) and are excluded
      // from the result — sound because a bounded evaluation only ever
      // feeds the TopK that set the bound and is never memoized as the
      // closure's full result.
      admit(&next, /*drop=*/true);
    }
    acc.insert(acc.end(), next.begin(), next.end());
    if (acc.size() > kMaxPairs) return cap_exceeded();
    if (!mem_charge.Update(static_cast<size_t>(
            (acc.capacity() + delta.capacity() + next.capacity()) *
            sizeof(Edge)))) {
      return AbortStatus(ctx, what);
    }
    delta.swap(next);
  }
  // The dedup set guarantees uniqueness; one final packed sort restores
  // order.
  SortUniquePairs(&acc);
  return BinaryRelation::FromSortedUnique(std::move(acc));
}

}  // namespace

Result<BinaryRelation> BinaryRelation::TransitiveClosure(
    const BinaryRelation& r, const ExecContext& ctx) {
  if (r.empty()) return r;
  return Fixpoint<true>(r.pairs_, r, ctx, "transitive closure",
                        ClosureTopKBound(), nullptr);
}

Result<BinaryRelation> SeededClosure(const BinaryRelation& base,
                                     const std::vector<NodeId>& seeds,
                                     bool seed_source, const ExecContext& ctx,
                                     const ClosureTopKBound& bound,
                                     size_t* pruned) {
  BinaryRelation start = seed_source ? base.SemiJoinSource(seeds)
                                     : base.SemiJoinTarget(seeds);
  if (start.empty()) return start;
  // Source seeds extend targets over the relation itself; target seeds
  // extend sources over its reverse.
  if (seed_source) {
    return Fixpoint<true>(start.pairs(), base, ctx, "seeded closure", bound,
                          pruned);
  }
  return Fixpoint<false>(start.pairs(), base.Reverse(), ctx,
                         "seeded closure", bound, pruned);
}

}  // namespace gqopt
