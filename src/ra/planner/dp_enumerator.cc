#include "ra/planner/dp_enumerator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>

#include "ra/planner/cost_model.h"

namespace gqopt {
namespace {

// A subplan candidate: everything the enumerator needs to combine and
// prune without materializing RaExpr nodes. Columns are interned ids; the
// estimate fields mirror the Estimator's PlanEstimate for the same tree.
struct Candidate {
  std::vector<uint16_t> cols;  // output columns, in output order
  uint64_t col_mask = 0;
  std::vector<double> ndv;     // per cols[i]
  double rows = 0;
  double cost = 0;
  size_t sorted_prefix = 0;

  // Tree structure: leaf index into the relations vector, or an internal
  // join of two earlier candidates (stable deque storage).
  int leaf = -1;
  const Candidate* left = nullptr;
  const Candidate* right = nullptr;
  JoinStrategy strategy = JoinStrategy::kAuto;
  int parallel_hint = 0;
};

size_t PositionOf(const Candidate& c, uint16_t col) {
  return static_cast<size_t>(
      std::find(c.cols.begin(), c.cols.end(), col) - c.cols.begin());
}

double NdvOf(const Candidate& c, uint16_t col) {
  size_t p = PositionOf(c, col);
  return p < c.ndv.size() ? c.ndv[p] : std::max(1.0, c.rows);
}

// Joins two candidates. The strategy, output ordering and p=N hint come
// from the physical join rule (ra_expr.h) that the Join factory and the
// optimizer apply too, so the materialized tree re-derives exactly the
// properties the enumerator costed. `l_keys`/`r_keys` hold each shared
// column's position in l and r, in l's output order.
Candidate Combine(const Candidate& l, const Candidate& r,
                  std::span<const size_t> l_keys,
                  std::span<const size_t> r_keys, int dop) {
  Candidate out;
  out.left = &l;
  out.right = &r;
  // Candidates carry ascending prefixes only (see the leaves).
  JoinPhysical phys = PlanJoin(
      JoinShape({l.sorted_prefix, l.sorted_prefix, l_keys},
                {r.sorted_prefix, r.sorted_prefix, r_keys}),
      l.rows, r.rows, dop);
  out.strategy = phys.strategy;
  out.sorted_prefix = phys.sorted_prefix;
  out.parallel_hint = phys.parallel_hint;

  // ---- Cardinality and NDV (Estimator::Estimate, kJoin) ----
  double selectivity = 1.0;
  for (size_t i = 0; i < l_keys.size(); ++i) {
    selectivity /= std::max({l.ndv[l_keys[i]], r.ndv[r_keys[i]], 1.0});
  }
  out.rows = l.rows * r.rows * selectivity;
  out.cost = l.cost + r.cost +
             JoinWorkCost(out.strategy, l.rows, r.rows, out.rows,
                          out.parallel_hint);

  out.cols = l.cols;
  out.col_mask = l.col_mask | r.col_mask;
  for (uint16_t col : r.cols) {
    if ((l.col_mask >> col) & 1) continue;
    out.cols.push_back(col);
  }
  out.ndv.reserve(out.cols.size());
  for (uint16_t col : out.cols) {
    double ndv = out.rows;
    if ((l.col_mask >> col) & 1) ndv = std::min(ndv, NdvOf(l, col));
    if ((r.col_mask >> col) & 1) ndv = std::min(ndv, NdvOf(r, col));
    out.ndv.push_back(std::max(1.0, ndv));
  }
  return out;
}

// Interesting-order dominance: `a` makes `b` redundant when it is no more
// expensive, its estimated cardinality is no larger (row estimates are
// join-order dependent and feed every upstream cost, so a same-cost plan
// with a larger estimate must not prune a smaller one), and its sorted
// prefix extends (or equals) b's — every merge or offset join b's order
// could enable, a's order enables too.
bool Dominates(const Candidate& a, const Candidate& b) {
  if (a.cost > b.cost) return false;
  if (a.rows > b.rows) return false;
  if (a.sorted_prefix < b.sorted_prefix) return false;
  for (size_t i = 0; i < b.sorted_prefix; ++i) {
    if (a.cols[i] != b.cols[i]) return false;
  }
  return true;
}

// Per-subset plan table: the pruning rule keeps the cheapest plan per
// distinct interesting order (bounded, cheapest-first).
constexpr size_t kMaxPlansPerSubset = 12;

void Insert(std::vector<const Candidate*>* plans,
            std::deque<Candidate>* storage, Candidate cand) {
  for (const Candidate* kept : *plans) {
    if (Dominates(*kept, cand)) return;
  }
  plans->erase(std::remove_if(plans->begin(), plans->end(),
                              [&](const Candidate* kept) {
                                return Dominates(cand, *kept);
                              }),
               plans->end());
  storage->push_back(std::move(cand));
  plans->push_back(&storage->back());
  if (plans->size() > kMaxPlansPerSubset) {
    // Evict the most expensive (ties: the shorter order).
    auto worst = std::max_element(
        plans->begin(), plans->end(),
        [](const Candidate* a, const Candidate* b) {
          if (a->cost != b->cost) return a->cost < b->cost;
          return a->sorted_prefix > b->sorted_prefix;
        });
    plans->erase(worst);
  }
}

// Requested-order penalty: a candidate already sorted ascending on the
// query's ORDER BY prefix feeds the sort/top-k above for free; anything
// else pays a full sort of its output. Applied at winner selection only —
// the subset tables keep per-order winners alive through pruning
// regardless, so the penalty chooses among survivors instead of
// distorting dominance mid-enumeration.
double SortPenalty(const Candidate& c, const std::vector<uint16_t>& want) {
  if (want.empty()) return 0;
  bool satisfied = want.size() <= c.sorted_prefix;
  for (size_t i = 0; satisfied && i < want.size(); ++i) {
    satisfied = c.cols[i] == want[i];
  }
  if (satisfied) return 0;
  return c.rows * std::log2(std::max(2.0, c.rows));
}

const Candidate* Best(const std::vector<const Candidate*>& plans,
                      const std::vector<uint16_t>& want) {
  const Candidate* best = nullptr;
  double best_cost = 0;
  for (const Candidate* c : plans) {
    double cost = c->cost + SortPenalty(*c, want);
    if (best == nullptr || cost < best_cost ||
        (cost == best_cost && c->sorted_prefix > best->sorted_prefix)) {
      best = c;
      best_cost = cost;
    }
  }
  return best;
}

RaExprPtr Materialize(const Candidate& c,
                      const std::vector<RaExprPtr>& relations) {
  if (c.leaf >= 0) return relations[static_cast<size_t>(c.leaf)];
  return RaExpr::Join(Materialize(*c.left, relations),
                      Materialize(*c.right, relations), c.strategy,
                      c.parallel_hint);
}

}  // namespace

RaExprPtr DpPlanJoinOrder(const std::vector<RaExprPtr>& relations,
                          Estimator* estimator,
                          const DpPlannerOptions& options) {
  size_t n = relations.size();
  if (n < 2 || n > options.max_relations || n > 16) return nullptr;
  // The enumeration loops poll amortized (DeadlinePoller's stride is too
  // coarse for small clusters), so an already-exhausted planning budget
  // is checked once up front: greedy runs instead.
  if (options.deadline.Expired()) return nullptr;

  // Intern column names; the candidate machinery packs them in a 64-bit
  // mask, so clusters with more distinct columns fall back to greedy.
  std::unordered_map<std::string, uint16_t> col_ids;
  std::deque<Candidate> storage;
  std::vector<const Candidate*> leaves;
  for (size_t i = 0; i < n; ++i) {
    const PlanEstimate& est = estimator->Estimate(relations[i].get());
    Candidate leaf;
    leaf.leaf = static_cast<int>(i);
    leaf.rows = est.rows;
    leaf.cost = est.cost;
    // Candidates only model ascending runs (the merge/offset shape math
    // assumes them), so a descending-marked prefix stops here.
    leaf.sorted_prefix = relations[i]->ascending_prefix();
    for (const std::string& col : relations[i]->columns()) {
      auto [it, inserted] = col_ids.emplace(
          col, static_cast<uint16_t>(col_ids.size()));
      (void)inserted;
      if (it->second >= 64) return nullptr;
      leaf.cols.push_back(it->second);
      leaf.col_mask |= uint64_t{1} << it->second;
      auto ndv_it = est.ndv.find(col);
      leaf.ndv.push_back(ndv_it != est.ndv.end() ? ndv_it->second
                                                 : std::max(1.0, est.rows));
    }
    storage.push_back(std::move(leaf));
    leaves.push_back(&storage.back());
  }

  // Requested interesting order, interned to column ids. A key over a
  // column this cluster does not produce — or a descending key, which no
  // ascending candidate can deliver — makes the request unsatisfiable:
  // the penalty then hits every candidate equally and selection
  // degenerates to pure cost, so `want` is simply cleared.
  std::vector<uint16_t> want;
  for (const SortKey& key : options.requested_order) {
    auto it = col_ids.find(key.column);
    if (it == col_ids.end() || key.descending) {
      want.clear();
      break;
    }
    want.push_back(it->second);
  }

  // Connected components of the join graph (relations sharing a column).
  std::vector<size_t> component(n);
  for (size_t i = 0; i < n; ++i) component[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (component[x] != x) x = component[x] = component[component[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (leaves[i]->col_mask & leaves[j]->col_mask) {
        component[find(i)] = find(j);
      }
    }
  }
  std::vector<std::vector<size_t>> members_of(n);
  for (size_t i = 0; i < n; ++i) members_of[find(i)].push_back(i);

  DeadlinePoller poll(options.deadline);
  std::vector<const Candidate*> component_plans;
  for (const std::vector<size_t>& members : members_of) {
    if (members.empty()) continue;
    if (members.size() == 1) {
      component_plans.push_back(leaves[members[0]]);
      continue;
    }
    // DP over subsets of this component, in increasing mask order (every
    // proper submask precedes its superset). Only connected subsets ever
    // receive plans: combines require a shared column, and every
    // connected subset has a split into two connected, column-sharing
    // halves (remove one spanning-tree edge), which the full submask
    // enumeration visits.
    size_t k = members.size();
    uint32_t full = (uint32_t{1} << k) - 1;
    std::vector<std::vector<const Candidate*>> best(full + 1);
    for (size_t i = 0; i < k; ++i) {
      best[uint32_t{1} << i].push_back(leaves[members[i]]);
    }
    // Shared-column positions of the pair being combined, reused so the
    // enumeration loop does not allocate per pair.
    std::vector<size_t> l_keys, r_keys;
    for (uint32_t set = 3; set <= full; ++set) {
      if ((set & (set - 1)) == 0) continue;  // singleton
      std::vector<const Candidate*>& plans = best[set];
      for (uint32_t s1 = (set - 1) & set; s1 != 0; s1 = (s1 - 1) & set) {
        uint32_t s2 = set ^ s1;
        if (best[s1].empty() || best[s2].empty()) continue;
        if (poll.Expired()) return nullptr;  // planning budget exhausted
        for (const Candidate* l : best[s1]) {
          for (const Candidate* r : best[s2]) {
            uint64_t shared_mask = l->col_mask & r->col_mask;
            if (shared_mask == 0) continue;
            l_keys.clear();
            r_keys.clear();
            for (size_t i = 0; i < l->cols.size(); ++i) {
              if ((shared_mask >> l->cols[i]) & 1) {
                l_keys.push_back(i);
                r_keys.push_back(PositionOf(*r, l->cols[i]));
              }
            }
            Insert(&plans, &storage,
                   Combine(*l, *r, l_keys, r_keys, options.dop));
          }
        }
      }
    }
    if (best[full].empty()) return nullptr;  // cannot happen: connected
    component_plans.push_back(Best(best[full], want));
  }

  // Cross-join disconnected components smallest-first (the cheapest
  // nested-loop order); single-component clusters skip this entirely.
  std::sort(component_plans.begin(), component_plans.end(),
            [](const Candidate* a, const Candidate* b) {
              return a->rows < b->rows;
            });
  const Candidate* acc = component_plans[0];
  for (size_t i = 1; i < component_plans.size(); ++i) {
    storage.push_back(Combine(*acc, *component_plans[i], {}, {}, options.dop));
    acc = &storage.back();
  }
  return Materialize(*acc, relations);
}

}  // namespace gqopt
