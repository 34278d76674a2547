#include "ra/ra_expr.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "util/exec_context.h"
#include "util/radix.h"

namespace gqopt {
namespace {

void Indent(int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

void Render(const RaExpr& e, int depth, std::string* out) {
  Indent(depth, out);
  *out += e.NodeString();
  *out += "\n";
  if (e.left()) Render(*e.left(), depth + 1, out);
  if (e.right()) Render(*e.right(), depth + 1, out);
}

// Direction vector for the leading `prefix` columns of `src` (empty when
// all ascending) — the positional propagation order-preserving factories
// use.
std::vector<bool> DirsOf(const RaExpr& src, size_t prefix) {
  std::vector<bool> out;
  for (size_t i = 0; i < prefix; ++i) {
    if (src.sort_descending(i)) {
      out.resize(prefix, false);
      for (size_t j = i; j < prefix; ++j) out[j] = src.sort_descending(j);
      break;
    }
  }
  return out;
}

// "a desc,b" — the keys part of the Sort/TopK EXPLAIN annotation.
std::string SortKeysString(const std::vector<SortKey>& keys) {
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ",";
    out += keys[i].column;
    if (keys[i].descending) out += " desc";
  }
  return out;
}

}  // namespace

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kOffset:
      return "offset";
    case JoinStrategy::kMergeSorted:
      return "merge";
    case JoinStrategy::kRadixHash:
      return "radix-hash";
    case JoinStrategy::kFlatHash:
      return "flat-hash";
  }
  return "?";
}

RaExprPtr RaExpr::EdgeScan(std::string label, std::string src_col,
                           std::string tgt_col) {
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kEdgeScan;
  e->label_ = std::move(label);
  e->columns_ = {src_col, tgt_col};
  e->src_col_ = std::move(src_col);
  e->tgt_col_ = std::move(tgt_col);
  e->sorted_prefix_ = 2;  // edge tables are sorted by (source, target)
  return e;
}

RaExprPtr RaExpr::NodeScan(std::vector<std::string> labels, std::string col) {
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kNodeScan;
  e->labels_ = std::move(labels);
  e->columns_ = {std::move(col)};
  e->sorted_prefix_ = 1;  // node extents are sorted ascending
  return e;
}

RaExprPtr RaExpr::Project(
    RaExprPtr child,
    std::vector<std::pair<std::string, std::string>> mappings) {
  assert(child);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kProject;
  e->left_ = std::move(child);
  for (const auto& [from, to] : mappings) {
    (void)from;
    e->columns_.push_back(to);
  }
  // A projection keeping the child's leading columns in place (renames
  // allowed — ordering is positional) preserves that much of the child's
  // sorted prefix.
  size_t identity_run = 0;
  const std::vector<std::string>& child_cols = e->left_->columns();
  while (identity_run < mappings.size() && identity_run < child_cols.size() &&
         mappings[identity_run].first == child_cols[identity_run]) {
    ++identity_run;
  }
  e->sorted_prefix_ = std::min(identity_run, e->left_->sorted_prefix());
  e->sort_desc_ = DirsOf(*e->left_, e->sorted_prefix_);
  e->mappings_ = std::move(mappings);
  return e;
}

RaExprPtr RaExpr::SelectEq(RaExprPtr child, std::string col_a,
                           std::string col_b) {
  assert(child);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kSelectEq;
  e->columns_ = child->columns();
  e->sorted_prefix_ = child->sorted_prefix();  // filtering preserves order
  e->sort_desc_ = DirsOf(*child, e->sorted_prefix_);
  e->left_ = std::move(child);
  e->eq_columns_ = {std::move(col_a), std::move(col_b)};
  return e;
}

RaExprPtr RaExpr::Join(RaExprPtr l, RaExprPtr r, JoinStrategy strategy,
                       int parallel_hint) {
  assert(l && r);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kJoin;
  e->parallel_hint_ = parallel_hint;
  e->columns_ = l->columns();
  for (const std::string& col : r->columns()) {
    if (std::find(e->columns_.begin(), e->columns_.end(), col) ==
        e->columns_.end()) {
      e->columns_.push_back(col);
    }
  }
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  e->join_strategy_ = strategy;
  JoinPhysical phys = AnalyzeJoinShape(*e->left_, *e->right_);
  // The ordering prediction assumes the strategy the shapes admit; a
  // forced annotation that differs either hashes (order destroying) or
  // degrades at runtime, so predict nothing then.
  e->sorted_prefix_ =
      strategy == JoinStrategy::kAuto || strategy == phys.strategy
          ? phys.sorted_prefix
          : 0;
  // Every shape that predicts an order propagates the left (probe)
  // side's, so its directions carry over verbatim.
  e->sort_desc_ = DirsOf(*e->left_, e->sorted_prefix_);
  return e;
}

RaExprPtr RaExpr::SemiJoin(RaExprPtr l, RaExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kSemiJoin;
  e->columns_ = l->columns();
  e->sorted_prefix_ = l->sorted_prefix();  // filters the left side
  e->sort_desc_ = DirsOf(*l, e->sorted_prefix_);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

RaExprPtr RaExpr::Union(RaExprPtr l, RaExprPtr r) {
  assert(l && r);
  assert(std::set<std::string>(l->columns().begin(), l->columns().end()) ==
         std::set<std::string>(r->columns().begin(), r->columns().end()));
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kUnion;
  e->columns_ = l->columns();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

RaExprPtr RaExpr::Distinct(RaExprPtr child) {
  assert(child);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kDistinct;
  e->columns_ = child->columns();
  e->sorted_prefix_ = e->columns_.size();  // sort-based dedup: fully sorted
  e->left_ = std::move(child);
  return e;
}

RaExprPtr RaExpr::TransitiveClosure(RaExprPtr body, std::string src_col,
                                    std::string tgt_col, RaExprPtr seed,
                                    SeedSide seed_side) {
  assert(body);
  assert((seed == nullptr) == (seed_side == SeedSide::kNone));
  assert(!seed || seed->columns().size() == 1);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kTransitiveClosure;
  e->columns_ = {src_col, tgt_col};
  e->sorted_prefix_ = 2;  // closure results are sorted pair sets
  e->src_col_ = std::move(src_col);
  e->tgt_col_ = std::move(tgt_col);
  e->seed_side_ = seed_side;
  e->left_ = std::move(body);
  e->right_ = std::move(seed);
  return e;
}

RaExprPtr RaExpr::Sort(RaExprPtr child, std::vector<SortKey> keys) {
  assert(child);
  assert(!keys.empty());
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kSort;
  e->columns_ = child->columns();
  // The output is a deterministic total order (keys, then the remaining
  // columns ascending). Positionally, that is a sorted prefix exactly as
  // deep as the keys' leading-column run: keys[i] sorting output column
  // i gives a fully sorted table once the run covers every key (the
  // ascending tie-break sorts the rest); a key targeting a non-leading
  // column breaks positional order at that point.
  size_t run = 0;
  std::vector<bool> desc;
  while (run < keys.size() && run < e->columns_.size() &&
         keys[run].column == e->columns_[run]) {
    desc.push_back(keys[run].descending);
    ++run;
  }
  if (run == keys.size()) {
    e->sorted_prefix_ = e->columns_.size();  // tie-break covers the rest
  } else {
    e->sorted_prefix_ = run;
  }
  e->sort_desc_ = std::move(desc);
  e->sort_keys_ = std::move(keys);
  e->left_ = std::move(child);
  return e;
}

RaExprPtr RaExpr::Limit(RaExprPtr child, size_t k, size_t offset) {
  assert(child);
  auto e = std::shared_ptr<RaExpr>(new RaExpr());
  e->op_ = RaOp::kLimit;
  e->columns_ = child->columns();
  // A contiguous window of the child keeps the child's ordering
  // property verbatim (skipping a prefix cannot unsort the rest).
  e->sorted_prefix_ = child->sorted_prefix();
  for (size_t i = 0; i < e->sorted_prefix_; ++i) {
    e->sort_desc_.push_back(child->sort_descending(i));
  }
  e->limit_ = k;
  e->offset_ = offset;
  e->left_ = std::move(child);
  return e;
}

RaExprPtr RaExpr::TopK(RaExprPtr child, std::vector<SortKey> keys,
                       size_t k, size_t offset) {
  auto e = std::const_pointer_cast<RaExpr>(
      Sort(std::move(child), std::move(keys)));
  // Same output ordering as Sort (the heap emits sorted); only the row
  // window and the evaluation strategy differ.
  e->op_ = RaOp::kTopK;
  e->limit_ = k;
  e->offset_ = offset;
  return e;
}

bool OrderSatisfiedBy(const RaExpr& plan, const std::vector<SortKey>& keys) {
  if (plan.sorted_prefix() < plan.columns().size()) return false;
  if (keys.size() > plan.columns().size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].column != plan.columns()[i]) return false;
    if (keys[i].descending != plan.sort_descending(i)) return false;
  }
  // Tie-break: the columns past the keys must be ascending.
  for (size_t i = keys.size(); i < plan.columns().size(); ++i) {
    if (plan.sort_descending(i)) return false;
  }
  return true;
}

std::string RaExpr::NodeString() const {
  auto cols = [this]() {
    std::string out = "(";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0) out += ", ";
      out += columns_[i];
    }
    return out + ")";
  };
  switch (op_) {
    case RaOp::kEdgeScan:
      return "EdgeScan " + label_ + " " + cols();
    case RaOp::kNodeScan: {
      std::string names;
      for (size_t i = 0; i < labels_.size(); ++i) {
        if (i > 0) names += "|";
        names += labels_[i];
      }
      return "NodeScan " + names + " " + cols();
    }
    case RaOp::kProject:
      return "Project " + cols();
    case RaOp::kSelectEq:
      return "Select " + eq_columns_.first + " = " + eq_columns_.second;
    case RaOp::kJoin: {
      std::string out = "Join " + cols();
      if (join_strategy_ != JoinStrategy::kAuto) {
        out += std::string(" [") + JoinStrategyName(join_strategy_);
        if (parallel_hint_ > 1) {
          out += " p=" + std::to_string(parallel_hint_);
        }
        out += "]";
      }
      return out;
    }
    case RaOp::kSemiJoin:
      return "SemiJoin " + cols();
    case RaOp::kUnion:
      return "Union " + cols();
    case RaOp::kDistinct:
      return "Distinct " + cols();
    case RaOp::kTransitiveClosure: {
      std::string out = "TransitiveClosure " + cols();
      if (seed_side_ == SeedSide::kSource) out += " seeded-on-source";
      if (seed_side_ == SeedSide::kTarget) out += " seeded-on-target";
      return out;
    }
    case RaOp::kSort:
      return "Sort " + cols() + " [keys=" + SortKeysString(sort_keys_) + "]";
    case RaOp::kLimit: {
      std::string out = "Limit " + cols() + " [k=" + std::to_string(limit_);
      if (offset_ > 0) out += " offset=" + std::to_string(offset_);
      return out + "]";
    }
    case RaOp::kTopK: {
      std::string out = "TopK " + cols() + " [topk k=" +
                        std::to_string(limit_);
      if (offset_ > 0) out += " offset=" + std::to_string(offset_);
      return out + " keys=" + SortKeysString(sort_keys_) + "]";
    }
  }
  return "?";
}

std::string RaExpr::ToString() const {
  std::string out;
  Render(*this, 0, &out);
  return out;
}

JoinPhysical JoinShape(const JoinSide& l, const JoinSide& r) {
  JoinPhysical out;
  size_t m = l.key_positions.size();
  if (m == 0) {
    // Cross product: the executor iterates left rows in the outer loop.
    out.sorted_prefix = l.sorted_prefix;
    return out;
  }
  // Merge: every shared column sits at the same position < m on both
  // sides (so the leading m columns are the keys, in one order) and both
  // inputs are sorted at least that deep — *ascending*: the streaming
  // merge advances the smaller key, so a descending run on either side
  // (a descending Sort output) disqualifies it.
  if (l.ascending_prefix >= m && r.ascending_prefix >= m &&
      std::ranges::equal(l.key_positions, r.key_positions) &&
      std::ranges::all_of(l.key_positions, [m](size_t p) { return p < m; })) {
    out.strategy = JoinStrategy::kMergeSorted;
    // Output rows stream in left-row order (each repeated per right
    // match), so the left side's full prefix survives.
    out.sorted_prefix = l.sorted_prefix;
    return out;
  }
  // Offset: a single shared column leading an ascending-sorted side
  // (the offset array indexes keys in increasing order); that side is
  // the build, the other probes in its own order.
  if (m == 1) {
    if (r.key_positions[0] == 0 && r.ascending_prefix >= 1) {
      out.strategy = JoinStrategy::kOffset;
      out.sorted_prefix = l.sorted_prefix;  // probe = left, in order
      return out;
    }
    if (l.key_positions[0] == 0 && l.ascending_prefix >= 1) {
      out.strategy = JoinStrategy::kOffset;  // probe = right: order lost
      return out;
    }
  }
  out.strategy = JoinStrategy::kFlatHash;  // hash fallback; size picks radix
  return out;
}

JoinPhysical AnalyzeJoinShape(const RaExpr& l, const RaExpr& r) {
  std::vector<size_t> l_keys, r_keys;
  const std::vector<std::string>& r_cols = r.columns();
  for (size_t i = 0; i < l.columns().size(); ++i) {
    auto it = std::find(r_cols.begin(), r_cols.end(), l.columns()[i]);
    if (it == r_cols.end()) continue;
    l_keys.push_back(i);
    r_keys.push_back(static_cast<size_t>(it - r_cols.begin()));
  }
  return JoinShape({l.sorted_prefix(), l.ascending_prefix(), l_keys},
                   {r.sorted_prefix(), r.ascending_prefix(), r_keys});
}

JoinStrategy SizeJoinStrategy(JoinStrategy strategy, double left_rows,
                              double right_rows) {
  // Below the threshold one flat index stays cache-resident, so the
  // partition passes would only add work.
  if (strategy == JoinStrategy::kFlatHash &&
      std::min(left_rows, right_rows) >=
          static_cast<double>(kRadixMinBuildRows)) {
    return JoinStrategy::kRadixHash;
  }
  return strategy;
}

JoinPhysical PlanJoin(JoinPhysical shape, double left_rows,
                      double right_rows, int dop) {
  shape.strategy = SizeJoinStrategy(shape.strategy, left_rows, right_rows);
  // Hash joins partition their work (radix scatter, probe ranges); the
  // executor re-validates the hint against the actual table sizes.
  if (shape.strategy == JoinStrategy::kRadixHash ||
      shape.strategy == JoinStrategy::kFlatHash) {
    shape.parallel_hint = dop > 1 && std::max(left_rows, right_rows) >=
                                         static_cast<double>(kParallelMinRows)
                              ? dop
                              : 1;
  }
  return shape;
}

std::vector<std::string> SharedColumns(const RaExpr& l, const RaExpr& r) {
  std::vector<std::string> out;
  for (const std::string& col : l.columns()) {
    if (std::find(r.columns().begin(), r.columns().end(), col) !=
        r.columns().end()) {
      out.push_back(col);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gqopt
