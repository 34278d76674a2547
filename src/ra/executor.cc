#include "ra/executor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "eval/closure.h"
#include "eval/compose.h"
#include "eval/csr_view.h"
#include "util/flat_hash.h"
#include "util/offsets.h"
#include "util/radix.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace {

uint64_t PackKey(const NodeId* row, const std::vector<int>& cols) {
  if (cols.size() == 1) return row[cols[0]];
  uint64_t key = (static_cast<uint64_t>(row[cols[0]]) << 32) | row[cols[1]];
  // More than two shared columns are folded; probes re-verify equality.
  for (size_t i = 2; i < cols.size(); ++i) {
    key = key * 1000003ULL + row[cols[i]];
  }
  return key;
}

bool RowsMatch(const NodeId* a, const std::vector<int>& a_cols,
               const NodeId* b, const std::vector<int>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

// The dense-offset index rule: `t` is sorted ascending on its first
// column, and that key's domain is within a constant factor of the rows.
// The offset array costs O(max key), so this holds for dense node ids and
// fails for a tiny table with a huge maximum id, where hashing wins.
bool OffsetWorthwhile(const Table& t) {
  if (t.ascending_prefix() < 1 || t.rows() == 0) return false;
  NodeId max_key = t.Row(t.rows() - 1)[0];
  return static_cast<size_t>(max_key) < 8 * t.rows() + 1024;
}

// A path step as the translation builds it: Distinct(Project(Join(L, R)))
// with L and R binary, sharing exactly one column, and the projection
// keeping the other column of each side. The side holding output column
// 0 drives the composition; the other is indexed on the shared column.
struct ComposeShape {
  const RaExpr* project;
  const RaExpr* join;
  bool drive_left;
  std::string middle;  // the shared column
};

std::optional<ComposeShape> MatchCompose(const RaExpr* distinct) {
  const RaExpr* project = distinct->left().get();
  if (project->op() != RaOp::kProject || project->mappings().size() != 2) {
    return std::nullopt;
  }
  const RaExpr* join = project->left().get();
  if (join->op() != RaOp::kJoin) return std::nullopt;
  const RaExpr& left = *join->left();
  const RaExpr& right = *join->right();
  if (left.columns().size() != 2 || right.columns().size() != 2) {
    return std::nullopt;
  }
  std::vector<std::string> shared = SharedColumns(left, right);
  if (shared.size() != 1) return std::nullopt;
  auto other = [&shared](const RaExpr& side) -> const std::string& {
    return side.columns()[side.columns()[0] == shared[0] ? 1 : 0];
  };
  const std::string& first = project->mappings()[0].first;
  const std::string& second = project->mappings()[1].first;
  if (first == other(left) && second == other(right)) {
    return ComposeShape{project, join, true, shared[0]};
  }
  if (first == other(right) && second == other(left)) {
    return ComposeShape{project, join, false, shared[0]};
  }
  return std::nullopt;
}

// The fused path step: `drive` is sorted ascending on its output column
// at position 0, and `index` holds `middle` and the target column. Runs
// of equal drive values compose one at a time (eval/compose.h) into the
// sorted, duplicate-free table the unfused Join -> Project -> Distinct
// returns, without materializing the join. Adds the join's match count
// to `*matches`.
Result<Table> FusedCompose(const Table& drive, const Table& index,
                           const std::string& middle,
                           const std::vector<std::string>& columns,
                           const ExecContext& ctx, size_t* matches) {
  const Deadline& deadline = ctx.deadline;
  if (drive.empty() || index.empty()) {
    Table empty(columns);
    empty.MarkSorted();
    return empty;
  }
  const NodeId* drive_rows = drive.data().data();
  const NodeId* index_rows = index.data().data();
  const int index_middle = index.ColumnIndex(middle);
  const int index_target = 1 - index_middle;
  std::vector<NodeId> out;
  // At dop > 1 the drive rows split at run boundaries into morsels, each
  // with its own dedup; ParallelAppend concatenates them in order, so the
  // output is the same at every dop. `join_rows`, the join's size, sizes
  // the dedup (eval/compose.h).
  auto compose = [&](size_t join_rows, const auto& targets) {
    *matches += join_rows;
    const uint64_t budget = RunDedup::DenseBudget(join_rows, index.rows());
    NodeId lo = std::numeric_limits<NodeId>::max();
    NodeId hi = 0;
    if (index.rows() <= budget) {
      for (size_t r = 0; r < index.rows(); ++r) {
        lo = std::min(lo, index_rows[2 * r + index_target]);
        hi = std::max(hi, index_rows[2 * r + index_target]);
      }
    }
    const bool dense = lo <= hi && uint64_t{hi} - lo < budget;
    int par = ctx.EffectiveDop(drive.rows());
    std::vector<size_t> cuts = CutAtRuns(
        drive.rows(),
        par > 1 ? ParallelGrain(drive.rows(), par) : drive.rows(),
        [drive_rows](size_t i) {
          return drive_rows[2 * i] == drive_rows[2 * i - 2];
        });
    return ParallelAppend(
        ctx.TaskPool(), par, cuts.size() - 1, 1, deadline, &out,
        [&](size_t begin, size_t end, std::vector<NodeId>* dst) {
          RunDedup dedup = dense ? RunDedup(lo, hi, ctx.mem) : RunDedup();
          GrowthCharge charge(ctx.mem);
          return ComposeRuns(
              cuts[begin], cuts[end],
              [drive_rows](size_t i) { return drive_rows[2 * i]; },
              [drive_rows](size_t i) { return drive_rows[2 * i + 1]; },
              targets, deadline,
              [&] {
                return deadline.Expired() ||
                       !charge.Update((dst->capacity() + dedup.pending()) *
                                      sizeof(NodeId));
              },
              &dedup, [dst](NodeId x, NodeId z) {
                dst->push_back(x);
                dst->push_back(z);
              });
        });
  };
  bool ok;
  if (index_middle == 0 && OffsetWorthwhile(index)) {
    NodeId max_key = index_rows[2 * (index.rows() - 1)];
    std::vector<uint32_t> offsets;
    FillSortedOffsets(
        index.rows(), static_cast<size_t>(max_key) + 1,
        [index_rows](uint32_t r) { return index_rows[2 * r]; }, &offsets);
    TrackedBytes offsets_charge(ctx.mem);
    offsets_charge.Add(
        static_cast<int64_t>(offsets.size() * sizeof(uint32_t)));
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, "join");
    }
    size_t join_rows = 0;
    for (size_t i = 0; i < drive.rows(); ++i) {
      NodeId y = drive_rows[2 * i + 1];
      if (y <= max_key) join_rows += offsets[y + 1] - offsets[y];
    }
    ok = compose(join_rows, [&](NodeId y, const auto& visit) {
      if (y > max_key) return;
      for (uint32_t r = offsets[y]; r < offsets[y + 1] &&
                                    visit(index_rows[2 * r + 1]);
           ++r) {
      }
    });
  } else {
    std::vector<uint64_t> keys(index.rows());
    for (size_t r = 0; r < index.rows(); ++r) {
      keys[r] = index_rows[2 * r + index_middle];
    }
    FlatJoinIndex hash(keys, ctx.mem);
    if (deadline.Expired() || ctx.MemBreached()) {
      return AbortStatus(ctx, "join");
    }
    size_t join_rows = 0;
    for (size_t i = 0; i < drive.rows(); ++i) {
      auto [it, end] = hash.Equal(drive_rows[2 * i + 1]);
      join_rows += end - it;
    }
    ok = compose(join_rows, [&](NodeId y, const auto& visit) {
      auto [it, end] = hash.Equal(y);
      for (; it != end && visit(index_rows[2 * *it + index_target]); ++it) {
      }
    });
  }
  if (!ok) return AbortStatus(ctx, "join");
  Table t = Table::FromData(columns, std::move(out));
  t.MarkSorted();
  return t;
}

// How the merge reads a row: rows of one or two columns pack into one
// uint64_t key, compared without a branch; wider rows compare
// lexicographically through a pointer to the row. (Comparing two-column
// rows lexicographically makes BM_ExecDistinctNestedUnion 1.5x slower,
// and slower than concatenating and sorting; Release, 4 vCPUs.)
struct PackedRows {
  size_t arity;
  uint64_t Key(const NodeId* row) const {
    return arity == 1 ? row[0] : (uint64_t{row[0]} << 32) | row[1];
  }
  static bool Less(uint64_t a, uint64_t b) { return a < b; }
};

struct WideRows {
  size_t arity;
  const NodeId* Key(const NodeId* row) const { return row; }
  bool Less(const NodeId* a, const NodeId* b) const {
    return std::lexicographical_compare(a, a + arity, b, b + arity);
  }
};

// The most inputs the merge takes. Each output row scans every input's
// current key, which compiles to conditional moves for packed keys; a
// wider union (the rewriter allows 64 disjuncts) concatenates and sorts.
constexpr size_t kMergeMaxInputs = 8;

// Calls `emit(row)` once per distinct row of `inputs` (at most
// kMergeMaxInputs, each sorted ascending), in ascending order. False
// when the deadline expired.
template <typename Rows, typename Emit>
bool MergeSortedRuns(const std::vector<Table>& inputs, const Rows& rows,
                     const Deadline& deadline, Emit emit) {
  using Key = decltype(rows.Key(nullptr));
  // The inputs' cursors live in local arrays, so each row's selection
  // reads no vector through memory.
  Key key[kMergeMaxInputs];
  const NodeId* row[kMergeMaxInputs];
  const NodeId* end[kMergeMaxInputs];
  size_t n = 0;
  for (const Table& t : inputs) {
    if (t.empty()) continue;
    row[n] = t.data().data();
    end[n] = row[n] + t.data().size();
    key[n] = rows.Key(row[n]);
    ++n;
  }
  DeadlinePoller poll(deadline);
  bool first = true;
  Key last{};  // keys only ascend: a row repeats the last iff not greater
  while (n > 0) {
    size_t min = 0;
    Key best = key[0];
    for (size_t i = 1; i < n; ++i) {
      bool less = rows.Less(key[i], best);
      best = less ? key[i] : best;
      min = less ? i : min;
    }
    if (first || rows.Less(last, best)) {
      emit(row[min]);
      last = best;
      first = false;
    }
    row[min] += rows.arity;
    if (row[min] == end[min]) {
      --n;
      key[min] = key[n];
      row[min] = row[n];
      end[min] = end[n];
    } else {
      key[min] = rows.Key(row[min]);
    }
    if (poll.Expired()) return false;
  }
  return true;
}

// Distinct over the union of `inputs`, each fully sorted ascending in
// `columns`' order: one k-way merge that drops adjacent duplicates,
// instead of concatenating and sorting. The output is sized exactly: a
// first pass counts the distinct rows, then one block of that size is
// charged and allocated, and a second pass fills it.
template <typename Rows>
Result<Table> MergeDistinctBy(const std::vector<Table>& inputs,
                              const std::vector<std::string>& columns,
                              const ExecContext& ctx, const Rows& rows) {
  const size_t k = columns.size();
  size_t count = 0;
  if (!MergeSortedRuns(inputs, rows, ctx.deadline,
                       [&count](const NodeId*) { ++count; })) {
    return AbortStatus(ctx, "union");
  }
  TrackedBytes charge(ctx.mem);
  if (!charge.Add(static_cast<int64_t>(count * k * sizeof(NodeId)))) {
    return AbortStatus(ctx, "union");
  }
  std::vector<NodeId> out;
  out.reserve(count * k);
  if (!MergeSortedRuns(inputs, rows, ctx.deadline,
                       [&out, k](const NodeId* row) {
                         out.insert(out.end(), row, row + k);
                       })) {
    return AbortStatus(ctx, "union");
  }
  if (out.size() != count * k) {
    return Status::Internal("union merge filled a different row count");
  }
  Table t = Table::FromData(columns, std::move(out));
  t.MarkSorted();
  return t;
}

Result<Table> MergeDistinct(const std::vector<Table>& inputs,
                            const std::vector<std::string>& columns,
                            const ExecContext& ctx) {
  if (columns.size() <= 2) {
    return MergeDistinctBy(inputs, columns, ctx, PackedRows{columns.size()});
  }
  return MergeDistinctBy(inputs, columns, ctx, WideRows{columns.size()});
}

// The leaves of the Union tree rooted at `e`, left to right, and each
// Union node in it with the range [begin, end) of the leaves beneath it.
struct UnionTree {
  struct Node {
    const RaExpr* node;
    size_t begin;
    size_t end;
  };
  std::vector<const RaExpr*> leaves;
  std::vector<Node> unions;
};

void FlattenUnion(const RaExpr* e, UnionTree* tree) {
  if (e->op() != RaOp::kUnion) {
    tree->leaves.push_back(e);
    return;
  }
  size_t begin = tree->leaves.size();
  FlattenUnion(e->left().get(), tree);
  FlattenUnion(e->right().get(), tree);
  tree->unions.push_back({e, begin, tree->leaves.size()});
}

}  // namespace

Result<Table> Executor::Run(const RaExprPtr& plan, const Deadline& deadline) {
  return Run(plan, ExecContext{deadline});
}

Result<Table> Executor::Run(const RaExprPtr& plan, const ExecContext& ctx) {
  memo_.clear();
  key_cache_.clear();
  actual_rows_.clear();
  actual_bytes_.clear();
  topk_pruned_frontier_ = 0;
  // Rebind the memo charge to this run's budget: releases the previous
  // run's table bytes, then accrues this run's materialized results.
  table_bytes_ = TrackedBytes(ctx.mem);
  return Eval(plan.get(), ctx);
}

namespace {

// Builds a canonical plan key in which column names are replaced by their
// first-occurrence index ($0, $1, ...) while labels stay literal. Plans
// that are identical up to a consistent renaming of their columns — which
// happens across UCQT disjuncts because each disjunct numbers its junction
// columns independently — get the same key and can share one evaluation
// (the cached table is relabeled positionally on a hit).
void CanonicalKey(const RaExpr* e,
                  std::unordered_map<std::string, size_t>* columns,
                  std::string* out) {
  auto col = [columns, out](const std::string& name) {
    auto [it, inserted] = columns->emplace(name, columns->size());
    (void)inserted;
    *out += "$" + std::to_string(it->second);
  };
  switch (e->op()) {
    case RaOp::kEdgeScan:
      *out += "E[" + e->label() + "](";
      col(e->columns()[0]);
      *out += ",";
      col(e->columns()[1]);
      *out += ")";
      return;
    case RaOp::kNodeScan: {
      *out += "N[";
      for (const std::string& label : e->labels()) *out += label + ",";
      *out += "](";
      col(e->columns()[0]);
      *out += ")";
      return;
    }
    case RaOp::kProject:
      *out += "P[";
      for (const auto& [from, to] : e->mappings()) {
        col(from);
        *out += ">";
        col(to);
        *out += ",";
      }
      *out += "](";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      return;
    case RaOp::kSelectEq:
      *out += "S[";
      col(e->eq_columns().first);
      *out += "=";
      col(e->eq_columns().second);
      *out += "](";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      return;
    case RaOp::kJoin:
    case RaOp::kSemiJoin:
    case RaOp::kUnion:
      if (e->op() == RaOp::kJoin) {
        // The physical annotation is part of join identity: strategies
        // produce differently-ordered rows, so differently-annotated
        // joins must not share one memoized table. The parallelism hint
        // is deliberately NOT part of the key — every strategy is
        // bit-identical at every dop, so hinted and unhinted joins may
        // share one table.
        *out += "J";
        if (e->join_strategy() != JoinStrategy::kAuto) {
          *out += JoinStrategyName(e->join_strategy());
        }
        *out += "(";
      } else {
        *out += e->op() == RaOp::kSemiJoin ? "SJ(" : "U(";
      }
      CanonicalKey(e->left().get(), columns, out);
      *out += ")(";
      CanonicalKey(e->right().get(), columns, out);
      *out += ")";
      return;
    case RaOp::kDistinct:
      *out += "D(";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      return;
    case RaOp::kTransitiveClosure:
      *out += "T[";
      col(e->src_col());
      *out += ",";
      col(e->tgt_col());
      *out += "," + std::to_string(static_cast<int>(e->seed_side())) + "](";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      if (e->seed()) {
        *out += "(";
        CanonicalKey(e->seed().get(), columns, out);
        *out += ")";
      }
      return;
    case RaOp::kSort:
    case RaOp::kTopK:
      // Keys (with directions), the bound, and the window offset are part
      // of node identity: a different order, k, or offset produces
      // different rows. An offset of 0 renders nothing, keeping every
      // pre-offset key byte-identical.
      *out += e->op() == RaOp::kSort
                  ? "O["
                  : "K[" + std::to_string(e->limit()) +
                        (e->offset() > 0
                             ? "@" + std::to_string(e->offset())
                             : "") +
                        ";";
      for (const SortKey& k : e->sort_keys()) {
        col(k.column);
        if (k.descending) *out += "v";
        *out += ",";
      }
      *out += "](";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      return;
    case RaOp::kLimit:
      *out += "L[" + std::to_string(e->limit()) +
              (e->offset() > 0 ? "@" + std::to_string(e->offset()) : "") +
              "](";
      CanonicalKey(e->left().get(), columns, out);
      *out += ")";
      return;
  }
}

// Resolves the total comparison order of a Sort/TopK node against a
// concrete table: the sort keys (each with its direction) followed by the
// remaining columns ascending in output order. Covering every column makes
// the order total, so equal-comparing rows are byte-identical and any
// sort/heap over it is deterministic without a stability requirement.
Result<std::vector<std::pair<int, bool>>> SortOrderOf(const RaExpr* e,
                                                      const Table& t) {
  std::vector<std::pair<int, bool>> order;
  order.reserve(t.arity());
  std::vector<bool> keyed(t.arity(), false);
  for (const SortKey& k : e->sort_keys()) {
    int idx = t.ColumnIndex(k.column);
    if (idx < 0) {
      return Status::Internal("sort key references unknown column " +
                              k.column);
    }
    order.emplace_back(idx, k.descending);
    keyed[idx] = true;
  }
  for (size_t i = 0; i < t.arity(); ++i) {
    if (!keyed[i]) order.emplace_back(static_cast<int>(i), false);
  }
  return order;
}

bool RowLess(const NodeId* a, const NodeId* b,
             const std::vector<std::pair<int, bool>>& order) {
  for (auto [idx, desc] : order) {
    if (a[idx] != b[idx]) return desc ? a[idx] > b[idx] : a[idx] < b[idx];
  }
  return false;
}

// Marks `t` with the ordering a Sort/TopK output carries — the same
// positional derivation as the RaExpr::Sort factory: keys sitting at
// their own leading positions form the declared prefix (with their
// directions); once the run covers every key, the ascending tie-break on
// the remaining columns makes the whole row order known.
void MarkSortedByKeys(Table* t, const RaExpr* e) {
  const std::vector<SortKey>& keys = e->sort_keys();
  size_t run = 0;
  std::vector<bool> desc;
  while (run < keys.size() && run < t->arity() &&
         keys[run].column == t->columns()[run]) {
    desc.push_back(keys[run].descending);
    ++run;
  }
  if (run == keys.size()) {
    t->MarkSortPrefix(t->arity(), std::move(desc));
  } else {
    t->MarkSortPrefix(run, std::move(desc));
  }
}

// Runtime mirror of OrderSatisfiedBy: the concrete table's derived
// ordering already delivers Sort(t, keys) verbatim (full-arity prefix,
// keys leading with matching directions, ascending tie-break beyond).
bool TableOrderSatisfies(const Table& t, const RaExpr* e) {
  if (t.sort_prefix() != t.arity()) return false;
  const std::vector<SortKey>& keys = e->sort_keys();
  if (keys.size() > t.arity()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].column != t.columns()[i] ||
        t.sort_descending(i) != keys[i].descending) {
      return false;
    }
  }
  for (size_t i = keys.size(); i < t.arity(); ++i) {
    if (t.sort_descending(i)) return false;
  }
  return true;
}

// First `k` rows of `t` as a fresh table carrying `t`'s ordering.
Table TruncateRows(const Table& t, size_t k,
                   const std::vector<std::string>& columns) {
  if (t.rows() <= k) return t;
  std::vector<NodeId> data(t.data().begin(),
                           t.data().begin() +
                               static_cast<long>(k * t.arity()));
  Table out = Table::FromData(columns, std::move(data));
  out.MarkSortPrefixFrom(t, t.sort_prefix());
  return out;
}

// Rows [offset, offset + k) of `t` as a fresh table carrying `t`'s
// ordering; TruncateRows is the offset-0 special case (which can share
// the child's storage when it already fits).
Table WindowRows(const Table& t, size_t offset, size_t k,
                 const std::vector<std::string>& columns) {
  if (offset == 0) return TruncateRows(t, k, columns);
  size_t begin = std::min(offset, t.rows());
  size_t end = std::min(offset + k, t.rows());
  std::vector<NodeId> data(
      t.data().begin() + static_cast<long>(begin * t.arity()),
      t.data().begin() + static_cast<long>(end * t.arity()));
  Table out = Table::FromData(columns, std::move(data));
  out.MarkSortPrefixFrom(t, t.sort_prefix());
  return out;
}

}  // namespace

const std::string& Executor::KeyOf(const RaExpr* e) {
  auto cached = key_cache_.find(e);
  if (cached != key_cache_.end()) return cached->second;
  std::unordered_map<std::string, size_t> columns;
  std::string key;
  CanonicalKey(e, &columns, &key);
  return key_cache_.emplace(e, std::move(key)).first->second;
}

Result<Table> Executor::Eval(const RaExpr* e, const ExecContext& ctx) {
  const Deadline& deadline = ctx.deadline;
  const std::string& key = KeyOf(e);
  auto cached = memo_.find(key);
  if (cached != memo_.end()) {
    // Same plan modulo column renaming: share the row storage (copy on
    // write) and relabel the columns positionally for this node's schema.
    actual_rows_[e] = cached->second.rows();
    actual_bytes_[e] = cached->second.data().size() * sizeof(NodeId);
    return cached->second.RenamedTo(e->columns());
  }
  if (deadline.Expired() || ctx.MemBreached()) {
    return AbortStatus(ctx, "plan execution");
  }

  // Child contexts drop the limit hint unless the operator explicitly
  // forwards it: only a 1:1 order-preserving operator (Project) or one
  // that re-derives its own bound (Limit) may pass it down — anything
  // else (filters, joins, distinct, sorts) needs its full input.
  ExecContext inner = ctx;
  inner.limit_hint = 0;

  Result<Table> result = [&]() -> Result<Table> {
    switch (e->op()) {
      case RaOp::kEdgeScan: {
        // The merged view unions the base run with any pending delta run
        // (overlay catalogs) in (source, target) order — a base catalog
        // degenerates to the plain sorted edge vector.
        inc::MergedEdgeRun edges = catalog_.EdgeView(e->label());
        // A limit hint truncates the scan: the first rows of a sorted
        // scan are exactly the unhinted output's prefix.
        size_t cap = ctx.limit_hint == 0
                         ? std::numeric_limits<size_t>::max()
                         : ctx.limit_hint * 2;
        std::vector<NodeId> data;
        data.reserve(std::min(edges.size() * 2, cap));
        DeadlinePoller poll(deadline);
        Status scan_status = Status::OK();
        edges.Scan([&](const Edge& pair) {
          if (data.size() >= cap) return false;
          data.push_back(pair.first);
          data.push_back(pair.second);
          if (poll.Expired()) {
            scan_status = Status::DeadlineExceeded("edge scan timed out");
            return false;
          }
          return true;
        });
        if (!scan_status.ok()) return scan_status;
        Table t = Table::FromData({e->columns()[0], e->columns()[1]},
                                  std::move(data));
        t.MarkSorted();  // edge tables are sorted by (source, target)
        return t;
      }
      case RaOp::kNodeScan: {
        Table t({e->columns()[0]});
        DeadlinePoller poll(deadline);
        for (NodeId n : catalog_.NodeExtentUnion(e->labels())) {
          if (ctx.limit_hint != 0 && t.rows() >= ctx.limit_hint) break;
          t.AddRow(&n);
          if (poll.Expired()) {
            return Status::DeadlineExceeded("node scan timed out");
          }
        }
        t.MarkSorted();  // node extents are sorted ascending
        return t;
      }
      case RaOp::kProject: {
        GQOPT_ASSIGN_OR_RETURN(Table child, Eval(e->left().get(), ctx));
        std::vector<int> sources;
        sources.reserve(e->mappings().size());
        for (const auto& [from, to] : e->mappings()) {
          (void)to;
          int idx = child.ColumnIndex(from);
          if (idx < 0) {
            return Status::Internal("projection references unknown column " +
                                    from);
          }
          sources.push_back(idx);
        }
        // A projection whose leading output columns are the child's
        // leading columns in place preserves that much of the child's
        // sorted prefix (renaming does not matter — order is positional).
        size_t identity_run = 0;
        while (identity_run < sources.size() &&
               sources[identity_run] == static_cast<int>(identity_run)) {
          ++identity_run;
        }
        // Identity projection (pure rename): share the row block.
        if (identity_run == sources.size() &&
            sources.size() == child.arity()) {
          return child.RenamedTo(e->columns());
        }
        std::vector<NodeId> data;
        int par = ctx.EffectiveDop(child.rows());
        if (par > 1) {
          // Row r's output occupies a fixed slot, so morsels write
          // disjoint ranges of one pre-sized block — parallel with no
          // reordering. (The value-initializing resize is redundant
          // write traffic, so the serial path below appends instead.)
          data.resize(child.rows() * sources.size());
          bool ok = ParallelFor(
              ctx.TaskPool(), par, child.rows(),
              ParallelGrain(child.rows(), par), deadline,
              [&](size_t b, size_t end) {
                DeadlinePoller poll(deadline);
                NodeId* out = data.data() + b * sources.size();
                for (size_t r = b; r < end; ++r) {
                  const NodeId* in = child.Row(r);
                  for (int src_idx : sources) *out++ = in[src_idx];
                  if (poll.Expired()) return false;
                }
                return true;
              });
          if (!ok) return Status::DeadlineExceeded("projection timed out");
        } else {
          data.reserve(child.rows() * sources.size());
          DeadlinePoller poll(deadline);
          for (size_t r = 0; r < child.rows(); ++r) {
            const NodeId* in = child.Row(r);
            for (int src_idx : sources) data.push_back(in[src_idx]);
            if (poll.Expired()) {
              return Status::DeadlineExceeded("projection timed out");
            }
          }
        }
        Table t = Table::FromData(e->columns(), std::move(data));
        t.MarkSortPrefixFrom(child, identity_run);
        return t;
      }
      case RaOp::kSelectEq: {
        GQOPT_ASSIGN_OR_RETURN(Table child, Eval(e->left().get(), inner));
        int a = child.ColumnIndex(e->eq_columns().first);
        int b = child.ColumnIndex(e->eq_columns().second);
        if (a < 0 || b < 0) {
          return Status::Internal("selection references unknown column");
        }
        size_t child_prefix = child.sort_prefix();
        // Variable-length output: at dop > 1, morsels filter into
        // per-morsel buffers concatenated in morsel order — the child's
        // row order (and thus its sorted prefix) survives at every dop.
        // Serial keeps the single-pass direct emit.
        size_t arity = child.arity();
        std::vector<NodeId> data;
        auto filter_range = [&](size_t begin, size_t end,
                                std::vector<NodeId>* dst) -> bool {
          DeadlinePoller range_poll(deadline);
          for (size_t r = begin; r < end; ++r) {
            // Per-morsel limit cap: morsel buffers concatenate in order,
            // so capping each at limit_hint rows preserves the operator's
            // output prefix (a morsel only truncates once it alone holds
            // the whole answer).
            if (ctx.limit_hint != 0 &&
                dst->size() >= ctx.limit_hint * arity) {
              return true;
            }
            const NodeId* row = child.Row(r);
            if (row[a] == row[b]) {
              dst->insert(dst->end(), row, row + arity);
            }
            if (range_poll.Expired()) return false;
          }
          return true;
        };
        int par = ctx.EffectiveDop(child.rows());
        if (!ParallelAppend(ctx.TaskPool(), par, child.rows(),
                            ParallelGrain(child.rows(), par), deadline,
                            &data, filter_range)) {
          return Status::DeadlineExceeded("selection timed out");
        }
        Table t = Table::FromData(child.columns(), std::move(data));
        t.MarkSortPrefixFrom(child, child_prefix);  // filtering keeps order
        return t;
      }
      case RaOp::kJoin:
        return EvalJoin(e, ctx);
      case RaOp::kSemiJoin:
        return EvalSemiJoin(e, ctx);
      case RaOp::kUnion: {
        GQOPT_ASSIGN_OR_RETURN(Table left, Eval(e->left().get(), inner));
        GQOPT_ASSIGN_OR_RETURN(Table right, Eval(e->right().get(), inner));
        // Align right columns to the left order.
        std::vector<int> align;
        align.reserve(left.arity());
        for (const std::string& col : left.columns()) {
          int idx = right.ColumnIndex(col);
          if (idx < 0) return Status::Internal("union schema mismatch");
          align.push_back(idx);
        }
        bool align_identity = true;
        for (size_t i = 0; i < align.size(); ++i) {
          if (align[i] != static_cast<int>(i)) align_identity = false;
        }
        std::vector<NodeId> data;
        data.reserve(left.data().size() + right.data().size());
        // Left columns match the output order: one block append.
        data.insert(data.end(), left.data().begin(), left.data().end());
        if (deadline.Expired()) {
          return Status::DeadlineExceeded("union timed out");
        }
        if (align_identity) {
          data.insert(data.end(), right.data().begin(), right.data().end());
        } else {
          DeadlinePoller poll(deadline);
          for (size_t r = 0; r < right.rows(); ++r) {
            const NodeId* in = right.Row(r);
            for (int idx : align) data.push_back(in[idx]);
            if (poll.Expired()) {
              return Status::DeadlineExceeded("union timed out");
            }
          }
        }
        Table t = Table::FromData(left.columns(), std::move(data));
        // Concatenation drops ordering unless one side was empty.
        if (right.rows() == 0) {
          t.MarkSortPrefixFrom(left, left.sort_prefix());
        } else if (left.rows() == 0 && align_identity) {
          t.MarkSortPrefixFrom(right, right.sort_prefix());
        }
        return t;
      }
      case RaOp::kDistinct:
        return EvalDistinct(e, inner);
      case RaOp::kTransitiveClosure:
        return EvalClosure(e, inner);
      case RaOp::kSort:
        return EvalSort(e, ctx);
      case RaOp::kLimit:
        return EvalLimit(e, ctx);
      case RaOp::kTopK:
        return EvalTopK(e, ctx);
    }
    return Status::Internal("unhandled RA op");
  }();

  if (result.ok()) {
    // Record the actual cardinality for EXPLAIN's analyze mode before
    // memoizing (the memo shares the same table, so hits record the same
    // count under their own node pointer).
    actual_rows_[e] = result.value().rows();
    size_t bytes = result.value().data().size() * sizeof(NodeId);
    actual_bytes_[e] = bytes;
    // The memoized table lives until the next Run(): charge it against
    // the query budget. This is also the enforcement backstop — every
    // materialized result passes through here, so a query over its
    // budget gets a typed "resource:" failure even if the operator's
    // internal polls never fired.
    if (!table_bytes_.Add(static_cast<int64_t>(bytes))) {
      return AbortStatus(ctx, "plan execution");
    }
    // A hinted evaluation may have stopped early: the truncated table is
    // correct for this caller but must never masquerade as the node's
    // full result for another. (Memo READS under a hint stay valid — a
    // full table's prefix is the hinted answer.)
    if (ctx.limit_hint == 0) memo_.emplace(key, result.value());
  }
  return result;
}

Result<Table> Executor::EvalDistinct(const RaExpr* e,
                                     const ExecContext& ctx) {
  const RaExpr* child_e = e->left().get();
  // A fused node is not materialized: it records the rows the unfused
  // plan would have produced, and 0 bytes.
  auto record_fused = [this](const RaExpr* node, size_t rows) {
    actual_rows_[node] = rows;
    actual_bytes_[node] = 0;
  };
  if (std::optional<ComposeShape> shape = MatchCompose(e)) {
    GQOPT_ASSIGN_OR_RETURN(Table left, Eval(shape->join->left().get(), ctx));
    GQOPT_ASSIGN_OR_RETURN(Table right,
                           Eval(shape->join->right().get(), ctx));
    const Table& drive = shape->drive_left ? left : right;
    // Fused only when the drive side is already sorted on its output
    // column, at position 0 (the shared column is the other one): an
    // input is never sorted for the composition's sake.
    if (drive.ascending_prefix() >= 1 &&
        drive.ColumnIndex(shape->middle) == 1) {
      size_t matches = 0;
      GQOPT_ASSIGN_OR_RETURN(
          Table out,
          FusedCompose(drive, shape->drive_left ? right : left,
                       shape->middle, e->columns(), ctx, &matches));
      record_fused(shape->join, matches);
      record_fused(shape->project, matches);
      return out;
    }
  } else if (child_e->op() == RaOp::kUnion) {
    // Merged only when the Union tree has at most kMergeMaxInputs leaves
    // and every leaf is sorted ascending in this node's column order (an
    // empty leaf adds nothing): a leaf is never sorted for the merge's
    // sake.
    UnionTree tree;
    FlattenUnion(child_e, &tree);
    std::vector<Table> leaves;
    leaves.reserve(tree.leaves.size());
    bool mergeable = tree.leaves.size() <= kMergeMaxInputs;
    for (const RaExpr* leaf : tree.leaves) {
      GQOPT_ASSIGN_OR_RETURN(Table t, Eval(leaf, ctx));
      mergeable = mergeable &&
                  (t.empty() || (t.sorted() && t.columns() == e->columns()));
      leaves.push_back(std::move(t));
    }
    if (mergeable) {
      for (const UnionTree::Node& u : tree.unions) {
        size_t rows = 0;
        for (size_t i = u.begin; i < u.end; ++i) rows += leaves[i].rows();
        record_fused(u.node, rows);
      }
      return MergeDistinct(leaves, e->columns(), ctx);
    }
  }
  // The general path; the inputs read above are memo hits here.
  GQOPT_ASSIGN_OR_RETURN(Table child, Eval(child_e, ctx));
  child.SortDistinct();
  return child;
}

Result<Table> Executor::EvalJoin(const RaExpr* e, const ExecContext& ctx) {
  const Deadline& deadline = ctx.deadline;
  // Children need their full inputs (a join row can draw on any child
  // row); the hint only bounds this join's own emit loops below.
  ExecContext inner = ctx;
  inner.limit_hint = 0;
  GQOPT_ASSIGN_OR_RETURN(Table left, Eval(e->left().get(), inner));
  GQOPT_ASSIGN_OR_RETURN(Table right, Eval(e->right().get(), inner));

  std::vector<std::string> shared = SharedColumns(*e->left(), *e->right());
  std::vector<int> left_keys, right_keys;
  for (const std::string& col : shared) {
    left_keys.push_back(left.ColumnIndex(col));
    right_keys.push_back(right.ColumnIndex(col));
  }
  // Right-side columns that are new to the output.
  std::vector<int> right_extra;
  for (size_t i = 0; i < right.columns().size(); ++i) {
    if (left.ColumnIndex(right.columns()[i]) < 0) {
      right_extra.push_back(static_cast<int>(i));
    }
  }

  DeadlinePoller poll(deadline);

  // Output rows accumulate in a plain vector (adopted via FromData at the
  // end) so the inner loops skip per-row copy-on-write checks.
  std::vector<NodeId> out_data;
  // Speculative reserve bounded by the smaller input: avoids the first
  // few growth doublings without committing huge memory up front for
  // selective joins.
  out_data.reserve(std::min(left.rows(), right.rows()) *
                   e->columns().size());
  // Charges the output buffer against the query budget, re-measured at
  // poll cadence via abort_now() below.
  GrowthCharge out_charge(ctx.mem);
  // Amortized abort check for the serial emit loops: deadline expiry or
  // a memory-budget breach (the charge update returns false once the
  // tracker latched). Callers gate it on poll.Due().
  auto abort_now = [&] {
    return deadline.Expired() ||
           !out_charge.Update(out_data.capacity() * sizeof(NodeId));
  };
  if (abort_now()) return AbortStatus(ctx, "join");
  size_t left_arity = left.arity();
  // The parallel paths emit into per-morsel buffers; serial paths emit
  // straight into out_data through the no-argument wrapper.
  auto emit_to = [&](const NodeId* lrow, const NodeId* rrow,
                     std::vector<NodeId>* dst) {
    dst->insert(dst->end(), lrow, lrow + left_arity);
    for (int idx : right_extra) dst->push_back(rrow[idx]);
  };
  auto emit = [&](const NodeId* lrow, const NodeId* rrow) {
    emit_to(lrow, rrow, &out_data);
  };
  // Early-termination bound from a Limit above: once the output holds
  // limit_hint rows the caller keeps only those, so the order-preserving
  // emit loops stop producing (expressed in flat NodeId counts).
  const size_t limit_cap =
      ctx.limit_hint == 0 ? std::numeric_limits<size_t>::max()
                          : ctx.limit_hint * e->columns().size();
  auto limit_reached = [&] { return out_data.size() >= limit_cap; };
  // `order_src` carries the per-column directions of the side whose
  // ordering survives (null = no ordering claim).
  auto finish = [&](const Table* order_src, size_t sorted_prefix) {
    Table t = Table::FromData(e->columns(), std::move(out_data));
    if (order_src != nullptr) {
      t.MarkSortPrefixFrom(*order_src, sorted_prefix);
    } else {
      t.MarkSortPrefix(sorted_prefix);
    }
    return t;
  };

  if (shared.empty()) {
    // Cross product; left rows drive the outer loop, so the left side's
    // ordering survives.
    for (size_t l = 0; l < left.rows() && !limit_reached(); ++l) {
      for (size_t r = 0; r < right.rows() && !limit_reached(); ++r) {
        if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
        emit(left.Row(l), right.Row(r));
      }
    }
    return finish(&left, left.sort_prefix());
  }

  // ---- Physical strategy -------------------------------------------------
  // Honor the optimizer's plan-time annotation when its runtime
  // preconditions hold; otherwise (and for unannotated plans) derive the
  // same choice from the concrete tables' ordering properties. Every
  // strategy computes the same join, so degrading is always safe.
  size_t m = shared.size();
  // Merge: the shared columns are the leading m columns of both sides at
  // pairwise-equal positions (one key order) and both inputs are sorted
  // ASCENDING at least that deep. The ascending_prefix() check (not
  // sort_prefix()) closes the latent tie-break hole: a descending
  // producer marking a plain prefix used to masquerade as merge input.
  bool merge_ok =
      left.ascending_prefix() >= m && right.ascending_prefix() >= m;
  for (size_t j = 0; merge_ok && j < m; ++j) {
    merge_ok = left_keys[j] == right_keys[j] &&
               left_keys[j] < static_cast<int>(m);
  }
  // Offset: a single shared column that one input is sorted on as its
  // first column, over a dense enough key domain.
  bool right_indexable =
      m == 1 && right_keys[0] == 0 && OffsetWorthwhile(right);
  bool left_indexable =
      m == 1 && left_keys[0] == 0 && OffsetWorthwhile(left);

  JoinStrategy strategy = e->join_strategy();
  if (strategy == JoinStrategy::kMergeSorted && !merge_ok) {
    strategy = JoinStrategy::kAuto;
  }
  if (strategy == JoinStrategy::kOffset &&
      !(right_indexable || left_indexable)) {
    strategy = JoinStrategy::kAuto;
  }
  if (strategy == JoinStrategy::kFlatHash &&
      std::min(left.rows(), right.rows()) >= kRadixMinBuildRows) {
    // kFlatHash's precondition is a build side small enough for one
    // cache-resident index; when the optimizer's estimate undershot the
    // actual size, partitioning pays for itself — the mirror image of an
    // annotated radix join degrading to one flat index (radix_bits = 0)
    // on a small actual build.
    strategy = JoinStrategy::kRadixHash;
  }
  if (strategy == JoinStrategy::kAuto) {
    if (merge_ok) {
      strategy = JoinStrategy::kMergeSorted;
    } else if (right_indexable || left_indexable) {
      strategy = JoinStrategy::kOffset;
    } else {
      strategy = std::min(left.rows(), right.rows()) >= kRadixMinBuildRows
                     ? JoinStrategy::kRadixHash
                     : JoinStrategy::kFlatHash;
    }
  }

  if (strategy == JoinStrategy::kMergeSorted) {
    // Sort-merge join: one streaming pass, cross-producting each run of
    // equal keys. Keys sit at positions [0, m) on both sides in the same
    // order, so rows compare directly.
    auto cmp_keys = [m](const NodeId* a, const NodeId* b) {
      for (size_t i = 0; i < m; ++i) {
        if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
      }
      return 0;
    };
    size_t l = 0, r = 0;
    size_t ln = left.rows(), rn = right.rows();
    while (l < ln && r < rn && !limit_reached()) {
      if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
      int c = cmp_keys(left.Row(l), right.Row(r));
      if (c < 0) {
        ++l;
        continue;
      }
      if (c > 0) {
        ++r;
        continue;
      }
      size_t le = l + 1;
      while (le < ln && cmp_keys(left.Row(le), left.Row(l)) == 0) {
        ++le;
        if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
      }
      size_t re = r + 1;
      while (re < rn && cmp_keys(right.Row(re), right.Row(r)) == 0) {
        ++re;
        if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
      }
      for (size_t li = l; li < le && !limit_reached(); ++li) {
        for (size_t ri = r; ri < re && !limit_reached(); ++ri) {
          if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
          emit(left.Row(li), right.Row(ri));
        }
      }
      l = le;
      r = re;
    }
    // Output streams in left-row order (each row repeated per matching
    // right run), so the left side's full sorted prefix survives.
    return finish(&left, left.sort_prefix());
  }

  if (strategy == JoinStrategy::kOffset) {
    // Dense offset array over the sorted side: O(1) lookup with
    // contiguous matches — no hashing at all. Prefer the right side as
    // the build so the left (probe) side's ordering survives.
    const Table& bld = right_indexable ? right : left;
    const Table& prb = right_indexable ? left : right;
    int prb_key = right_indexable ? left_keys[0] : right_keys[0];
    size_t bld_arity = bld.arity();
    const std::vector<NodeId>& bld_data = bld.data();
    // offsets[v] = first build row whose key column is >= v (shared
    // offset-fill helper, same walk as CsrView::Build).
    NodeId max_key = bld.Row(bld.rows() - 1)[0];
    std::vector<uint32_t> offsets;
    FillSortedOffsets(
        bld.rows(), static_cast<size_t>(max_key) + 1,
        [&bld_data, bld_arity](uint32_t r) { return bld_data[r * bld_arity]; },
        &offsets);
    if (abort_now()) return AbortStatus(ctx, "join");
    for (size_t p = 0; p < prb.rows() && !limit_reached(); ++p) {
      const NodeId* prow = prb.Row(p);
      if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
      NodeId key = prow[prb_key];
      if (key > max_key) continue;
      for (uint32_t r = offsets[key];
           r < offsets[key + 1] && !limit_reached(); ++r) {
        if (poll.Due() && abort_now()) return AbortStatus(ctx, "join");
        const NodeId* brow = bld.Row(r);
        emit(right_indexable ? prow : brow, right_indexable ? brow : prow);
      }
    }
    return finish(right_indexable ? &left : nullptr,
                  right_indexable ? left.sort_prefix() : 0);
  }

  // Hash join, building on the smaller input.
  bool build_left = left.rows() < right.rows();
  const Table& build = build_left ? left : right;
  const Table& probe = build_left ? right : left;
  const std::vector<int>& build_keys = build_left ? left_keys : right_keys;
  const std::vector<int>& probe_keys = build_left ? right_keys : left_keys;
  bool verify = shared.size() > 2;

  ThreadPool* pool = ctx.TaskPool();
  // Packed keys fill fixed slots, so morsels write disjoint ranges of a
  // pre-sized vector — parallel with no reordering.
  auto pack_keys = [&](const Table& t, const std::vector<int>& cols,
                       std::vector<uint64_t>* keys) {
    keys->resize(t.rows());
    int key_par = ctx.EffectiveDop(t.rows());
    return ParallelFor(
        pool, key_par, t.rows(), ParallelGrain(t.rows(), key_par), deadline,
        [&](size_t begin, size_t end) {
          DeadlinePoller key_poll(deadline);
          for (size_t r = begin; r < end; ++r) {
            (*keys)[r] = PackKey(t.Row(r), cols);
            if (key_poll.Expired()) return false;
          }
          return true;
        });
  };
  std::vector<uint64_t> build_key_vec;
  if (!pack_keys(build, build_keys, &build_key_vec)) {
    return AbortStatus(ctx, "join");
  }

  int radix_bits = strategy == JoinStrategy::kRadixHash
                       ? RadixBitsFor(build.rows())
                       : 0;
  if (radix_bits > 0) {
    // Radix-partitioned hash join: scatter both sides by the high bits of
    // the key hash, then build and probe one cache-sized FlatJoinIndex
    // per partition. Matching keys land in the same partition on both
    // sides by construction, so partitions are independent — at dop > 1
    // the scatter runs chunk-parallel and the partitions build/probe
    // concurrently, each emitting into its own buffer; buffers
    // concatenate in partition order, reproducing the serial output.
    std::vector<uint64_t> probe_key_vec;
    if (!pack_keys(probe, probe_keys, &probe_key_vec)) {
      return AbortStatus(ctx, "join");
    }
    // Tuple-mode scatter: only the rows themselves move; each
    // partition's keys are re-packed from its cache-resident tuple run,
    // so the build, probe and emit loops all touch partition-local
    // memory and the bandwidth-bound scatter moves half the bytes.
    RadixPartitions bparts, pparts;
    if (!BuildRadixPartitionsParallel(build_key_vec, radix_bits, ctx,
                                      &bparts, build.data().data(),
                                      build.arity()) ||
        !BuildRadixPartitionsParallel(probe_key_vec, radix_bits, ctx,
                                      &pparts, probe.data().data(),
                                      probe.arity())) {
      return AbortStatus(ctx, "join");
    }
    auto join_partitions = [&](size_t part_begin, size_t part_end,
                               std::vector<NodeId>* dst) -> bool {
      std::vector<uint64_t> part_keys;
      DeadlinePoller part_poll(deadline);
      // Per-worker charge for this morsel's output growth beyond its
      // entry capacity — at dop 1 `dst` aliases out_data, whose reserve
      // out_charge already holds. (The transient per-partition index
      // charges through its own ctor.)
      GrowthCharge dst_charge(ctx.mem);
      const size_t base_bytes = dst->capacity() * sizeof(NodeId);
      auto part_abort = [&] {
        return deadline.Expired() ||
               !dst_charge.Update(dst->capacity() * sizeof(NodeId) -
                                  base_bytes);
      };
      for (size_t part = part_begin; part < part_end; ++part) {
        uint32_t bb = bparts.offsets[part], be = bparts.offsets[part + 1];
        uint32_t pb = pparts.offsets[part], pe = pparts.offsets[part + 1];
        if (bb == be || pb == pe) continue;
        part_keys.resize(be - bb);
        for (uint32_t i = bb; i < be; ++i) {
          if (part_poll.Due() && part_abort()) return false;
          part_keys[i - bb] = PackKey(bparts.Row(i), build_keys);
        }
        FlatJoinIndex index(part_keys.data(), part_keys.size(), ctx.mem);
        for (uint32_t p = pb; p < pe; ++p) {
          if (part_poll.Due() && part_abort()) return false;
          const NodeId* prow = pparts.Row(p);
          auto [it, end] = index.Equal(PackKey(prow, probe_keys));
          for (; it != end; ++it) {
            if (part_poll.Due() && part_abort()) return false;
            const NodeId* brow = bparts.Row(bb + *it);
            const NodeId* lrow = build_left ? brow : prow;
            const NodeId* rrow = build_left ? prow : brow;
            if (verify && !RowsMatch(lrow, left_keys, rrow, right_keys)) {
              continue;
            }
            emit_to(lrow, rrow, dst);
          }
        }
      }
      return true;
    };
    size_t parts = bparts.partitions();
    // Same rule as the optimizer's p= hint (max of the input estimates):
    // probe is the larger side by construction, so it must cross the
    // threshold for the partition loop to fan out.
    int par = ctx.EffectiveDop(probe.rows());
    if (!ParallelAppend(pool, par, parts,
                        ParallelGrain(parts, par, /*min_grain=*/1), deadline,
                        &out_data, join_partitions)) {
      return AbortStatus(ctx, "join");
    }
    return finish(nullptr, 0);
  }

  // Flat hash join: contiguous (key, row) entries with linear-probing
  // buckets, no per-bucket allocations. The index is built once and read
  // only — at dop > 1 the probe side splits into morsels sharing it, each
  // emitting into its own buffer; buffers concatenate in morsel order, so
  // the probe-order output (and any sort-prefix claim on it) survives.
  FlatJoinIndex index(build_key_vec, ctx.mem);
  auto probe_range = [&](size_t range_begin, size_t range_end,
                         std::vector<NodeId>* dst) -> bool {
    DeadlinePoller probe_poll(deadline);
    // Growth beyond the entry capacity only — at dop 1 `dst` aliases
    // out_data, whose reserve out_charge already holds.
    GrowthCharge dst_charge(ctx.mem);
    const size_t base_bytes = dst->capacity() * sizeof(NodeId);
    auto range_abort = [&] {
      return deadline.Expired() ||
             !dst_charge.Update(dst->capacity() * sizeof(NodeId) -
                                base_bytes);
    };
    for (size_t p = range_begin; p < range_end; ++p) {
      // Per-morsel limit cap (ordered concatenation preserves the
      // operator's output prefix — see the selection case).
      if (ctx.limit_hint != 0 && dst->size() >= limit_cap) return true;
      const NodeId* prow = probe.Row(p);
      auto [it, end] = index.Equal(PackKey(prow, probe_keys));
      for (; it != end; ++it) {
        if (probe_poll.Due() && range_abort()) return false;
        const NodeId* brow = build.Row(*it);
        const NodeId* lrow = build_left ? brow : prow;
        const NodeId* rrow = build_left ? prow : brow;
        if (verify && !RowsMatch(lrow, left_keys, rrow, right_keys)) {
          continue;
        }
        emit_to(lrow, rrow, dst);
      }
    }
    return true;
  };
  int par = ctx.EffectiveDop(probe.rows());
  if (!ParallelAppend(pool, par, probe.rows(),
                      ParallelGrain(probe.rows(), par), deadline, &out_data,
                      probe_range)) {
    return AbortStatus(ctx, "join");
  }
  // When the left side drove the probe loop, the output streams in
  // left-row order with the left columns leading, so its prefix survives
  // (the radix path scatters probe rows and cannot claim this).
  return finish(build_left ? nullptr : &left,
                build_left ? 0 : left.sort_prefix());
}

Result<Table> Executor::EvalSemiJoin(const RaExpr* e,
                                     const ExecContext& ctx) {
  const Deadline& deadline = ctx.deadline;
  ExecContext inner = ctx;
  inner.limit_hint = 0;
  GQOPT_ASSIGN_OR_RETURN(Table left, Eval(e->left().get(), inner));
  GQOPT_ASSIGN_OR_RETURN(Table right, Eval(e->right().get(), inner));
  std::vector<std::string> shared = SharedColumns(*e->left(), *e->right());
  if (shared.empty()) {
    // Degenerate: keep left iff right non-empty.
    if (right.rows() > 0) return left;
    return Table(left.columns());
  }
  std::vector<int> left_keys, right_keys;
  for (const std::string& col : shared) {
    left_keys.push_back(left.ColumnIndex(col));
    right_keys.push_back(right.ColumnIndex(col));
  }

  size_t left_prefix = left.sort_prefix();
  Table out(left.columns());
  DeadlinePoller poll(deadline);

  // Offset fast path: existence bitmap over a right side sorted
  // ASCENDING on the single shared column (the max-key bound below reads
  // the last row), gated on a dense key domain (the bitmap costs
  // O(max key)).
  if (shared.size() == 1 && right_keys[0] == 0 &&
      right.ascending_prefix() >= 1 && right.rows() > 0 &&
      static_cast<size_t>(right.Row(right.rows() - 1)[0]) <
          64 * right.rows() + 1024) {
    NodeId max_key = right.Row(right.rows() - 1)[0];
    std::vector<bool> present(static_cast<size_t>(max_key) + 1, false);
    for (size_t r = 0; r < right.rows(); ++r) {
      if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
        return AbortStatus(ctx, "semi-join");
      }
      present[right.Row(r)[0]] = true;
    }
    int lk = left_keys[0];
    for (size_t l = 0; l < left.rows(); ++l) {
      if (ctx.limit_hint != 0 && out.rows() >= ctx.limit_hint) break;
      if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
        return AbortStatus(ctx, "semi-join");
      }
      NodeId key = left.Row(l)[lk];
      if (key <= max_key && present[key]) out.AddRow(left.Row(l));
    }
    out.MarkSortPrefixFrom(left, left_prefix);
    return out;
  }

  // Flat existence set; row groups are only needed when the packed key
  // folds more than two columns and probes must re-verify equality.
  bool verify = shared.size() > 2;
  FlatKeySet keys(verify ? 0 : right.rows(), ctx.mem);
  std::vector<uint64_t> right_key_vec;
  if (verify) {
    right_key_vec.resize(right.rows());
  }
  for (size_t r = 0; r < right.rows(); ++r) {
    if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
      return AbortStatus(ctx, "semi-join");
    }
    uint64_t key = PackKey(right.Row(r), right_keys);
    if (verify) {
      right_key_vec[r] = key;
    } else {
      keys.Insert(key);
    }
  }
  FlatJoinIndex index(right_key_vec, ctx.mem);
  for (size_t l = 0; l < left.rows(); ++l) {
    if (ctx.limit_hint != 0 && out.rows() >= ctx.limit_hint) break;
    if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
      return AbortStatus(ctx, "semi-join");
    }
    uint64_t key = PackKey(left.Row(l), left_keys);
    bool matched = false;
    if (verify) {
      auto [it, end] = index.Equal(key);
      for (; it != end; ++it) {
        if (RowsMatch(left.Row(l), left_keys, right.Row(*it), right_keys)) {
          matched = true;
          break;
        }
      }
    } else {
      matched = keys.Contains(key);
    }
    if (matched) out.AddRow(left.Row(l));
  }
  out.MarkSortPrefixFrom(left, left_prefix);
  return out;
}

Result<Table> Executor::EvalClosure(const RaExpr* e, const ExecContext& ctx,
                                    const ClosureTopKBound& bound) {
  const Deadline& deadline = ctx.deadline;
  GQOPT_ASSIGN_OR_RETURN(Table body, Eval(e->left().get(), ctx));
  int src = body.ColumnIndex(e->src_col());
  int tgt = body.ColumnIndex(e->tgt_col());
  if (src < 0 || tgt < 0) {
    return Status::Internal("closure body lacks its endpoint columns");
  }
  std::vector<Edge> pairs;
  pairs.reserve(body.rows());
  DeadlinePoller poll(deadline);
  for (size_t r = 0; r < body.rows(); ++r) {
    pairs.emplace_back(body.Row(r)[src], body.Row(r)[tgt]);
    if (poll.Due() && (deadline.Expired() || ctx.MemBreached())) {
      return AbortStatus(ctx, "closure");
    }
  }
  BinaryRelation base = BinaryRelation::FromPairs(std::move(pairs));

  BinaryRelation acc;
  if (e->seed_side() == SeedSide::kNone) {
    GQOPT_ASSIGN_OR_RETURN(acc, BinaryRelation::TransitiveClosure(base, ctx));
  } else {
    GQOPT_ASSIGN_OR_RETURN(Table seed_table,
                           Eval(e->seed().get(), ctx));
    std::vector<NodeId> seeds;
    seeds.reserve(seed_table.rows());
    for (size_t r = 0; r < seed_table.rows(); ++r) {
      seeds.push_back(seed_table.Row(r)[0]);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    GQOPT_ASSIGN_OR_RETURN(
        acc, SeededClosure(base, seeds, e->seed_side() == SeedSide::kSource,
                           ctx, bound, &topk_pruned_frontier_));
  }

  std::vector<NodeId> data;
  data.reserve(acc.size() * 2);
  for (const Edge& pair : acc.pairs()) {
    data.push_back(pair.first);
    data.push_back(pair.second);
  }
  Table out = Table::FromData({e->src_col(), e->tgt_col()}, std::move(data));
  out.MarkSorted();  // closure results are sorted pair sets
  return out;
}

namespace {

// Bounded-heap top-k over `child` under the node's total order: one pass
// holding at most k row indices in a worst-on-top heap — O(n log k) time
// and O(k) extra memory where a full sort buffer would be O(n). The
// total order (all columns) makes equal-comparing rows byte-identical,
// so which duplicate the heap retains is unobservable.
Result<Table> BoundedTopK(const Table& child, const RaExpr* e, size_t k,
                          const ExecContext& ctx) {
  // A window offset widens the heap — the skipped prefix must be held
  // to know where the window starts — and is skipped on the gather.
  size_t bound = k + e->offset();
  // The child's derived ordering may already deliver the requested
  // order verbatim — then the window is literally rows
  // [offset, offset + k).
  if (TableOrderSatisfies(child, e)) {
    return WindowRows(child, e->offset(), k, e->columns());
  }
  GQOPT_ASSIGN_OR_RETURN(auto order, SortOrderOf(e, child));
  size_t n = child.rows();
  size_t arity = child.arity();
  const NodeId* base = child.data().data();
  auto less = [&](uint32_t a, uint32_t b) {
    return RowLess(base + size_t{a} * arity, base + size_t{b} * arity,
                   order);
  };
  // Charge the heap and the gathered output against the query budget
  // up front — both are bounded by k + offset, never by n.
  GrowthCharge charge(ctx.mem);
  if (!charge.Update(std::min(bound, n) *
                     (sizeof(uint32_t) + arity * sizeof(NodeId)))) {
    return AbortStatus(ctx, "top-k");
  }
  std::vector<uint32_t> heap;
  heap.reserve(std::min(bound, n));
  DeadlinePoller poll(ctx.deadline);
  for (size_t r = 0; r < n; ++r) {
    if (poll.Due() && (ctx.deadline.Expired() || ctx.MemBreached())) {
      return AbortStatus(ctx, "top-k");
    }
    uint32_t idx = static_cast<uint32_t>(r);
    if (heap.size() < bound) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), less);
    } else if (less(idx, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), less);
      heap.back() = idx;
      std::push_heap(heap.begin(), heap.end(), less);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), less);
  size_t skip = std::min(e->offset(), heap.size());
  std::vector<NodeId> data;
  data.reserve((heap.size() - skip) * arity);
  for (size_t i = skip; i < heap.size(); ++i) {
    uint32_t r = heap[i];
    data.insert(data.end(), base + size_t{r} * arity,
                base + (size_t{r} + 1) * arity);
  }
  Table t = Table::FromData(e->columns(), std::move(data));
  MarkSortedByKeys(&t, e);
  return t;
}

}  // namespace

Result<Table> Executor::EvalSort(const RaExpr* e, const ExecContext& ctx) {
  // A full sort consumes its entire input; no hint flows down.
  ExecContext inner = ctx;
  inner.limit_hint = 0;
  GQOPT_ASSIGN_OR_RETURN(Table child, Eval(e->left().get(), inner));
  if (TableOrderSatisfies(child, e)) {
    return child.RenamedTo(e->columns());
  }
  GQOPT_ASSIGN_OR_RETURN(auto order, SortOrderOf(e, child));
  size_t n = child.rows();
  size_t arity = child.arity();
  // Index sort + gather: the comparator walks rows in key order, the
  // gather rebuilds contiguous row-major output. Both buffers are
  // charged before the sort commits to them.
  GrowthCharge charge(ctx.mem);
  if (!charge.Update(n * sizeof(uint32_t) + n * arity * sizeof(NodeId)) ||
      ctx.deadline.Expired()) {
    return AbortStatus(ctx, "sort");
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const NodeId* base = child.data().data();
  // The order covers every column, so the comparison is total and
  // std::sort is deterministic without a stability requirement.
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return RowLess(base + size_t{a} * arity, base + size_t{b} * arity,
                   order);
  });
  if (ctx.deadline.Expired() || ctx.MemBreached()) {
    return AbortStatus(ctx, "sort");
  }
  std::vector<NodeId> data;
  data.reserve(n * arity);
  for (uint32_t r : perm) {
    data.insert(data.end(), base + size_t{r} * arity,
                base + (size_t{r} + 1) * arity);
  }
  Table t = Table::FromData(e->columns(), std::move(data));
  MarkSortedByKeys(&t, e);
  return t;
}

Result<Table> Executor::EvalLimit(const RaExpr* e, const ExecContext& ctx) {
  size_t k = e->limit();
  if (ctx.limit_hint != 0) k = std::min(k, ctx.limit_hint);
  if (k == 0) return Table(e->columns());
  // Forward the bound: order-preserving children stop producing once
  // offset + k rows are held (the skipped window prefix still has to
  // materialize); the slice below is what makes the result exact.
  ExecContext inner = ctx;
  inner.limit_hint = k + e->offset();
  GQOPT_ASSIGN_OR_RETURN(Table child, Eval(e->left().get(), inner));
  return WindowRows(child, e->offset(), k, e->columns());
}

Result<Table> Executor::EvalTopK(const RaExpr* e, const ExecContext& ctx) {
  size_t k = e->limit();
  if (k == 0) return Table(e->columns());
  const RaExpr* child_e = e->left().get();
  // Seeded-closure prune: when the child is a seeded transitive closure
  // and the leading key is the closure's fixed-side column, frontier
  // entries that cannot beat the current k-th candidate are dead —
  // evaluate the closure with the bound (outside the memo: the bounded
  // result is not the closure's full table).
  if (child_e->op() == RaOp::kTransitiveClosure &&
      child_e->seed_side() != SeedSide::kNone && !e->sort_keys().empty()) {
    const std::string& fixed_col =
        child_e->seed_side() == SeedSide::kSource ? child_e->src_col()
                                                  : child_e->tgt_col();
    // When an unbounded sibling already memoized the full closure, the
    // prune has nothing to save — reuse the shared table instead.
    if (e->sort_keys()[0].column == fixed_col &&
        memo_.find(KeyOf(child_e)) == memo_.end()) {
      ExecContext inner = ctx;
      inner.limit_hint = 0;
      // A window offset widens the prune bound: the k-th surviving row
      // sits at heap position k + offset.
      ClosureTopKBound bound{k + e->offset(),
                             e->sort_keys()[0].descending};
      GQOPT_ASSIGN_OR_RETURN(Table closure,
                             EvalClosure(child_e, inner, bound));
      // EXPLAIN analyze shows the bounded cardinality — the prune's
      // effect is visible as the child's actual row count.
      actual_rows_[child_e] = closure.rows();
      actual_bytes_[child_e] = closure.data().size() * sizeof(NodeId);
      return BoundedTopK(closure, e, k, ctx);
    }
  }
  ExecContext inner = ctx;
  inner.limit_hint = 0;
  GQOPT_ASSIGN_OR_RETURN(Table child, Eval(child_e, inner));
  return BoundedTopK(child, e, k, ctx);
}

}  // namespace gqopt
