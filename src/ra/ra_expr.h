// Recursive relational algebra (RRA) expressions: the relational plan
// language targeted by the translator (paper §4, Tab 2), in the spirit of
// µ-RA (Jachiet et al. 2020). UCQT's only recursion is the transitive
// closure phi+, so the µ fixpoint operator is provided as a dedicated
// kTransitiveClosure node supporting seeded (semi-naive, join-pushed)
// evaluation from either side — the µ-RA rewriting that pushes joins into
// fixpoints.
//
// Plans are immutable DAGs: subtrees may be shared (the optimizer shares
// the probe side of a seeded fixpoint) and the executor memoizes by node.

#ifndef GQOPT_RA_RA_EXPR_H_
#define GQOPT_RA_RA_EXPR_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gqopt {

class RaExpr;
using RaExprPtr = std::shared_ptr<const RaExpr>;

/// Plan operator kinds.
enum class RaOp : uint8_t {
  kEdgeScan,           // edge table, two named columns
  kNodeScan,           // union of node-label extents, one named column
  kProject,            // column projection + renaming
  kSelectEq,           // keep rows where two columns are equal
  kJoin,               // natural join on shared column names
  kSemiJoin,           // left semi join on shared column names
  kUnion,              // set union (same column set)
  kDistinct,           // duplicate elimination
  kTransitiveClosure,  // TC of a binary child, optionally seeded
  kSort,               // total-order sort: keys, then remaining cols asc
  kLimit,              // first k rows of the child, in child order
  kTopK,               // Sort + Limit fused into a bounded heap
};

/// One ORDER BY key: an output column and its direction. Ties beyond the
/// key list are always broken by the remaining columns ascending (in
/// output-column order), so every Sort/TopK result is a deterministic
/// total order — the invariant the differential suites pin.
struct SortKey {
  std::string column;
  bool descending = false;

  bool operator==(const SortKey&) const = default;
};

/// Which side a transitive closure is seeded from.
enum class SeedSide : uint8_t { kNone, kSource, kTarget };

/// Physical join strategy, chosen by the optimizer at plan time from the
/// propagated ordering properties and cardinality estimates. EXPLAIN
/// prints the annotation in brackets after the join ("[offset]",
/// "[radix-hash p=4]", ...) — see docs/EXPLAIN.md for the full annotation
/// vocabulary with worked examples.
///  - kAuto:        not annotated; the executor detects at runtime.
///  - kOffset:      dense offset array over one side sorted on the single
///                  shared column (no hashing).
///  - kMergeSorted: both sides sorted on the shared columns as their
///                  leading prefix, in the same order — streaming merge.
///  - kRadixHash:   hash join with both sides radix-partitioned into
///                  cache-sized buckets (large unsorted inputs); the
///                  partitions scatter, build, and probe in parallel when
///                  the query runs at dop > 1.
///  - kFlatHash:    single flat hash index (small unsorted inputs); the
///                  probe side partitions across workers at dop > 1.
enum class JoinStrategy : uint8_t {
  kAuto,
  kOffset,
  kMergeSorted,
  kRadixHash,
  kFlatHash,
};

/// Short lowercase name for EXPLAIN output ("offset", "merge", ...).
const char* JoinStrategyName(JoinStrategy s);

/// \brief Immutable RRA plan node. Build via the static factories; output
/// column names are computed at construction and cached.
class RaExpr {
 public:
  RaOp op() const { return op_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const RaExprPtr& left() const { return left_; }
  const RaExprPtr& right() const { return right_; }

  /// Edge label (kEdgeScan).
  const std::string& label() const { return label_; }
  /// Node label set (kNodeScan).
  const std::vector<std::string>& labels() const { return labels_; }
  /// (input, output) column pairs (kProject).
  const std::vector<std::pair<std::string, std::string>>& mappings() const {
    return mappings_;
  }
  /// Column pair tested for equality (kSelectEq).
  const std::pair<std::string, std::string>& eq_columns() const {
    return eq_columns_;
  }
  /// Closure column names (kTransitiveClosure).
  const std::string& src_col() const { return src_col_; }
  const std::string& tgt_col() const { return tgt_col_; }
  SeedSide seed_side() const { return seed_side_; }
  /// Unary seed plan (kTransitiveClosure with seed_side != kNone).
  const RaExprPtr& seed() const { return right_; }

  /// Derived physical ordering: the number of leading output columns this
  /// plan's result is known to be sorted on, propagated bottom-up at
  /// construction (scans and closures are sorted by construction, filters
  /// and identity-prefix projections preserve their input's prefix,
  /// merge/offset joins preserve the probe side's). The executor
  /// re-derives the same property on concrete Tables, so this plan-level
  /// value is a prediction the runtime validates before relying on it.
  size_t sorted_prefix() const { return sorted_prefix_; }

  /// Direction of sorted-prefix column `col` (true = descending). Every
  /// operator except a descending Sort produces ascending runs, so the
  /// vector is empty (= all ascending) almost everywhere.
  bool sort_descending(size_t col) const {
    return col < sort_desc_.size() && sort_desc_[col];
  }

  /// The leading run of the sorted prefix that is ascending — the
  /// property merge/offset join applicability actually requires (a
  /// descending run cannot feed a streaming merge or an offset array).
  size_t ascending_prefix() const {
    for (size_t i = 0; i < sorted_prefix_; ++i) {
      if (sort_descending(i)) return i;
    }
    return sorted_prefix_;
  }

  /// ORDER BY keys (kSort, kTopK).
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }
  /// Row bound k (kLimit, kTopK).
  size_t limit() const { return limit_; }
  /// Rows skipped before the bound applies (kLimit, kTopK): the node
  /// emits rows [offset, offset + k) of its ordered input. 0 = none.
  size_t offset() const { return offset_; }

  /// Physical join strategy annotation (kJoin only; kAuto when the plan
  /// has not been through the optimizer). Fixed at construction — nodes
  /// stay truly immutable, so optimizing one plan can never re-annotate
  /// a subtree another plan shares.
  JoinStrategy join_strategy() const { return join_strategy_; }

  /// Plan-time parallelism hint (kJoin only): the degree of parallelism
  /// the optimizer predicts this join will run at, shown by EXPLAIN as
  /// "p=N" inside the strategy bracket. 0 means unannotated, 1 means the
  /// optimizer expects serial execution (small estimated inputs). Like
  /// sorted_prefix(), this is a prediction the executor validates: the
  /// runtime parallelism is re-derived from the query's ExecContext and
  /// the concrete table sizes, degrading to serial below the row
  /// threshold or at dop = 1. Parallel and serial execution produce
  /// bit-identical tables, so the hint never affects results (and is
  /// deliberately excluded from the executor's memo key).
  int parallel_hint() const { return parallel_hint_; }

  // ---- Factories ----------------------------------------------------------
  static RaExprPtr EdgeScan(std::string label, std::string src_col,
                            std::string tgt_col);
  static RaExprPtr NodeScan(std::vector<std::string> labels, std::string col);
  static RaExprPtr Project(
      RaExprPtr child,
      std::vector<std::pair<std::string, std::string>> mappings);
  static RaExprPtr SelectEq(RaExprPtr child, std::string col_a,
                            std::string col_b);
  /// `strategy` annotates the physical join choice (optimizer, tests);
  /// kAuto leaves it to runtime detection. `parallel_hint` is the
  /// optimizer's predicted degree of parallelism (0 = unannotated).
  /// Every strategy computes the same join at every dop — the executor
  /// validates preconditions and degrades.
  static RaExprPtr Join(RaExprPtr l, RaExprPtr r,
                        JoinStrategy strategy = JoinStrategy::kAuto,
                        int parallel_hint = 0);
  static RaExprPtr SemiJoin(RaExprPtr l, RaExprPtr r);
  static RaExprPtr Union(RaExprPtr l, RaExprPtr r);
  static RaExprPtr Distinct(RaExprPtr child);
  /// Transitive closure of binary `body` whose columns are
  /// (src_col, tgt_col); `seed` restricts sources (kSource) or targets
  /// (kTarget) to the values of the single-column seed plan.
  static RaExprPtr TransitiveClosure(RaExprPtr body, std::string src_col,
                                     std::string tgt_col,
                                     RaExprPtr seed = nullptr,
                                     SeedSide seed_side = SeedSide::kNone);
  /// Deterministic total-order sort: rows ordered by `keys` (each with
  /// its direction), ties broken by the remaining output columns
  /// ascending in output order. `keys` must be non-empty, name distinct
  /// child columns, and contain no duplicates.
  static RaExprPtr Sort(RaExprPtr child, std::vector<SortKey> keys);
  /// Rows [offset, offset + k) of the child, in the child's row order.
  /// Only deterministic when the child's order is (Sort output, or a
  /// plan whose full sorted prefix covers the arity) — the optimizer
  /// only emits it in those positions.
  static RaExprPtr Limit(RaExprPtr child, size_t k, size_t offset = 0);
  /// Sort + Limit fused: rows [offset, offset + k) of Sort(child, keys),
  /// computed with a (k + offset)-bounded heap instead of a full sort
  /// buffer.
  static RaExprPtr TopK(RaExprPtr child, std::vector<SortKey> keys,
                        size_t k, size_t offset = 0);

  /// Single-line description of this node (no children), for EXPLAIN.
  std::string NodeString() const;

  /// Multi-line plan rendering.
  std::string ToString() const;

 private:
  RaExpr() = default;

  RaOp op_ = RaOp::kEdgeScan;
  std::string label_;
  std::vector<std::string> labels_;
  std::vector<std::pair<std::string, std::string>> mappings_;
  std::pair<std::string, std::string> eq_columns_;
  std::string src_col_, tgt_col_;
  SeedSide seed_side_ = SeedSide::kNone;
  RaExprPtr left_, right_;
  std::vector<std::string> columns_;
  size_t sorted_prefix_ = 0;
  /// Per-column direction of the sorted prefix (empty = all ascending).
  std::vector<bool> sort_desc_;
  JoinStrategy join_strategy_ = JoinStrategy::kAuto;
  int parallel_hint_ = 0;
  std::vector<SortKey> sort_keys_;  // kSort, kTopK
  size_t limit_ = 0;                // kLimit, kTopK
  size_t offset_ = 0;               // kLimit, kTopK
};

/// Sorted vector of the column names shared by `l` and `r`.
std::vector<std::string> SharedColumns(const RaExpr& l, const RaExpr& r);

// ---- The physical join rule ----------------------------------------------
// Its one definition: the Join factory, the optimizer, the DP enumerator
// and the Estimator all call these functions.

/// One join input as the rule sees it: its sorted prefix, the ascending
/// run of that prefix, and the position of each shared column in its
/// output (listed in one order for both inputs; empty = cross product).
struct JoinSide {
  size_t sorted_prefix = 0;
  size_t ascending_prefix = 0;
  std::span<const size_t> key_positions;
};

/// A join's physical choice: strategy, output sorted prefix under it, and
/// the p=N hint (0 = none).
struct JoinPhysical {
  JoinStrategy strategy = JoinStrategy::kAuto;
  size_t sorted_prefix = 0;
  int parallel_hint = 0;
};

/// The shape rule: the strategy the input shapes admit, ignoring sizes —
/// merge, offset, or kFlatHash standing in for any hash join; kAuto for a
/// cross product — and the output sorted prefix under it.
JoinPhysical JoinShape(const JoinSide& l, const JoinSide& r);
/// The shape rule applied to Join(l, r).
JoinPhysical AnalyzeJoinShape(const RaExpr& l, const RaExpr& r);

/// The size rule: a flat hash join whose smaller estimated input reaches
/// kRadixMinBuildRows is radix-partitioned; other strategies pass.
JoinStrategy SizeJoinStrategy(JoinStrategy strategy, double left_rows,
                              double right_rows);

/// Completes a `shape` with estimated input sizes: the size rule, then
/// the hint rule — a hash join planned for dop > 1 whose larger input
/// reaches kParallelMinRows gets p=dop, any other hash join p=1. Merge
/// and offset joins stream in order and get no hint.
JoinPhysical PlanJoin(JoinPhysical shape, double left_rows,
                      double right_rows, int dop);

/// True when `plan`'s derived ordering already delivers Sort(plan, keys)
/// verbatim: the keys name the plan's leading output columns in order
/// with matching directions, and the plan's sorted prefix covers its
/// full arity (so the implicit ascending tie-break on the remaining
/// columns holds too — anything less leaves the k-th-row boundary
/// nondeterministic). The check the optimizer uses to elide a Sort and
/// downgrade a TopK to a plain Limit.
bool OrderSatisfiedBy(const RaExpr& plan, const std::vector<SortKey>& keys);

}  // namespace gqopt

#endif  // GQOPT_RA_RA_EXPR_H_
