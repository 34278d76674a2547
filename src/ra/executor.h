// Bottom-up RRA plan execution over a Catalog: hash joins, set-semantics
// distinct (fused with the path step or sorted union beneath it), and
// transitive closures, optionally seeded from either side (the µ-RA
// join-pushdown), through the semi-naive kernel of eval/closure.h.

#ifndef GQOPT_RA_EXECUTOR_H_
#define GQOPT_RA_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "eval/binary_relation.h"
#include "eval/closure.h"
#include "ra/catalog.h"
#include "ra/ra_expr.h"
#include "ra/table.h"
#include "util/deadline.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace gqopt {

/// \brief Evaluates RRA plans. Plans may be DAGs; equal subplans — whether
/// pointer-shared or structurally identical across UCQT disjuncts — are
/// evaluated once per Run() call (memoized by a structural plan key).
///
/// Distinct uses the order its input already has rather than sorting
/// it: a path step, Distinct(Project(Join)) over two binary inputs whose
/// driving input is sorted on the first output column, composes per run
/// of equal sources (eval/compose.h) without materializing the join or
/// the projection, which record the join's match count as their actual
/// rows and 0 bytes; Distinct(Union) over two sorted inputs merges them,
/// the Union recording |L| + |R| rows and 0 bytes. Every other Distinct
/// runs Table::SortDistinct over its materialized child. Each form
/// returns the same sorted, duplicate-free table.
///
/// Execution is partition-parallel when the ExecContext carries dop > 1:
/// radix-hash joins scatter, build, and probe their partitions across the
/// pool, flat-hash probes / selections / projections split into morsels,
/// path-step compositions split their drive rows at run boundaries, and
/// closures run one fixpoint per range of fixed values. Every operator,
/// the fused ones included, remains bit-identical to its serial form at
/// every dop (differential tests enforce it), so memoized tables are
/// dop-agnostic.
class Executor {
 public:
  explicit Executor(const Catalog& catalog) : catalog_(catalog) {}

  /// Evaluates `plan`, honoring `deadline` inside joins and fixpoints,
  /// at the core-aware DefaultDop() degree of parallelism.
  Result<Table> Run(const RaExprPtr& plan, const Deadline& deadline = {});

  /// Evaluates `plan` under explicit execution settings (deadline, dop,
  /// pool, parallel row threshold).
  Result<Table> Run(const RaExprPtr& plan, const ExecContext& ctx);

  /// Actual output cardinality per plan node of the most recent Run()
  /// (cleared at the start of each run; memo hits record the shared
  /// table's row count; fused nodes the rows they would have produced).
  /// EXPLAIN's analyze mode prints these next to the estimates
  /// ("rows = est/actual") so estimator error is visible.
  const std::unordered_map<const RaExpr*, size_t>& actual_rows() const {
    return actual_rows_;
  }

  /// Materialized result bytes per plan node of the most recent Run()
  /// (memo hits record the shared table's size under their own node;
  /// fused nodes, never materialized, record 0).
  /// EXPLAIN's analyze mode prints these as "mem=" so each operator's
  /// contribution to the query's footprint is visible.
  const std::unordered_map<const RaExpr*, size_t>& actual_bytes() const {
    return actual_bytes_;
  }

  /// Frontier entries + candidate pairs the seeded-closure top-k prune
  /// dropped during the most recent Run() (0 when no TopK sat over a
  /// seeded closure with a leading key on its fixed column). The
  /// asymptotic-win benches and the differential suite assert on this
  /// counter — work actually skipped — rather than on wall time.
  size_t topk_pruned_frontier() const { return topk_pruned_frontier_; }

 private:
  Result<Table> Eval(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalDistinct(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalJoin(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalSemiJoin(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalClosure(const RaExpr* e, const ExecContext& ctx,
                            const ClosureTopKBound& bound = {});
  Result<Table> EvalSort(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalLimit(const RaExpr* e, const ExecContext& ctx);
  Result<Table> EvalTopK(const RaExpr* e, const ExecContext& ctx);
  const std::string& KeyOf(const RaExpr* e);

  const Catalog& catalog_;
  std::unordered_map<const RaExpr*, std::string> key_cache_;
  std::unordered_map<std::string, Table> memo_;
  std::unordered_map<const RaExpr*, size_t> actual_rows_;
  std::unordered_map<const RaExpr*, size_t> actual_bytes_;
  size_t topk_pruned_frontier_ = 0;
  /// Charge for the memoized result tables of the current Run() against
  /// the query's memory budget (no-op when the context is ungoverned);
  /// released when the next Run() starts or the executor dies.
  TrackedBytes table_bytes_;
};

}  // namespace gqopt

#endif  // GQOPT_RA_EXECUTOR_H_
