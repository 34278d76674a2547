// The physical join cost model shared by the Estimator (EXPLAIN's cost
// column) and the DP join enumerator (src/ra/planner/dp_enumerator.h).
//
// Costs are abstract "row touches" weighted per strategy, calibrated to
// the measured ordering of the executor's join paths on this codebase
// (see BENCH_micro.json counterpart pairs and docs/PLANNER.md):
//
//   offset  ~1.0x/row   dense offset array over the sorted build side —
//                        no hashing, contiguous matches
//   merge   ~1.3x/row   one streaming pass, key comparisons per row
//   radix   ~3.0x/row   two scatter passes + per-partition build/probe
//   flat    build 4.0x / probe 2.5x   single hash index, random probes
//
// The exact constants matter less than their ordering: the planner only
// needs "keeping a sorted order alive is cheaper than re-hashing" to pick
// merge/offset-preserving join orders (the interesting-order objective).
// A p=N parallelism hint discounts the partitionable portion of hash
// strategies, mirroring the executor's partition-parallel paths.

#ifndef GQOPT_RA_PLANNER_COST_MODEL_H_
#define GQOPT_RA_PLANNER_COST_MODEL_H_

#include "ra/ra_expr.h"

namespace gqopt {

/// Per-row work weights (see header comment for calibration).
constexpr double kCostOffsetPerRow = 1.0;
constexpr double kCostMergePerRow = 1.3;
constexpr double kCostRadixPerRow = 3.0;
constexpr double kCostFlatBuildPerRow = 4.0;
constexpr double kCostFlatProbePerRow = 2.5;
/// Weight of materializing one output row (identical across strategies).
constexpr double kCostEmitPerRow = 1.0;

/// Work (excluding children) of joining inputs of `left_rows` and
/// `right_rows` estimated rows into `out_rows` with `strategy`.
/// `parallel_hint` is the plan-time p=N annotation: hints > 1 discount
/// the partitionable portion of the hash strategies (scatter, build,
/// probe, emit); merge/offset stream in order and stay serial. kAuto
/// (cross product) is costed as a nested loop.
double JoinWorkCost(JoinStrategy strategy, double left_rows,
                    double right_rows, double out_rows, int parallel_hint);

}  // namespace gqopt

#endif  // GQOPT_RA_PLANNER_COST_MODEL_H_
