#include "ra/planner/cost_model.h"

#include <algorithm>

namespace gqopt {

double JoinWorkCost(JoinStrategy strategy, double left_rows,
                    double right_rows, double out_rows, int parallel_hint) {
  double emit = out_rows * kCostEmitPerRow;
  double dop = std::max(1, parallel_hint);
  switch (strategy) {
    case JoinStrategy::kOffset:
      // Offset fill over the sorted build side + in-order probe.
      return (left_rows + right_rows) * kCostOffsetPerRow + emit;
    case JoinStrategy::kMergeSorted:
      return (left_rows + right_rows) * kCostMergePerRow + emit;
    case JoinStrategy::kRadixHash:
      // Scatter both sides, build/probe per partition; the whole pipeline
      // is partition-parallel, so the hint discounts all of it.
      return ((left_rows + right_rows) * kCostRadixPerRow + emit) / dop;
    case JoinStrategy::kFlatHash: {
      // Build on the smaller side; the probe loop (and its emits) split
      // into morsels at dop > 1, the build stays serial.
      double build = std::min(left_rows, right_rows);
      double probe = std::max(left_rows, right_rows);
      return build * kCostFlatBuildPerRow +
             (probe * kCostFlatProbePerRow + emit) / dop;
    }
    case JoinStrategy::kAuto:
      // Cross product (no shared columns): nested loop.
      return left_rows * right_rows * 0.5 + emit;
  }
  return emit;
}

}  // namespace gqopt
