// Relational composition one run of equal sources at a time: the shared
// step of BinaryRelation::Compose (the graph engine) and of the
// executor's fused Distinct(Project(Join)) (ra/executor.cc). For each run
// of drive rows with the same source x, the targets z joined through each
// row's middle value are gathered, their duplicates dropped within the
// run, and (x, z) emitted in ascending z order. Drive rows sorted by
// source therefore compose into a sorted, duplicate-free pair set with no
// global sort.

#ifndef GQOPT_EVAL_COMPOSE_H_
#define GQOPT_EVAL_COMPOSE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/property_graph.h"
#include "util/deadline.h"
#include "util/mem_tracker.h"

namespace gqopt {

/// \brief The per-run dedup step of a composition: collects one run's
/// targets and hands them back sorted and unique.
///
/// Dense, it stamps each target in an array over the target span with the
/// current run's number, so a duplicate costs one load and only the
/// distinct values are sorted; the array is allocated once and never
/// cleared between runs. Sparse, each run's targets are sorted and
/// uniqued.
class RunDedup {
 public:
  /// The widest target span worth a stamp array for a composition of
  /// `matches` join matches through an index of `index_rows` rows:
  /// 8 × the smaller of the two + 1024 (the dense-offset join's bound),
  /// so the array costs at most a constant times the work and the input.
  /// Callers scan the index for the span only when its rows are within
  /// this budget too; otherwise the runs sort.
  static uint64_t DenseBudget(size_t matches, size_t index_rows) {
    return 8 * uint64_t{std::min(matches, index_rows)} + 1024;
  }

  /// The sparse form: each run sorts and uniques its targets.
  RunDedup() = default;

  /// The dense form, over targets in [lo, hi]: every added target must
  /// lie there. `mem`, when set, is charged for the stamp array.
  RunDedup(NodeId lo, NodeId hi, MemoryTracker* mem = nullptr)
      : dense_(true), lo_(lo), charge_(mem) {
    stamp_.assign(uint64_t{hi} - lo + 1, 0);
    charge_.Add(static_cast<int64_t>(stamp_.size() * sizeof(uint32_t)));
  }

  /// Adds one target to the current run.
  void Add(NodeId z) {
    if (dense_) {
      uint32_t& stamp = stamp_[z - lo_];
      if (stamp == run_) return;
      stamp = run_;
    }
    values_.push_back(z);
  }

  /// Passes the current run's distinct targets to `emit` in ascending
  /// order, then starts the next run.
  template <typename Emit>
  void Flush(const Emit& emit) {
    std::sort(values_.begin(), values_.end());
    if (!dense_) {
      values_.erase(std::unique(values_.begin(), values_.end()),
                    values_.end());
    }
    for (NodeId z : values_) emit(z);
    values_.clear();
    if (dense_ && ++run_ == 0) {
      // Run numbers wrapped: old stamps could alias new runs.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      run_ = 1;
    }
  }

  /// Targets held for the current run.
  size_t pending() const { return values_.size(); }

 private:
  bool dense_ = false;
  NodeId lo_ = 0;
  uint32_t run_ = 1;
  TrackedBytes charge_;
  std::vector<uint32_t> stamp_;
  std::vector<NodeId> values_;
};

/// Composes drive rows [begin, end), which hold whole runs of equal
/// sources in ascending source order. `source(i)` and `middle(i)` read
/// drive row i; `targets(y, visit)` calls `visit(z)` for every target z
/// joined with middle value y, stopping when it returns false; `emit(x,
/// z)` receives the output pairs in ascending order. `abort()` is polled
/// at the deadline-poll cadence of the gather loop; once it returns true
/// the composition stops and returns false.
template <typename SourceAt, typename MiddleAt, typename Targets,
          typename Abort, typename Emit>
bool ComposeRuns(size_t begin, size_t end, const SourceAt& source,
                 const MiddleAt& middle, const Targets& targets,
                 const Deadline& deadline, const Abort& abort,
                 RunDedup* dedup, const Emit& emit) {
  DeadlinePoller poll(deadline);
  bool ok = true;
  auto visit = [&](NodeId z) {
    dedup->Add(z);
    if (poll.Due() && abort()) ok = false;
    return ok;
  };
  size_t i = begin;
  while (i < end) {
    NodeId x = source(i);
    for (; i < end && source(i) == x; ++i) {
      targets(middle(i), visit);
      if (!ok) return false;
    }
    dedup->Flush([&](NodeId z) { emit(x, z); });
  }
  return true;
}

}  // namespace gqopt

#endif  // GQOPT_EVAL_COMPOSE_H_
