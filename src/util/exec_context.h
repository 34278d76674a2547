// Per-query execution context: the deadline plus the degree-of-parallelism
// knob that drives the partitioned executor paths. Parallel execution is a
// physical choice only — every operator produces bit-identical output at
// every dop (differential tests enforce it), so plans, memo keys, and
// results never depend on these settings.

#ifndef GQOPT_UTIL_EXEC_CONTEXT_H_
#define GQOPT_UTIL_EXEC_CONTEXT_H_

#include <algorithm>
#include <string_view>
#include <thread>

#include "util/deadline.h"
#include "util/mem_tracker.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gqopt {

/// Input rows below which an operator stays serial: morsel handoff and
/// per-morsel output buffers cost a few microseconds, so tables that fit
/// one cache-resident pass are not worth fanning out. Shared by the
/// optimizer's plan-time parallelism hint and the executor's runtime
/// degrade, mirroring kRadixMinBuildRows for the radix-vs-flat choice.
constexpr size_t kParallelMinRows = size_t{1} << 15;

/// Core-aware default degree of parallelism: the hardware concurrency
/// clamped to [1, 256] (0 — unknown — degrades to 1, serial). Parallel
/// execution is bit-identical to serial, so the default only sets how
/// wide operators fan out, never what they produce. On a 1-core box
/// this is 1, i.e. everything stays serial unless a caller raises it.
inline int DefaultDop() {
  static const int dop = [] {
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, 256);
  }();
  return dop;
}

/// \brief Per-query execution settings threaded through the executor and
/// the evaluation core. Aggregate: `ExecContext{deadline, 4}` runs at
/// dop 4 on the shared pool.
struct ExecContext {
  Deadline deadline;
  /// Maximum concurrent workers per operator (1 = serial). Defaults to
  /// the core-aware DefaultDop(); never an environment read (GQOPT_DOP
  /// reaches executions only through api::ExecOptions::FromEnv()).
  int dop = DefaultDop();
  /// Runtime degrade threshold; tests lower it to exercise the parallel
  /// paths on small inputs.
  size_t parallel_min_rows = kParallelMinRows;
  /// Pool to run on; null means ThreadPool::Shared() when dop > 1.
  ThreadPool* pool = nullptr;
  /// Per-query memory tracker (null = ungoverned). Operators charge
  /// their buffers here and poll breached() at deadline-poll cadence;
  /// see util/mem_tracker.h for the charge-and-latch model.
  MemoryTracker* mem = nullptr;
  /// Early-termination bound: when non-zero, the caller only consumes
  /// the first `limit_hint` rows of this operator's output. Set by the
  /// executor's Limit evaluation and forwarded only through operators
  /// whose output order is deterministic and equal to their unhinted
  /// order (so truncation can only drop tail rows); a hinted result is
  /// never memoized. 0 = produce everything.
  size_t limit_hint = 0;

  /// True once the memory budget is breached (cheap relaxed load; false
  /// when ungoverned). Operators poll this next to Deadline::Expired().
  bool MemBreached() const { return mem != nullptr && mem->breached(); }

  /// The pool parallel operators should submit to, or null when serial.
  ThreadPool* TaskPool() const {
    if (dop <= 1) return nullptr;
    return pool != nullptr ? pool : &ThreadPool::Shared();
  }

  /// Runtime-validated parallelism for an operator touching `rows` input
  /// rows: the dop knob, degraded to serial below the row threshold.
  /// Plan-time hints predict this value; the executor re-derives it from
  /// the concrete tables, exactly like the sorted-prefix property.
  int EffectiveDop(size_t rows) const {
    if (dop <= 1 || rows < parallel_min_rows) return 1;
    return dop;
  }
};

/// The status an aborted operator returns: the typed "resource: " breach
/// status when the memory budget latched, a deadline expiry otherwise.
/// Lets the bool-returning parallel loops keep one abort signal — the
/// caller distinguishes the cause after the fact.
inline Status AbortStatus(const ExecContext& ctx, std::string_view what) {
  if (ctx.MemBreached()) return ctx.mem->BreachStatus(what);
  return Status::DeadlineExceeded(std::string(what) + " timed out");
}

/// Morsel size for n items across `dop` workers: a few morsels per worker
/// for stealing balance, floored so tiny morsels never dominate. Depends
/// only on the arguments, keeping per-morsel output layouts deterministic.
inline size_t ParallelGrain(size_t n, int dop, size_t min_grain = 1024) {
  size_t target = static_cast<size_t>(dop > 0 ? dop : 1) * 4;
  return std::max((n + target - 1) / target, min_grain);
}

}  // namespace gqopt

#endif  // GQOPT_UTIL_EXEC_CONTEXT_H_
