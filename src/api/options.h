// The one knob home for the public query API (docs/API.md): every
// execution- and planning-time setting the layers below read from
// scattered structs or environment variables is an explicit field here.
//
// Precedence (documented once, enforced everywhere):
//   1. explicit field assignment on an ExecOptions value   (highest)
//   2. the environment, applied only by ExecOptions::FromEnv()
//   3. the defaults below                                  (lowest)
//
// A default-constructed ExecOptions never reads the environment; callers
// that want the ambient GQOPT_* knobs opt in with FromEnv() and can then
// still override individual fields (explicit beats env beats default).

#ifndef GQOPT_API_OPTIONS_H_
#define GQOPT_API_OPTIONS_H_

#include <cstdint>

#include "ra/optimizer.h"
#include "util/exec_context.h"

namespace gqopt {
namespace api {

/// \brief Per-session options covering the whole query lifecycle.
///
/// Environment variables read by FromEnv() (and only by FromEnv):
///   GQOPT_TIMEOUT_MS   per-execution deadline in ms   (field timeout_ms)
///   GQOPT_REPS         measurement repetitions        (field repetitions)
///   GQOPT_DOP          degree of parallelism          (field dop)
///   GQOPT_PLANNER      "greedy" or "dp"               (field planner)
///   GQOPT_PLAN_CACHE   "0" disables plan-cache use    (field use_plan_cache)
///   GQOPT_MEM_LIMIT    per-query memory budget        (field mem_limit_bytes)
struct ExecOptions {
  // ---- execution-time knobs ------------------------------------------
  /// Per-execution deadline in milliseconds; <= 0 means no deadline.
  /// Every Execute()/ExplainAnalyze() call starts a fresh deadline.
  int64_t timeout_ms = 2000;
  /// Degree of parallelism for the partitioned executor paths (1 =
  /// serial). Also the "p=N" hint plans are costed for. Defaults to the
  /// core-aware DefaultDop() — the hardware concurrency clamped to
  /// [1, 256], which is 1 (serial) on a 1-core box. Not an environment
  /// read; GQOPT_DOP overrides it only via FromEnv().
  int dop = DefaultDop();
  /// Input rows below which parallel operators degrade to serial.
  size_t parallel_min_rows = kParallelMinRows;
  /// Repetitions averaged by the measurement helpers (benchsup/harness);
  /// PreparedQuery::Execute always runs exactly once.
  int repetitions = 3;
  /// Per-query memory budget in bytes; 0 = unbounded. A breach aborts
  /// the execution with a typed "resource: " status instead of letting
  /// the allocation land (see util/mem_tracker.h). FromEnv() parses
  /// GQOPT_MEM_LIMIT with k/m/g suffixes ("256m"). The query's tracker
  /// is also a child of the Database-wide budget (GQOPT_SERVER_MEM_LIMIT),
  /// so an unbounded query still stops at the server ceiling.
  int64_t mem_limit_bytes = 0;

  // ---- planning-time knobs (part of the plan-cache key) --------------
  /// Join-order planner for join clusters.
  PlannerKind planner = PlannerKind::kDp;
  /// Optimizer ablation (see OptimizerOptions).
  bool enable_fixpoint_seeding = true;
  /// Apply the schema-based rewrite during Prepare. The measurement
  /// helpers disable this to run a caller-supplied query verbatim.
  bool apply_schema_rewrite = true;
  /// Allow Prepare to plan against the previous same-generation snapshot
  /// while a fresh one (statistics refresh) is still being built, instead
  /// of waiting for the rebuild. Slightly-stale statistics, never stale
  /// data: a generation bump always invalidates. Set by the serving
  /// layer's degradation ladder under pressure (src/api/server.h).
  bool allow_stale_statistics = false;
  /// Consult/populate the Database plan cache in Prepare. Independent of
  /// the cache's Database-level enable switch; both must be on for a hit.
  bool use_plan_cache = true;
  /// Memory rung of the degradation ladder: plan and execute with the
  /// low-footprint join paths (merge/offset over radix/flat-hash,
  /// reduced radix fan-out). Plan-affecting — part of the plan-cache
  /// fingerprint. Set by the serving layer under memory pressure.
  bool low_memory = false;

  /// Defaults overlaid with the GQOPT_* environment knobs above. The
  /// environment is read fresh on every call (no cached statics), so
  /// explicit setters applied afterwards always win.
  static ExecOptions FromEnv();

  /// The optimizer view of these options. `planning_deadline` starts
  /// counting from this call, so convert immediately before planning.
  OptimizerOptions ToOptimizerOptions() const;

  /// The executor view of these options with a fresh execution deadline
  /// (started at this call).
  ExecContext MakeExecContext() const;
};

}  // namespace api
}  // namespace gqopt

#endif  // GQOPT_API_OPTIONS_H_
