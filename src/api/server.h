// Concurrent serving layer over the Database facade (docs/ROBUSTNESS.md):
// a bounded request queue feeding a util/thread_pool, per-request
// deadlines carried from admission through execution, admission control
// that sheds load with a typed "overloaded: " status, a one-rung
// degradation ladder under queue pressure, and client-side retry with
// capped jittered backoff.
//
//   Server server(db, {.workers = 4, .queue_capacity = 32});
//   api::ExecOptions options;            // timeout_ms is the per-request
//   auto r = server.QueryWithRetry(      // deadline, started at admission
//       "x1, x2 <- (x1, knows+, x2)", options);
//   if (!r.result.ok()) { /* ClassifyError(r.result.status()) */ }
//   r.degradation.Summary();             // what the ladder did, if anything
//
// The degradation ladder (recorded in the DegradationReport):
//   pressure 1 (queue >= 3/4 full)  skip the schema rewrite
// Shedding (queue full, deadline already expired when a worker picks
// the request up, or — when GQOPT_SERVER_MEM_LIMIT is set — the plan's
// estimated footprint exceeding the remaining server budget) fails fast
// with "overloaded: " — the one retryable error class, see
// Server::IsRetryable. A budget breach *during* execution is different:
// it is the query's own footprint, surfaces as "resource: " and is not
// retryable.

#ifndef GQOPT_API_SERVER_H_
#define GQOPT_API_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/database.h"
#include "api/options.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gqopt {
namespace api {

/// Serving-layer configuration.
struct ServerOptions {
  /// Worker threads executing requests (the server owns its pool — the
  /// executors' data-parallel morsels still run on the shared pool).
  int workers = 2;
  /// Maximum in-flight requests (queued + executing). Admission beyond
  /// this sheds with "overloaded: request queue full".
  size_t queue_capacity = 16;
};

/// What the degradation ladder did to one request.
struct DegradationReport {
  /// Queue pressure at planning time: 0 = none, 1 = >= 3/4 full.
  int pressure = 0;
  /// The schema rewrite was skipped.
  bool skipped_rewrite = false;

  /// "none" or "skipped-rewrite", plus " (pressure 1)" under pressure —
  /// what EXPLAIN and the CLI print.
  std::string Summary() const;
};

/// Client-side retry policy for QueryWithRetry: capped exponential
/// backoff with jitter in [backoff/2, backoff], deterministic under
/// `jitter_seed` (tests pin it; servers should randomize it).
struct RetryPolicy {
  int max_attempts = 3;
  int64_t initial_backoff_ms = 5;
  int64_t max_backoff_ms = 100;
  uint64_t jitter_seed = 0;
};

/// Monotonic serving counters (a consistent-enough snapshot; each field
/// is individually atomic).
struct ServerStats {
  uint64_t admitted = 0;         ///< requests past admission control
  uint64_t completed = 0;        ///< admitted requests that returned OK
  uint64_t failed = 0;           ///< admitted requests that returned non-OK
  uint64_t shed_queue_full = 0;  ///< rejected at admission (queue full)
  uint64_t shed_deadline = 0;    ///< shed after queueing (deadline gone)
  uint64_t shed_memory = 0;      ///< shed post-plan (budget cannot fit it)
  uint64_t degraded = 0;         ///< requests the ladder touched
  uint64_t retries = 0;          ///< extra attempts made by QueryWithRetry
};

/// \brief Bounded, deadline-governed request front end over one Database.
///
/// Query() blocks the calling client thread until its request completes
/// (or is shed), while the actual work runs on the server's worker pool —
/// so `queue_capacity` bounds the work in flight no matter how many
/// client threads call in. All methods are safe to call from any number
/// of threads.
class Server {
 public:
  /// One request's outcome: the query result (or a stage-prefixed error,
  /// "overloaded: " for shed load) plus what the degradation ladder did.
  struct Response {
    Result<QueryResult> result =
        Status::Internal("request was not processed");
    DegradationReport degradation;
    /// Total attempts made (1 unless QueryWithRetry retried).
    int attempts = 1;
  };

  explicit Server(const Database& db, ServerOptions options = {});

  /// Admits, queues, plans (under the ladder) and executes one request.
  /// `options.timeout_ms` becomes the per-request deadline, started at
  /// admission — time spent queued and planning counts against it.
  Response Query(std::string_view text, const ExecOptions& options);

  /// Query() with client-side retry of shed / transient-deadline
  /// failures under `policy` (capped jittered exponential backoff).
  Response QueryWithRetry(std::string_view text, const ExecOptions& options,
                          const RetryPolicy& policy = {});

  /// EXPLAIN through the serving layer: renders the plan exactly as a
  /// request arriving at the current pressure would run it, with a
  /// trailing "degradation: ..." line.
  Result<std::string> Explain(std::string_view text,
                              const ExecOptions& options);

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }
  const Database& database() const { return *db_; }
  /// Current in-flight requests (queued + executing).
  size_t queue_depth() const {
    return depth_.load(std::memory_order_acquire);
  }

  /// The ladder's pressure level for `depth` in-flight requests out of
  /// `capacity`: 1 from 3/4 full, else 0 (always 0 for capacity 0).
  static int PressureLevel(size_t depth, size_t capacity);

  /// Applies the pressure-`level` rung to `options` in place and reports
  /// what changed. Pure — unit-testable without a server.
  static DegradationReport ApplyDegradation(int level, ExecOptions* options);

  /// True for the failures QueryWithRetry may retry: shed load
  /// ("overloaded: ") and transient execute-stage deadline expiry (a
  /// fresh attempt gets a fresh deadline). Plan/parse/rewrite failures
  /// are deterministic and never retried.
  static bool IsRetryable(const Status& status);

  /// The capped jittered backoff for the `attempt`-th failure (1-based):
  /// exponential from the policy base, capped, then jittered into
  /// [backoff/2, backoff] with `rng`. Exposed for the backoff tests.
  static int64_t BackoffMillis(const RetryPolicy& policy, int attempt,
                               Rng* rng);

 private:
  /// Runs on a worker: deadline recheck, ladder, prepare, execute.
  Response Process(const std::string& text, ExecOptions options,
                   const Deadline& deadline);
  /// The ladder at the current queue depth, applied to `options`.
  DegradationReport Degrade(ExecOptions* options) const;

  const Database* db_;
  ServerOptions options_;
  std::atomic<size_t> depth_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_memory_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> retries_{0};
  // Declared last: destroyed first, so in-flight tasks finish (the pool
  // destructor drains the queue) while every member above is still alive.
  ThreadPool pool_;
};

}  // namespace api
}  // namespace gqopt

#endif  // GQOPT_API_SERVER_H_
