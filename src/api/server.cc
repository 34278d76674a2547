#include "api/server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

namespace gqopt {
namespace api {
namespace {

bool IsStale(const Status& status) {
  return status.message().find("stale prepared query") != std::string::npos;
}

}  // namespace

std::string DegradationReport::Summary() const {
  std::string out = skipped_rewrite ? "skipped-rewrite" : "none";
  if (pressure > 0) out += " (pressure " + std::to_string(pressure) + ")";
  return out;
}

Server::Server(const Database& db, ServerOptions options)
    : db_(&db),
      options_(options),
      pool_(options.workers > 0 ? static_cast<size_t>(options.workers) : 1) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Server::Response Server::Query(std::string_view text,
                               const ExecOptions& options) {
  // Admission control: one atomic increment decides; over capacity sheds
  // immediately on the client thread — full queues must fail fast, not
  // queue deeper.
  size_t depth = depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.queue_capacity) {
    depth_.fetch_sub(1, std::memory_order_acq_rel);
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    Response shed;
    shed.result = Status::ResourceExhausted(
        "overloaded: request queue full (capacity " +
        std::to_string(options_.queue_capacity) + "); retry with backoff");
    return shed;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);

  // The per-request deadline starts at admission: queue wait and planning
  // both count against it, so a request that waited too long is shed
  // instead of executed late.
  Deadline deadline = Deadline::AfterMillis(options.timeout_ms);

  std::string query(text);
  std::promise<Response> done;
  std::future<Response> future = done.get_future();
  // By-reference captures are safe: this thread blocks on the future
  // until the worker has run the closure.
  pool_.Submit([this, &query, &options, &deadline, &done] {
    done.set_value(Process(query, options, deadline));
  });
  Response response = future.get();
  depth_.fetch_sub(1, std::memory_order_acq_rel);

  if (response.result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (response.degradation.skipped_rewrite) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

Server::Response Server::Process(const std::string& text,
                                 ExecOptions options,
                                 const Deadline& deadline) {
  Response response;
  if (deadline.IsFinite() && deadline.Expired()) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    response.result = Status::DeadlineExceeded(
        "overloaded: deadline expired while queued; shed before execution");
    return response;
  }

  response.degradation = Degrade(&options);

  Session session(*db_, options);
  // A concurrent Use() between Prepare and Execute surfaces as a
  // transient stale handle; bounded re-prepares resolve it against the
  // new generation (mirrors Session::Query).
  for (int attempt = 0;; ++attempt) {
    bool cache_hit = false;
    auto prepared = db_->Prepare(text, options, &cache_hit);
    if (!prepared.ok()) {
      response.result = prepared.status();
      return response;
    }

    // Memory admission: refuse work the remaining server budget cannot
    // plausibly hold, instead of admitting it and breaching mid-run.
    // This is shed load ("overloaded: ", retryable — the budget frees up
    // as in-flight queries drain), unlike an execution-time breach
    // ("resource: ", the query itself is too big).
    const MemoryTracker& mem = db_->memory();
    int64_t estimated = (*prepared)->estimated_memory_bytes();
    if (mem.limit() > 0 && estimated > mem.available()) {
      shed_memory_.fetch_add(1, std::memory_order_relaxed);
      response.result = Status::ResourceExhausted(
          "overloaded: insufficient memory budget (estimated " +
          std::to_string(estimated) + " bytes, available " +
          std::to_string(mem.available()) + " of " +
          std::to_string(mem.limit()) + "); retry with backoff");
      return response;
    }

    if (deadline.IsFinite() && deadline.Expired()) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      response.result = Status::DeadlineExceeded(
          "overloaded: deadline cannot be met (planning consumed the "
          "budget); shed before execution");
      return response;
    }

    auto result = (*prepared)->Execute(session, deadline);
    if (!result.ok() && IsStale(result.status()) && attempt < 2) continue;
    if (result.ok()) result->plan_cache_hit = cache_hit;
    response.result = std::move(result);
    return response;
  }
}

Server::Response Server::QueryWithRetry(std::string_view text,
                                        const ExecOptions& options,
                                        const RetryPolicy& policy) {
  Rng rng(policy.jitter_seed);
  Response response;
  for (int attempt = 1;; ++attempt) {
    response = Query(text, options);
    response.attempts = attempt;
    if (response.result.ok() || attempt >= policy.max_attempts ||
        !IsRetryable(response.result.status())) {
      return response;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    int64_t backoff = BackoffMillis(policy, attempt, &rng);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
}

Result<std::string> Server::Explain(std::string_view text,
                                    const ExecOptions& base) {
  ExecOptions options = base;
  DegradationReport report = Degrade(&options);
  GQOPT_ASSIGN_OR_RETURN(PreparedQueryPtr prepared,
                         db_->Prepare(text, options));
  std::string out = prepared->Explain();
  out.append("degradation: ");
  out.append(report.Summary());
  out.append("\n");
  return out;
}

DegradationReport Server::Degrade(ExecOptions* options) const {
  return ApplyDegradation(
      PressureLevel(depth_.load(std::memory_order_acquire),
                    options_.queue_capacity),
      options);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_memory = shed_memory_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  return s;
}

int Server::PressureLevel(size_t depth, size_t capacity) {
  return capacity > 0 && depth * 4 >= capacity * 3 ? 1 : 0;
}

DegradationReport Server::ApplyDegradation(int level, ExecOptions* options) {
  DegradationReport report{level, level >= 1 && options->apply_schema_rewrite};
  if (report.skipped_rewrite) options->apply_schema_rewrite = false;
  return report;
}

bool Server::IsRetryable(const Status& status) {
  if (status.ok()) return false;
  QueryStage stage = ClassifyError(status);
  if (stage == QueryStage::kOverloaded) return true;
  // Transient deadline expiry during execution: a fresh attempt gets a
  // fresh deadline and may land on a less loaded queue.
  return stage == QueryStage::kExecute &&
         status.code() == StatusCode::kDeadlineExceeded;
}

int64_t Server::BackoffMillis(const RetryPolicy& policy, int attempt,
                              Rng* rng) {
  int64_t backoff = policy.initial_backoff_ms;
  for (int i = 1; i < attempt && backoff < policy.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, policy.max_backoff_ms);
  if (backoff <= 0) return 0;
  int64_t half = backoff / 2;
  return half +
         static_cast<int64_t>(rng->Uniform(
             static_cast<uint64_t>(backoff - half) + 1));
}

}  // namespace api
}  // namespace gqopt
