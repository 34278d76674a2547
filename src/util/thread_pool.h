// Fixed-size worker pool and morsel-driven parallel_for for the
// partitioned execution paths. Work is split into contiguous morsels
// claimed from an atomic cursor, so load-balancing never changes *which*
// rows a morsel covers — callers that buffer per-morsel output and
// concatenate in morsel order get bit-identical results at every
// degree of parallelism (the property the differential tests pin).

#ifndef GQOPT_UTIL_THREAD_POOL_H_
#define GQOPT_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.h"

namespace gqopt {

/// \brief Fixed pool of worker threads draining one task queue.
///
/// Tasks are plain closures; submission never blocks. The destructor
/// finishes every task already submitted before joining — shutdown never
/// drops work (unit-tested). One process-wide pool (Shared()) is enough:
/// ParallelFor callers participate with their own thread, so a busy pool
/// degrades to caller-runs-everything instead of deadlocking.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads) {
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Process-wide pool, created on first use. Sized to the spare
  /// hardware threads (the ParallelFor caller occupies one), with a
  /// floor of one worker so the parallel code paths stay exercised —
  /// and differentially testable — on single-core boxes.
  static ThreadPool& Shared() {
    unsigned hw = std::thread::hardware_concurrency();
    static ThreadPool pool(hw > 1 ? hw - 1 : 1);
    return pool;
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and queue drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `body(begin, end)` over [0, n) in morsels of `grain` indices,
/// on up to `dop` concurrent workers (the caller is one of them; at most
/// pool->size() tasks are enqueued). Body returns false to abort the
/// whole loop (deadline expiry in practice); the deadline is also checked
/// once per morsel claim. Returns true iff every morsel ran and returned
/// true. A body exception aborts the loop and is rethrown here, on the
/// caller's thread, after all workers have stopped touching shared state.
///
/// Morsel boundaries depend only on (n, grain), never on scheduling, so
/// `outs[begin / grain]`-style per-morsel buffers concatenated in index
/// order reproduce the serial output exactly.
template <typename Body>
bool ParallelFor(ThreadPool* pool, int dop, size_t n, size_t grain,
                 const Deadline& deadline, Body&& body) {
  if (n == 0) return !deadline.Expired();
  if (grain == 0) grain = 1;
  size_t morsels = (n + grain - 1) / grain;
  size_t workers = dop > 1 ? static_cast<size_t>(dop) : 1;
  if (pool == nullptr) workers = 1;
  workers = std::min({workers, morsels, pool ? pool->size() + 1 : size_t{1}});

  if (workers <= 1) {
    for (size_t b = 0; b < n; b += grain) {
      if (deadline.Expired()) return false;
      if (!body(b, std::min(b + grain, n))) return false;
    }
    return true;
  }

  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable done;
    size_t pending = 0;
    std::exception_ptr error;
  } shared;

  auto work = [&shared, &deadline, &body, n, grain] {
    while (!shared.failed.load(std::memory_order_relaxed)) {
      size_t b = shared.next.fetch_add(grain, std::memory_order_relaxed);
      if (b >= n) break;
      if (deadline.Expired()) {
        shared.failed.store(true, std::memory_order_relaxed);
        break;
      }
      try {
        if (!body(b, std::min(b + grain, n))) {
          shared.failed.store(true, std::memory_order_relaxed);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (!shared.error) shared.error = std::current_exception();
        shared.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  shared.pending = workers - 1;
  for (size_t i = 0; i + 1 < workers; ++i) {
    pool->Submit([&shared, &work] {
      work();
      std::lock_guard<std::mutex> lock(shared.mu);
      if (--shared.pending == 0) shared.done.notify_one();
    });
  }
  work();
  {
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.done.wait(lock, [&shared] { return shared.pending == 0; });
  }
  if (shared.error) std::rethrow_exception(shared.error);
  return !shared.failed.load(std::memory_order_relaxed);
}

/// ParallelFor variant for operators whose morsels append variable-length
/// output. At dop > 1, each morsel appends to its own buffer and the
/// buffers are concatenated into `dst` in morsel order — reproducing the
/// serial append order exactly (the buffer-per-morsel sizing and the
/// `begin / grain` indexing live here so call sites cannot get them out
/// of sync with the morsel boundaries). At dop <= 1 the body appends
/// straight to `dst` in a single pass, no buffering. Body signature:
/// bool(size_t begin, size_t end, std::vector<T>* out); false aborts.
template <typename T, typename Body>
bool ParallelAppend(ThreadPool* pool, int dop, size_t n, size_t grain,
                    const Deadline& deadline, std::vector<T>* dst,
                    const Body& body) {
  if (n == 0) return !deadline.Expired();
  if (dop <= 1 || pool == nullptr) return body(0, n, dst);
  if (grain == 0) grain = 1;
  std::vector<std::vector<T>> buffers((n + grain - 1) / grain);
  bool ok = ParallelFor(pool, dop, n, grain, deadline,
                        [&](size_t begin, size_t end) {
                          return body(begin, end, &buffers[begin / grain]);
                        });
  if (!ok) return false;
  for (std::vector<T>& buffer : buffers) {
    dst->insert(dst->end(), buffer.begin(), buffer.end());
  }
  return true;
}

/// Cuts [0, n) into contiguous morsels of at least `grain` > 0 indices
/// (but the last), each extended while `same_run(i)` holds — index i continues
/// the run of index i - 1 — so that no run spans two morsels. Returns the
/// morsel bounds, from 0 to n. Like ParallelFor's morsels, the cuts depend
/// only on the input, never on scheduling.
template <typename SameRun>
std::vector<size_t> CutAtRuns(size_t n, size_t grain,
                              const SameRun& same_run) {
  std::vector<size_t> cuts{0};
  while (cuts.back() < n) {
    size_t end = std::min(cuts.back() + grain, n);
    while (end < n && same_run(end)) ++end;
    cuts.push_back(end);
  }
  return cuts;
}

}  // namespace gqopt

#endif  // GQOPT_UTIL_THREAD_POOL_H_
