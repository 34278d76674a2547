// In-memory span recorder for the benchmark's traced run.
//
// Spans are taken only around calls the benchmark makes into the library's
// public functions (one module = one layer). Each span has a name, a start
// and end on the steady clock, the span that was open when it began (its
// parent) and the id of the request it belongs to. Spans stay in memory
// and are written out once, when the run ends; run.py derives each layer's
// self time (span minus the part covered by its children) from them.

#ifndef PERFBENCH_RUNNER_TRACE_H_
#define PERFBENCH_RUNNER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NanosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct Span {
  const char* name;   // a string literal: never owned
  uint32_t id;        // 1-based position in Tracer::spans()
  uint32_t parent;    // 0 = a root span
  uint64_t request;   // shared by every span of one request
  int64_t start_ns;   // relative to the tracer's origin
  int64_t end_ns;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  uint32_t Begin(const char* name, uint64_t request) {
    uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
    uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back(Span{name, id, parent, request, NanosSince(origin_), 0});
    open_.push_back(id);
    return id;
  }

  void End(uint32_t id) {
    spans_[id - 1].end_ns = NanosSince(origin_);
    open_.pop_back();
  }

  void Rename(uint32_t id, const char* name) { spans_[id - 1].name = name; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// Records one span for its scope; does nothing when `tracer` is null, so
/// untraced code paths share the same call sites.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Names the span after the fact (a prepare is a hit or a miss only
  /// once it has returned).
  void Rename(const char* name) {
    if (tracer_ != nullptr) tracer_->Rename(id_, name);
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_TRACE_H_
