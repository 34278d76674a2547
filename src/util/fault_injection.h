// Fault-injection harness for robustness testing (docs/ROBUSTNESS.md):
// named injection points at the query pipeline's stage boundaries
// (parse/rewrite/plan/execute) and inside the lazy cache builds
// (snapshot/catalog/statistics/CSR), armed per-point with a fault kind.
//
// The injector is a process-global singleton built from lock-free atomics:
// the disarmed fast path is a single relaxed load, so leaving the checks
// compiled into release binaries costs nothing measurable. Arming happens
// either programmatically (tests) or from the environment at first use:
//
//   GQOPT_FAULTS=plan=deadline,execute=alloc:3
//
// arms a forced deadline expiry at every plan stage entry and a forced
// allocation failure at every 3rd execute stage entry. Kinds:
//
//   deadline    the stage fails with Status::DeadlineExceeded, exactly as
//               if its deadline expired at the boundary
//   alloc       the stage observes an allocation failure: cache builds
//               throw std::bad_alloc (caught at the facade boundary and
//               surfaced as a stage-prefixed ResourceExhausted), stage
//               boundaries fail with ResourceExhausted directly
//   invalidate  the published Database snapshot and plan cache are dropped
//               mid-request without a generation bump — the request must
//               still succeed from the state it already captured
//
// Every fire and every probe is counted, so tests can assert an armed
// point was actually reached.

#ifndef GQOPT_UTIL_FAULT_INJECTION_H_
#define GQOPT_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace gqopt {

/// Where a fault can fire. Stage points sit at the facade's pipeline
/// boundaries; build points sit inside the lazy cache builds the
/// concurrent snapshot layer synchronizes.
enum class FaultPoint : uint8_t {
  kParse = 0,
  kRewrite,
  kPlan,
  kExecute,
  kSnapshotBuild,
  kCatalogBuild,
  kStatsBuild,
  kCsrBuild,
  /// MemoryTracker::Charge in probe_faults mode (per-query trackers):
  /// kAlloc forces a reservation failure, latching the tracker's breach
  /// exactly like a real budget overrun ("mem" in GQOPT_FAULTS specs).
  kMemReserve,
  /// Delta-store compaction (Database::Compact and the automatic merge
  /// triggered when pending mutations exceed the merge threshold):
  /// kDeadline/kAlloc abort the merge with a typed "compact: " status —
  /// pending rows stay in the delta, readers keep the overlay, and the
  /// next compaction retries ("delta-merge" in GQOPT_FAULTS).
  kDeltaMerge,
};

inline constexpr size_t kNumFaultPoints = 10;

/// What happens when an armed point is reached.
enum class FaultKind : uint8_t {
  kNone = 0,    ///< disarmed
  kDeadline,    ///< forced deadline expiry
  kAlloc,       ///< forced allocation failure
  kInvalidate,  ///< forced cache invalidation mid-request
};

/// Human-readable point name ("plan", "snapshot-build", ...).
std::string_view FaultPointName(FaultPoint point);

/// Human-readable kind name ("deadline", "alloc", "invalidate").
std::string_view FaultKindName(FaultKind kind);

/// \brief Process-global fault injector. All state is atomic; arming and
/// probing are safe from any thread.
class FaultInjector {
 public:
  /// The process singleton. On first call, arms points from the
  /// GQOPT_FAULTS environment knob (see the header comment for syntax).
  static FaultInjector& Global();

  /// Arms `point` to fire `kind` at every `every_n`-th probe (1 = every
  /// probe). `kind == kNone` disarms the point.
  void Arm(FaultPoint point, FaultKind kind, uint32_t every_n = 1);

  /// Disarms every point; counters are kept (see ResetCounters).
  void DisarmAll();

  /// Zeroes the probe/fire counters of every point.
  void ResetCounters();

  /// Probes `point`: counts the probe and returns the armed kind when the
  /// fault fires this time, kNone otherwise. The disarmed fast path is
  /// one relaxed atomic load.
  FaultKind Probe(FaultPoint point) {
    const Slot& slot = slots_[static_cast<size_t>(point)];
    if (slot.kind.load(std::memory_order_relaxed) == FaultKind::kNone) {
      return FaultKind::kNone;
    }
    return ProbeSlow(point);
  }

  /// Probes of `point` since the last ResetCounters (armed or not — a
  /// disarmed point counts nothing, so this reads 0 until armed).
  uint64_t probes(FaultPoint point) const {
    return slots_[static_cast<size_t>(point)].probes.load(
        std::memory_order_relaxed);
  }

  /// Fires of `point` since the last ResetCounters.
  uint64_t fires(FaultPoint point) const {
    return slots_[static_cast<size_t>(point)].fires.load(
        std::memory_order_relaxed);
  }

  /// Currently armed kind of `point` (kNone when disarmed).
  FaultKind armed(FaultPoint point) const {
    return slots_[static_cast<size_t>(point)].kind.load(
        std::memory_order_relaxed);
  }

  /// Parses and applies a GQOPT_FAULTS-style spec
  /// ("point=kind[:every_n]" comma-list). Returns false (arming whatever
  /// prefix parsed) on a malformed entry. An empty spec disarms all.
  bool ArmFromSpec(std::string_view spec);

  /// One-line render of the armed points and their counters.
  std::string Describe() const;

 private:
  struct Slot {
    std::atomic<FaultKind> kind{FaultKind::kNone};
    std::atomic<uint32_t> every_n{1};
    std::atomic<uint64_t> probes{0};
    std::atomic<uint64_t> fires{0};
  };

  FaultInjector() = default;
  FaultKind ProbeSlow(FaultPoint point);

  Slot slots_[kNumFaultPoints];
};

/// Convenience probe against the global injector.
inline FaultKind FaultHit(FaultPoint point) {
  return FaultInjector::Global().Probe(point);
}

}  // namespace gqopt

#endif  // GQOPT_UTIL_FAULT_INJECTION_H_
