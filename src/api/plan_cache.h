// Shape-keyed plan cache for the Database facade: normalized query text
// (plus a fingerprint of the plan-affecting options) maps to the shared
// immutable PreparedQuery state, so repeated traffic skips parse, rewrite
// and planning entirely. Bounded by an LRU policy (GQOPT_PLAN_CACHE_CAP);
// hit/miss/invalidation/eviction counters make the cache's behavior
// observable (CLI `cache` command, tests/api_test.cc, serving_test.cc).

#ifndef GQOPT_API_PLAN_CACHE_H_
#define GQOPT_API_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace gqopt {
namespace api {

class PreparedQuery;

/// Default LRU capacity when GQOPT_PLAN_CACHE_CAP is unset. Sized for a
/// serving mix of a few hundred distinct query shapes; 0 means unbounded.
inline constexpr size_t kDefaultPlanCacheCapacity = 256;

/// Default byte budget when GQOPT_PLAN_CACHE_MEM is unset: plans are
/// small (an expression tree plus the query text), so 64 MB only bites
/// when entries pin pathological state; 0 means unbounded.
inline constexpr size_t kDefaultPlanCacheMemCapacity = size_t{64} << 20;

/// Observable cache state; a consistent snapshot under the cache mutex.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;   // full clears (dataset swap, explicit)
  uint64_t evictions = 0;       // LRU capacity evictions (count or bytes)
  size_t entries = 0;
  size_t capacity = kDefaultPlanCacheCapacity;  // 0 = unbounded
  /// Accounted bytes across entries and the byte budget (0 = unbounded).
  size_t bytes = 0;
  size_t mem_capacity = kDefaultPlanCacheMemCapacity;
};

/// Canonical cache-key text: whitespace runs collapse to one space and
/// leading/trailing whitespace is dropped, so formatting variants of the
/// same query share one plan. (Conservative: spacing differences around
/// punctuation still produce distinct keys — a miss, never a wrong hit.)
std::string NormalizeQueryText(std::string_view text);

/// \brief Thread-safe LRU map from cache key to shared PreparedQuery state.
///
/// The cache has no switch of its own: callers that must not use it skip
/// Lookup and Insert (ExecOptions::use_plan_cache).
///
/// Capacity comes from GQOPT_PLAN_CACHE_CAP at construction (0 =
/// unbounded) with set_capacity() as the explicit override; when full,
/// Insert evicts the least-recently-used entry (lookups refresh recency).
class PlanCache {
 public:
  PlanCache();

  /// Overrides the capacity (explicit beats env beats default); shrinking
  /// below the current size evicts LRU entries immediately. 0 = unbounded.
  void set_capacity(size_t capacity);

  /// Overrides the byte budget (GQOPT_PLAN_CACHE_MEM); shrinking evicts
  /// LRU entries immediately. 0 = unbounded.
  void set_memory_capacity(size_t bytes);

  /// Returns the cached entry (counting a hit and refreshing its recency)
  /// or nullptr (counting a miss).
  std::shared_ptr<const PreparedQuery> Lookup(const std::string& key);

  /// Stores `entry` under `key`, evicting LRU entries while the cache is
  /// over its entry count or byte budget. `bytes` is the entry's
  /// accounted footprint (key + plan + pinned state estimate); the newest
  /// entry survives even when it alone exceeds the byte budget — the
  /// cache degrades to capacity 1, it never refuses.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedQuery> entry, size_t bytes = 0);

  /// Drops one entry without counting an invalidation or an eviction.
  /// Used when a lookup returns a plan from a dead generation: the entry
  /// raced a concurrent invalidation and is dropped as a plain miss.
  void Remove(const std::string& key);

  /// Drops every entry and counts one invalidation.
  void Invalidate();

  PlanCacheStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const PreparedQuery> entry;
    std::list<std::string>::iterator lru_pos;
    size_t bytes = 0;
  };

  /// Evicts LRU entries down to the count and byte budgets (keeping at
  /// least the newest entry). Caller holds mu_.
  void EvictToCapacityLocked();

  mutable std::mutex mu_;
  PlanCacheStats stats_;
  size_t capacity_ = kDefaultPlanCacheCapacity;  // 0 = unbounded
  size_t mem_capacity_ = kDefaultPlanCacheMemCapacity;  // 0 = unbounded
  size_t bytes_ = 0;  // accounted bytes across entries
  // Most-recently-used at the front; map slots point at their list node.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Slot> entries_;
};

}  // namespace api
}  // namespace gqopt

#endif  // GQOPT_API_PLAN_CACHE_H_
