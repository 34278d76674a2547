#include "api/plan_cache.h"

#include <cctype>
#include <cstdlib>

#include "util/mem_tracker.h"

namespace gqopt {
namespace api {

std::string NormalizeQueryText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

PlanCache::PlanCache() {
  if (const char* cap = std::getenv("GQOPT_PLAN_CACHE_CAP")) {
    char* end = nullptr;
    unsigned long value = std::strtoul(cap, &end, 10);
    // Malformed values keep the default; "0" is a valid "unbounded".
    if (end != cap) capacity_ = static_cast<size_t>(value);
  }
  if (const char* mem = std::getenv("GQOPT_PLAN_CACHE_MEM")) {
    // "0" (ParseByteSize's malformed sentinel too) means unbounded, so a
    // malformed value degrades to no byte cap rather than a surprise one.
    mem_capacity_ = static_cast<size_t>(ParseByteSize(mem));
  }
  stats_.capacity = capacity_;
  stats_.mem_capacity = mem_capacity_;
}

void PlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  stats_.capacity = capacity;
  EvictToCapacityLocked();
}

void PlanCache::set_memory_capacity(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  mem_capacity_ = bytes;
  stats_.mem_capacity = bytes;
  EvictToCapacityLocked();
}

std::shared_ptr<const PreparedQuery> PlanCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.entry;
  }
  ++stats_.misses;
  return nullptr;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const PreparedQuery> entry,
                       size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    bytes_ += bytes;
    it->second.entry = std::move(entry);
    it->second.bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    EvictToCapacityLocked();
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), lru_.begin(), bytes});
  bytes_ += bytes;
  EvictToCapacityLocked();
}

void PlanCache::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void PlanCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  ++stats_.invalidations;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats snapshot = stats_;
  snapshot.entries = entries_.size();
  snapshot.capacity = capacity_;
  snapshot.bytes = bytes_;
  snapshot.mem_capacity = mem_capacity_;
  return snapshot;
}

void PlanCache::EvictToCapacityLocked() {
  auto over = [&] {
    if (capacity_ != 0 && entries_.size() > capacity_) return true;
    // The byte budget keeps at least the newest entry: a single oversized
    // plan degrades the cache to capacity 1 instead of thrashing it.
    return mem_capacity_ != 0 && bytes_ > mem_capacity_ &&
           entries_.size() > 1;
  };
  while (over()) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace api
}  // namespace gqopt
