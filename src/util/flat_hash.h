// Flat open-addressing hash containers for the evaluation hot paths.
//
// Both containers key on 64-bit values (packed (source, target) pairs or
// folded join keys) and probe linearly over power-of-two tables, replacing
// node-based std::unordered_map/set whose per-bucket allocations dominate
// the join and fixpoint inner loops.

#ifndef GQOPT_UTIL_FLAT_HASH_H_
#define GQOPT_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/mem_tracker.h"

namespace gqopt {

/// SplitMix64 finalizer: cheap, well-mixed 64-bit hash.
inline uint64_t HashKey64(uint64_t key) {
  key += 0x9E3779B97F4A7C15ULL;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return key ^ (key >> 31);
}

/// \brief Growable linear-probing set of 64-bit keys.
///
/// Used as the per-round dedup structure of semi-naive fixpoints: one
/// membership insert per candidate pair instead of re-merging the full
/// accumulator every delta round.
class FlatKeySet {
 public:
  /// `mem`, when set, is charged for the slot array (and every Grow
  /// doubling); the charge is released when the set dies. Growth keeps
  /// going past a breach — the owning loop polls the tracker's latch.
  explicit FlatKeySet(size_t expected = 0, MemoryTracker* mem = nullptr)
      : charge_(mem) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    charge_.Add(static_cast<int64_t>(cap * sizeof(uint64_t)));
  }

  /// Inserts `key`; returns true when it was not already present.
  bool Insert(uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t slot = HashKey64(key) & mask_;
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    size_t slot = HashKey64(key) & mask_;
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    // Charged before the allocation (the rehash transiently holds both
    // tables), released down to the new size once the old table dies.
    charge_.Add(static_cast<int64_t>(old.size() * 2 * sizeof(uint64_t)));
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t slot = HashKey64(key) & mask_;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = key;
    }
    old = {};
    charge_.Drop(static_cast<int64_t>(slots_.size() / 2 * sizeof(uint64_t)));
  }

  TrackedBytes charge_;
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_empty_key_ = false;
};

/// \brief Dedup set for (x, z) id pairs inside the box
/// [x_lo, x_hi] × [z_lo, z_hi], used by the closure fixpoint.
///
/// Dense, it is a bitmap over the box alone — one test-and-set bit per
/// candidate, no hashing at all; sparse, it is the flat hash set over
/// packed pairs. The caller picks the form (DenseFits), so the sets of
/// one closure's fixed-value ranges are all dense or all sparse.
class PairDedupSet {
 public:
  /// True when a bitmap over `x_count * z_count` pairs is small enough.
  static bool DenseFits(uint64_t x_count, uint64_t z_count) {
    return x_count == 0 || z_count <= kDenseBits / x_count;
  }

  /// Every inserted pair must lie in the box (x_lo <= x_hi, z_lo <= z_hi).
  /// `expected`: initial hash capacity hint for the sparse form.
  /// `mem`, when set, is charged for the bitmap or the hash slots.
  PairDedupSet(uint32_t x_lo, uint32_t x_hi, uint32_t z_lo, uint32_t z_hi,
               bool dense, size_t expected, MemoryTracker* mem = nullptr)
      : dense_(dense),
        x_lo_(x_lo),
        z_lo_(z_lo),
        stride_(uint64_t{z_hi} - z_lo + 1),
        charge_(mem),
        hash_(dense ? 0 : expected, dense ? nullptr : mem) {
    if (dense_) {
      bits_.assign(((uint64_t{x_hi} - x_lo + 1) * stride_ + 63) / 64, 0);
      charge_.Add(static_cast<int64_t>(bits_.size() * sizeof(uint64_t)));
    }
  }

  /// Inserts (x, z); returns true when it was not already present.
  bool Insert(uint32_t x, uint32_t z) {
    if (dense_) {
      uint64_t bit = uint64_t{x - x_lo_} * stride_ + (z - z_lo_);
      uint64_t mask = uint64_t{1} << (bit & 63);
      uint64_t& word = bits_[bit >> 6];
      if (word & mask) return false;
      word |= mask;
      return true;
    }
    return hash_.Insert((static_cast<uint64_t>(x) << 32) | z);
  }

 private:
  // 2^26 bits = 8 MB: roughly the footprint the hash set would reach on
  // closures large enough to overflow it.
  static constexpr uint64_t kDenseBits = uint64_t{1} << 26;

  bool dense_;
  uint32_t x_lo_;
  uint32_t z_lo_;
  uint64_t stride_;
  TrackedBytes charge_;
  std::vector<uint64_t> bits_;
  FlatKeySet hash_;
};

/// \brief Flat hash join index: rows grouped per key into one contiguous
/// array, with a linear-probing slot table from key to its row range.
///
/// Built in two counting passes from the full build-side key vector:
/// no rehashing, no per-bucket allocations, and — unlike a chained
/// layout — every key's matching rows are adjacent, so probe-side chain
/// walks are sequential reads.
class FlatJoinIndex {
 public:
  /// Builds the index over `n` keys; `keys[r]` is the join key of build
  /// row `r`. The span form lets radix-partitioned joins index one
  /// partition's contiguous key run in place; Equal() then returns row
  /// ids relative to the span start. `mem`, when set, is charged for the
  /// slot table and row groups (the per-query memory budget).
  FlatJoinIndex(const uint64_t* keys, size_t n, MemoryTracker* mem = nullptr)
      : charge_(mem) {
    size_t cap = 16;
    while (cap < n * 2) cap <<= 1;
    charge_.Add(static_cast<int64_t>(cap * sizeof(Slot) +
                                     n * 2 * sizeof(uint32_t)));
    slots_.assign(cap, Slot{0, 0, 0});
    mask_ = cap - 1;
    rows_.resize(n);
    // Pass 1: claim a slot per distinct key and count its rows,
    // remembering each row's slot to skip re-probing in pass 2.
    std::vector<uint32_t> slot_of_row(n);
    for (size_t r = 0; r < n; ++r) {
      size_t i = HashKey64(keys[r]) & mask_;
      while (slots_[i].count != 0 && slots_[i].key != keys[r]) {
        i = (i + 1) & mask_;
      }
      slots_[i].key = keys[r];
      ++slots_[i].count;
      slot_of_row[r] = static_cast<uint32_t>(i);
    }
    // Prefix-sum the counts into per-slot write cursors.
    uint32_t begin = 0;
    for (Slot& slot : slots_) {
      slot.cursor = begin;
      begin += slot.count;
    }
    // Pass 2: scatter rows into their contiguous groups. Afterwards each
    // cursor sits at its group's end; Equal() recovers the start from the
    // count.
    for (size_t r = 0; r < n; ++r) {
      rows_[slots_[slot_of_row[r]].cursor++] = static_cast<uint32_t>(r);
    }
    // The transient slot_of_row scratch dies here.
    charge_.Drop(static_cast<int64_t>(n * sizeof(uint32_t)));
  }

  explicit FlatJoinIndex(const std::vector<uint64_t>& keys,
                         MemoryTracker* mem = nullptr)
      : FlatJoinIndex(keys.data(), keys.size(), mem) {}

  /// The contiguous [begin, end) run of build rows with `key`.
  std::pair<const uint32_t*, const uint32_t*> Equal(uint64_t key) const {
    size_t i = HashKey64(key) & mask_;
    while (slots_[i].count != 0) {
      if (slots_[i].key == key) {
        const uint32_t* end = rows_.data() + slots_[i].cursor;
        return {end - slots_[i].count, end};
      }
      i = (i + 1) & mask_;
    }
    return {nullptr, nullptr};
  }

  size_t entries() const { return rows_.size(); }

 private:
  struct Slot {
    uint64_t key;
    uint32_t cursor;  // end of the key's row group after construction
    uint32_t count;   // 0 marks an empty slot
  };

  TrackedBytes charge_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> rows_;  // build rows grouped by key
  size_t mask_ = 0;
};

}  // namespace gqopt

#endif  // GQOPT_UTIL_FLAT_HASH_H_
