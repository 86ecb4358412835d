// Storage-layer block cache — the "Base" architecture's cache (Fig. 1a).
// TiKV-style: rows live in fixed-granularity blocks; a read that misses
// pays the disk path, a hit pays only a probe. CLOCK eviction, matching the
// lock-free approximation real block caches use. Writes are applied
// write-through (a freshly written row sits in the memtable, so an
// immediately following read is cheap — write-invalidate would overstate
// disk traffic).
//
// Keyed by the block number `keyHash >> 4` itself: an open-addressing table
// of `{uint64 block, uint32 index}` slots (linear probing, backward-shift
// deletion, doubling at 70% load) over dense per-index arrays of block
// number, block size and clock bits. Victims, hit/miss results, stats and
// bytesUsed() are sequence-identical to a `cache::FlatCache` in kClock mode
// keyed by the 17-byte string id "b" + 16 hex digits of the block number:
// indices are handed out LIFO from a free list (else bumped), the hand
// sweeps `(hand + 1) % highWater` with the same second-chance bit, and each
// block is still charged `size + 17 + kEntryOverheadBytes`, the old id's
// length included (bytesUsed() feeds the priced memory meters).
// tests/test_block_cache_differential.cpp runs both in lockstep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cache/kv_cache.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

class BlockCache {
 public:
  static constexpr std::uint64_t kBlockBytes = 4096;

  explicit BlockCache(util::Bytes capacity);

  /// Probe for the block containing `key` (a row of `rowBytes`). On a miss
  /// the block is loaded (inserted); the caller charges the disk path.
  /// Returns true on hit.
  bool touchRead(std::string_view key, std::uint64_t rowBytes) {
    return touchRead(util::hashKey(key), rowBytes);
  }
  /// touchRead for a key whose util::hashKey the caller already holds.
  bool touchRead(std::uint64_t keyHash, std::uint64_t rowBytes);

  /// Apply a write: the row's block is refreshed in cache.
  void touchWrite(std::string_view key, std::uint64_t rowBytes) {
    touchWrite(util::hashKey(key), rowBytes);
  }
  void touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes);

  /// Drop the block containing `key` (compaction, explicit invalidation).
  void invalidate(std::string_view key) { invalidate(util::hashKey(key)); }
  void invalidate(std::uint64_t keyHash);

  /// Drop everything — a storage-node crash/restart comes back cold.
  /// Stats are kept.
  void clear();

  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept {
    return util::Bytes::of(used_);
  }
  [[nodiscard]] util::Bytes capacity() const noexcept { return capacity_; }

  /// Block number of a key's util::hashKey hash: 16 adjacent hash buckets
  /// share a block, which keeps the "over-read" property of block storage
  /// (a hot key drags its block neighbours into memory).
  [[nodiscard]] static constexpr std::uint64_t blockOf(
      std::uint64_t keyHash) noexcept {
    return keyHash >> 4;
  }
  /// Bytes charged for a block holding a row of `rowBytes`.
  [[nodiscard]] static std::uint64_t blockSizeFor(std::uint64_t rowBytes) noexcept {
    return rowBytes > kBlockBytes ? rowBytes : kBlockBytes;
  }

 private:
  /// Id bytes charged per block: the length of the former string id.
  static constexpr std::uint64_t kIdBytes = 17;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kInitialTableSlots = 16;
  static constexpr std::uint8_t kOccupiedBit = 1;
  static constexpr std::uint8_t kReferencedBit = 2;

  /// Open-addressing slot; `index == kNil` marks it empty.
  struct Slot {
    std::uint64_t block = 0;
    std::uint32_t index = kNil;
  };

  [[nodiscard]] static std::uint64_t chargeFor(std::uint64_t size) noexcept {
    return size + kIdBytes + cache::kEntryOverheadBytes;
  }
  [[nodiscard]] std::size_t homeOf(std::uint64_t block) const noexcept {
    return util::mix64(block) & mask_;
  }
  /// The slot holding `block` (found = true) or the empty slot where it
  /// would be inserted (found = false).
  [[nodiscard]] std::size_t probe(std::uint64_t block, bool& found) const noexcept;
  /// Store a block the probe at `pos` did not find; then evict to capacity.
  void insertAt(std::size_t pos, std::uint64_t block, std::uint64_t size);
  /// Doubles the table at ~70% load; returns true if the table moved.
  bool maybeGrow();
  void eraseSlot(std::size_t pos) noexcept;
  void remove(std::size_t pos, std::uint32_t index);
  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  cache::CacheStats stats_;
  std::vector<Slot> table_;
  std::size_t mask_ = 0;
  /// Per-index block number, block size and clock bits; their length is
  /// the index high-water mark the hand sweeps.
  std::vector<std::uint64_t> blocks_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint8_t> flags_;
  /// Freed indices, reused last-in first-out.
  std::vector<std::uint32_t> free_;
  std::size_t hand_ = 0;
};

}  // namespace dcache::storage
