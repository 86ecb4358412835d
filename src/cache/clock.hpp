// CLOCK (second-chance) eviction: an LRU approximation with O(1) hits that
// never touches a global list — the structure used by TiKV-style block
// caches where lock contention on a recency list matters. The storage-layer
// block cache (storage/block_cache.hpp) runs the same sweep over block
// numbers.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/kv_cache.hpp"
#include "util/hash.hpp"

namespace dcache::cache {

class ClockCache final : public KvCache {
 public:
  explicit ClockCache(util::Bytes capacity) : capacity_(capacity) {}

  [[nodiscard]] const CacheEntry* get(std::string_view key) override;
  void put(std::string_view key, CacheEntry entry) override;
  bool erase(std::string_view key) override;
  void clear() override;
  [[nodiscard]] const CacheEntry* peek(std::string_view key) const override;
  void forEachEntry(
      const std::function<void(std::string_view, const CacheEntry&)>& fn)
      const override;

  [[nodiscard]] std::size_t itemCount() const noexcept override {
    return map_.size();
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept override {
    return util::Bytes::of(used_);
  }
  [[nodiscard]] util::Bytes capacity() const noexcept override {
    return capacity_;
  }

 private:
  struct Slot {
    std::string key;
    CacheEntry entry;
    bool referenced = false;
    bool occupied = false;
  };

  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::size_t> freeList_;
  std::size_t hand_ = 0;
  // Owning keys: slot strings may move when slots_ grows, so the map keys
  // must not alias them. Heterogeneous lookup keeps probes allocation-free.
  std::unordered_map<std::string, std::size_t, util::TransparentStringHash,
                     std::equal_to<>>
      map_;
};

}  // namespace dcache::cache
