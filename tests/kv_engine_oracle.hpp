// Test-only oracle for storage::KvEngine: a std::map MVCC engine (with an
// open-addressing point index over the map nodes), as inline definitions.
// tests/test_kv_engine_differential.cpp drives both engines in lockstep;
// ordered map iteration is the reference for scan order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kv_engine.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace dcache::storage::oracle {

class KvEngine {
 public:
  static constexpr std::uint64_t kLatest = UINT64_MAX;

  /// Append a version at `commitTs`. Timestamps must be monotone per key;
  /// out-of-order commits are rejected (returns false) — this is the
  /// guard the delayed-writes scenario probes.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);

  /// Tombstone write.
  bool erase(std::string_view key, std::uint64_t commitTs);

  /// Latest visible version at `snapshotTs` (kLatest = newest). Returns
  /// nullptr for missing keys and tombstones.
  [[nodiscard]] const StoredValue* get(std::string_view key,
                                       std::uint64_t snapshotTs = kLatest) const;

  /// Version of the newest visible value; nullopt if absent/deleted.
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const;

  /// Ordered scan over keys with the given prefix; `fn` returns false to
  /// stop early. Returns rows visited.
  std::size_t scanPrefix(
      std::string_view prefix, std::uint64_t snapshotTs,
      const std::function<bool(std::string_view, const StoredValue&)>& fn) const;

  /// Drop all but the newest `keep` versions of every key. Returns number
  /// of versions reclaimed.
  std::size_t gc(std::size_t keep = 2);

  /// Pre-size the point index for `expectedKeys` keys, avoiding the
  /// rehash cascade when a deployment bulk-loads its keyspace.
  void reserveKeys(std::size_t expectedKeys);

  [[nodiscard]] std::size_t keyCount() const noexcept { return chains_.size(); }
  [[nodiscard]] util::Bytes liveBytes() const noexcept {
    return util::Bytes::of(liveBytes_);
  }
  [[nodiscard]] std::uint64_t writeCount() const noexcept { return writes_; }

 private:
  using Chain = std::vector<StoredValue>;  // ascending by version

  /// Open-addressing point index over `chains_`. Point gets/puts dominate
  /// the serve path, and an RB-tree descent per lookup was the single
  /// hottest function in the whole simulator; the ordered map is kept only
  /// for scanPrefix. Safe because nothing ever erases a chains_ node (GC
  /// trims chains in place), so the cached key/chain pointers stay valid.
  struct IndexSlot {
    std::uint64_t hash = 0;
    const std::string* key = nullptr;
    Chain* chain = nullptr;  // nullptr == empty slot
  };

  [[nodiscard]] Chain* findChain(std::uint64_t hash,
                                 std::string_view key) const;
  void indexInsert(std::uint64_t hash, const std::string* key, Chain* chain);
  void maybeGrowIndex();
  void rebuildIndex(std::size_t slots);

  std::map<std::string, Chain, std::less<>> chains_;
  std::vector<IndexSlot> index_;  // power-of-two linear probing
  std::size_t indexMask_ = 0;
  std::uint64_t liveBytes_ = 0;  // newest non-tombstone version per key
  std::uint64_t writes_ = 0;
};


inline KvEngine::Chain* KvEngine::findChain(std::uint64_t hash,
                                     std::string_view key) const {
  if (index_.empty()) return nullptr;
  std::size_t pos = static_cast<std::size_t>(hash) & indexMask_;
  while (index_[pos].chain != nullptr) {
    if (index_[pos].hash == hash && *index_[pos].key == key) {
      return index_[pos].chain;
    }
    pos = (pos + 1) & indexMask_;
  }
  return nullptr;
}

inline void KvEngine::indexInsert(std::uint64_t hash, const std::string* key,
                           Chain* chain) {
  maybeGrowIndex();
  std::size_t pos = static_cast<std::size_t>(hash) & indexMask_;
  while (index_[pos].chain != nullptr) pos = (pos + 1) & indexMask_;
  index_[pos] = IndexSlot{hash, key, chain};
}

inline void KvEngine::maybeGrowIndex() {
  // Grow at 70% load; chains_.size() is the number of occupied slots.
  if (!index_.empty() && (chains_.size() + 1) * 10 <= index_.size() * 7) {
    return;
  }
  rebuildIndex(index_.empty() ? 1024 : index_.size() * 2);
}

inline void KvEngine::rebuildIndex(std::size_t slots) {
  index_.assign(slots, IndexSlot{});
  indexMask_ = slots - 1;
  for (auto& [key, chain] : chains_) {
    const std::uint64_t h = util::fastHash64(key);
    std::size_t pos = static_cast<std::size_t>(h) & indexMask_;
    while (index_[pos].chain != nullptr) pos = (pos + 1) & indexMask_;
    index_[pos] = IndexSlot{h, &key, &chain};
  }
}

inline void KvEngine::reserveKeys(std::size_t expectedKeys) {
  std::size_t slots = 1024;
  // Size so `expectedKeys` stays under the 70% growth threshold.
  while (expectedKeys * 10 > slots * 7) slots *= 2;
  if (slots > index_.size()) rebuildIndex(slots);
}

inline bool KvEngine::put(std::string_view key, StoredValue value,
                   std::uint64_t commitTs) {
  const std::uint64_t h = util::fastHash64(key);
  Chain* found = findChain(h, key);
  if (found == nullptr) {
    auto it = chains_.emplace(std::string(key), Chain{}).first;
    found = &it->second;
    indexInsert(h, &it->first, found);
  }
  Chain& chain = *found;
  if (!chain.empty() && chain.back().version >= commitTs) {
    return false;  // stale write: a newer version is already committed
  }
  if (!chain.empty() && !chain.back().tombstone) {
    liveBytes_ -= chain.back().size;
  }
  value.version = commitTs;
  if (!value.tombstone) liveBytes_ += value.size;
  chain.push_back(std::move(value));
  ++writes_;
  return true;
}

inline bool KvEngine::erase(std::string_view key, std::uint64_t commitTs) {
  StoredValue tomb;
  tomb.tombstone = true;
  return put(key, std::move(tomb), commitTs);
}

inline const StoredValue* KvEngine::get(std::string_view key,
                                 std::uint64_t snapshotTs) const {
  const Chain* found = findChain(util::fastHash64(key), key);
  if (found == nullptr) return nullptr;
  const Chain& chain = *found;
  // Newest version with version <= snapshotTs.
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->version <= snapshotTs) {
      return rit->tombstone ? nullptr : &*rit;
    }
  }
  return nullptr;
}

inline std::optional<std::uint64_t> KvEngine::latestVersion(
    std::string_view key) const {
  const StoredValue* v = get(key);
  if (!v) return std::nullopt;
  return v->version;
}

inline std::size_t KvEngine::scanPrefix(
    std::string_view prefix, std::uint64_t snapshotTs,
    const std::function<bool(std::string_view, const StoredValue&)>& fn) const {
  std::size_t visited = 0;
  for (auto it = chains_.lower_bound(prefix); it != chains_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, prefix.size(), prefix) != 0) break;
    // Find visible version inline to avoid a second map lookup.
    const StoredValue* visible = nullptr;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (rit->version <= snapshotTs) {
        if (!rit->tombstone) visible = &*rit;
        break;
      }
    }
    if (visible) {
      ++visited;
      if (!fn(key, *visible)) break;
    }
  }
  return visited;
}

inline std::size_t KvEngine::gc(std::size_t keep) {
  if (keep == 0) keep = 1;
  std::size_t reclaimed = 0;
  for (auto& [key, chain] : chains_) {
    if (chain.size() > keep) {
      reclaimed += chain.size() - keep;
      chain.erase(chain.begin(),
                  chain.begin() + static_cast<std::ptrdiff_t>(chain.size() - keep));
    }
  }
  return reclaimed;
}

}  // namespace dcache::storage::oracle
