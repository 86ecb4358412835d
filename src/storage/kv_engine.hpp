// MVCC key-value engine — the TiKV stand-in. Keys map to version chains
// ordered by commit timestamp; reads see the latest version at or below
// their snapshot, writes append, deletes write tombstones, and GC trims
// history. Values carry a logical size separate from the optional payload
// for the same reason the caches do: simulating 1 MB values must not cost
// 1 MB of host RAM each.
//
// Layout (a sorted run plus a delta, after cachegrand's storage_db):
//   - entries_: one dense vector of {hash, key, version chain}, one cache
//     line each. Keys up to 24 bytes sit in the entry, longer ones in an
//     append-only arena. No key is ever erased: deletes write tombstones
//     and GC trims chains in place.
//   - index_: an open-addressing point index of {hash tag, entry handle}.
//     Growth rebuilds it from the stored hashes.
//   - entries_[0, sealed_) is the sealed run, physically in key order.
//   - dir_: the sealed run's prefix directory, built by compact(). For
//     every '/'-terminated prefix of every sealed key it holds the sealed
//     position of the first key with that prefix, in {hash tag, position}
//     slots like index_. Keys sharing a prefix are contiguous in the run,
//     so a scan of a '/'-terminated prefix starts with one probe: a hit is
//     verified (the key there has the prefix, the key before it does not)
//     and a miss proves no sealed key has the prefix. Other prefixes
//     binary-search the run.
//   - Entries past sealed_ are the delta: keys created since the last
//     compaction, in arrival order. A scan sorts new arrivals lazily into
//     deltaOrder_ and merge-walks it with the sealed run, so callbacks
//     still arrive in exact byte-wise key order.
//   - compact() folds the delta into the sealed run. Bulk loaders call it
//     once at the end of the load, so setup pays the sort. After that,
//     put() folds the delta once its sorted part outgrows a stride of
//     max(1024, sealed/8) keys, amortising the O(n) rewrite over that many
//     new keys; a scan only ever sorts and merges the small delta. An
//     engine that is never scanned never sorts anything.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/function_ref.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

struct StoredValue {
  std::uint64_t size = 0;       // logical bytes (== payload.size() if present)
  std::uint64_t version = 0;    // commit timestamp that wrote this version
  std::string payload;          // real bytes for functional tables
  bool tombstone = false;

  [[nodiscard]] static StoredValue sized(std::uint64_t size) {
    return StoredValue{size, 0, {}, false};
  }
  [[nodiscard]] static StoredValue of(std::string payload) {
    const auto n = static_cast<std::uint64_t>(payload.size());
    return StoredValue{n, 0, std::move(payload), false};
  }
};

/// Scan callback: return false to stop. Non-owning, so passing a capturing
/// lambda allocates nothing.
using ScanFn = util::FunctionRef<bool(std::string_view, const StoredValue&)>;

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
  /// nullptr for missing keys and tombstones. The pointer stays valid until
  /// the next write to the same key or the next gc().
  [[nodiscard]] const StoredValue* get(std::string_view key,
                                       std::uint64_t snapshotTs = kLatest) const;

  /// Version of the newest visible value; nullopt if absent/deleted.
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const;

  /// Ordered scan over keys with the given prefix; `fn` returns false to
  /// stop early and must not write to this engine. Returns rows visited.
  /// Not safe to call concurrently with any other call on the same engine:
  /// it may sort the delta in place.
  std::size_t scanPrefix(std::string_view prefix, std::uint64_t snapshotTs,
                         ScanFn fn) const;
  /// The same scan, given `prefixHash == util::fastHash64(prefix)`, so a
  /// caller scanning several engines hashes the prefix once.
  std::size_t scanPrefix(std::string_view prefix, std::uint64_t prefixHash,
                         std::uint64_t snapshotTs, ScanFn fn) const;
  /// Prefetch the directory slot a scan of the prefix with this hash
  /// probes first.
  void prefetchPrefix(std::uint64_t prefixHash) const noexcept {
    if (!dir_.empty()) {
      __builtin_prefetch(
          &dir_[static_cast<std::size_t>(prefixHash) & dirMask_]);
    }
  }

  /// Drop all but the newest `keep` versions of every key. Returns number
  /// of versions reclaimed.
  std::size_t gc(std::size_t keep = 2);

  /// Fold every key into the sealed run (a key-ordered rewrite of entries
  /// and key bytes). Call once at the end of a bulk load that will be
  /// scanned, so the sort is paid in setup rather than by the first scan.
  void compact();

  /// Pre-size the point index and entry storage for `expectedKeys` keys,
  /// avoiding the growth cascade when a deployment bulk-loads its keyspace.
  void reserveKeys(std::size_t expectedKeys);

  [[nodiscard]] std::size_t keyCount() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] util::Bytes liveBytes() const noexcept {
    return util::Bytes::of(liveBytes_);
  }
  [[nodiscard]] std::uint64_t writeCount() const noexcept { return writes_; }

 private:
  using Chain = std::vector<StoredValue>;  // ascending by version

  /// Keys up to this long live inside their entry, so a point lookup
  /// reads no arena bytes; longer keys live in arena_. Sized so an entry
  /// fills exactly one cache line.
  static constexpr std::size_t kInlineKeyBytes = 24;

  struct alignas(64) Entry {
    std::uint64_t hash = 0;
    std::uint32_t keyLength = 0;
    std::uint32_t keyOffset = 0;  // into arena_ when not inline
    std::array<char, kInlineKeyBytes> inlineKey{};
    Chain chain;
  };
  static_assert(sizeof(Entry) == 64, "an entry is one cache line");

  /// Point-index and directory slot: the high half of the key (or prefix)
  /// hash and an entries_ position. The low hash bits pick the home slot.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t handle = kEmptySlot;
  };

  static constexpr std::uint32_t kEmptySlot = UINT32_MAX;
  /// The separator that ends every prefix the directory records.
  static constexpr char kSeparator = '/';
  /// Smallest sorted delta that put() folds into the sealed run.
  static constexpr std::size_t kMinFoldKeys = 1024;

  [[nodiscard]] std::string_view keyOf(const Entry& entry) const noexcept {
    return entry.keyLength <= kInlineKeyBytes
               ? std::string_view(entry.inlineKey.data(), entry.keyLength)
               : std::string_view(arena_.data() + entry.keyOffset,
                                  entry.keyLength);
  }
  [[nodiscard]] std::string_view keyAt(std::size_t handle) const noexcept {
    return keyOf(entries_[handle]);
  }
  /// An entry for `key` with an empty chain; long keys are appended to
  /// `arena`.
  [[nodiscard]] static Entry makeEntry(std::uint64_t hash,
                                       std::string_view key,
                                       std::vector<char>& arena);
  /// entries_ position of `key`, or kEmptySlot.
  [[nodiscard]] std::uint32_t find(std::uint64_t hash,
                                   std::string_view key) const;
  /// Append `key` to the delta with an empty chain; returns its handle.
  std::uint32_t createEntry(std::uint64_t hash, std::string_view key);
  void indexPlace(std::uint64_t hash, std::uint32_t handle);
  void rebuildIndex(std::size_t slots);
  /// First sealed position whose key is >= `prefix`; for a prefix ending
  /// in kSeparator that no sealed key has, sealed_ instead.
  [[nodiscard]] std::size_t sealedLowerBound(std::string_view prefix,
                                             std::uint64_t prefixHash) const;
  /// Directory lookup: the first sealed position whose key starts with
  /// `prefix` (which ends in kSeparator and hashes to `prefixHash`), or
  /// sealed_ if none does.
  [[nodiscard]] std::size_t dirLowerBound(std::string_view prefix,
                                          std::uint64_t prefixHash) const;
  /// Rebuild dir_ from the sealed run.
  void rebuildDirectory();
  [[nodiscard]] bool deltaUnsorted() const noexcept {
    return sealed_ + deltaOrder_.size() != entries_.size();
  }
  /// Sort delta keys that arrived since the last sort into deltaOrder_.
  void sortDelta() const;

  std::vector<Entry> entries_;
  std::vector<char> arena_;  // long keys' bytes, append-only between compactions
  std::vector<Slot> index_;  // power-of-two linear probing
  std::size_t indexMask_ = 0;
  std::size_t sealed_ = 0;  // entries_[0, sealed_) are in key order
  // Prefix directory of the sealed run; power-of-two linear probing.
  std::vector<Slot> dir_;
  std::size_t dirMask_ = 0;
  // Delta handles in key order: entries_[sealed_, sealed_ + size) sorted
  // by the last scan. Mutable because a const scan sorts lazily.
  mutable std::vector<std::uint32_t> deltaOrder_;
  std::uint64_t liveBytes_ = 0;  // newest non-tombstone version per key
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
