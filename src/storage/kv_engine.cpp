#include "storage/kv_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dcache::storage {

std::uint32_t KvEngine::find(std::uint64_t hash, std::string_view key) const {
  if (index_.empty()) return kEmptySlot;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  std::size_t pos = static_cast<std::size_t>(hash) & indexMask_;
  while (index_[pos].handle != kEmptySlot) {
    const Slot slot = index_[pos];
    if (slot.tag == tag) {
      const Entry& entry = entries_[slot.handle];
      if (entry.hash == hash && keyOf(entry) == key) return slot.handle;
    }
    pos = (pos + 1) & indexMask_;
  }
  return kEmptySlot;
}

void KvEngine::indexPlace(std::uint64_t hash, std::uint32_t handle) {
  std::size_t pos = static_cast<std::size_t>(hash) & indexMask_;
  while (index_[pos].handle != kEmptySlot) pos = (pos + 1) & indexMask_;
  index_[pos] = Slot{static_cast<std::uint32_t>(hash >> 32), handle};
}

void KvEngine::rebuildIndex(std::size_t slots) {
  index_.assign(slots, Slot{});
  indexMask_ = slots - 1;
  for (std::size_t h = 0; h < entries_.size(); ++h) {
    indexPlace(entries_[h].hash, static_cast<std::uint32_t>(h));
  }
}

void KvEngine::reserveKeys(std::size_t expectedKeys) {
  std::size_t slots = 1024;
  // Size so `expectedKeys` stays under the 70% growth threshold.
  while (expectedKeys * 10 > slots * 7) slots *= 2;
  if (slots > index_.size()) rebuildIndex(slots);
  entries_.reserve(expectedKeys);
}

KvEngine::Entry KvEngine::makeEntry(std::uint64_t hash, std::string_view key,
                                    std::vector<char>& arena) {
  Entry entry;
  entry.hash = hash;
  entry.keyLength = static_cast<std::uint32_t>(key.size());
  if (key.size() <= kInlineKeyBytes) {
    std::copy(key.begin(), key.end(), entry.inlineKey.begin());
  } else {
    entry.keyOffset = static_cast<std::uint32_t>(arena.size());
    arena.insert(arena.end(), key.begin(), key.end());
  }
  return entry;
}

std::uint32_t KvEngine::createEntry(std::uint64_t hash, std::string_view key) {
  if (deltaOrder_.size() >= std::max(kMinFoldKeys, sealed_ / 8)) compact();
  if (entries_.size() >= kEmptySlot ||
      arena_.size() + key.size() > UINT32_MAX) {
    throw std::length_error("KvEngine: more keys than 32-bit handles address");
  }
  const auto handle = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(makeEntry(hash, key, arena_));
  // Grow at 70% load; every entry occupies one slot.
  if (index_.empty() || entries_.size() * 10 > index_.size() * 7) {
    rebuildIndex(index_.empty() ? 1024 : index_.size() * 2);
  } else {
    indexPlace(hash, handle);
  }
  return handle;
}

bool KvEngine::put(std::string_view key, StoredValue value,
                   std::uint64_t commitTs) {
  const std::uint64_t h = util::fastHash64(key);
  std::uint32_t handle = find(h, key);
  if (handle == kEmptySlot) handle = createEntry(h, key);
  Chain& chain = entries_[handle].chain;
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

bool KvEngine::erase(std::string_view key, std::uint64_t commitTs) {
  StoredValue tomb;
  tomb.tombstone = true;
  return put(key, std::move(tomb), commitTs);
}

namespace {

/// Newest version at or below `snapshotTs`; nullptr if that is a tombstone
/// or every version is newer.
const StoredValue* visibleIn(const std::vector<StoredValue>& chain,
                             std::uint64_t snapshotTs) {
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->version <= snapshotTs) {
      return rit->tombstone ? nullptr : &*rit;
    }
  }
  return nullptr;
}

/// Length of the longest common prefix of `a` and `b`, compared a word at
/// a time: sealed neighbours share most of their bytes.
std::size_t commonPrefixLength(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    if (x != y) {
      // The first differing byte holds the lowest differing bit on a
      // little-endian host, the highest on a big-endian one.
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(x ^ y)
                          : std::countl_zero(x ^ y);
      return i + static_cast<std::size_t>(bit) / 8;
    }
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

const StoredValue* KvEngine::get(std::string_view key,
                                 std::uint64_t snapshotTs) const {
  const std::uint32_t handle = find(util::fastHash64(key), key);
  if (handle == kEmptySlot) return nullptr;
  return visibleIn(entries_[handle].chain, snapshotTs);
}

std::optional<std::uint64_t> KvEngine::latestVersion(
    std::string_view key) const {
  const StoredValue* v = get(key);
  if (!v) return std::nullopt;
  return v->version;
}

std::size_t KvEngine::sealedLowerBound(std::string_view prefix,
                                       std::uint64_t prefixHash) const {
  if (!prefix.empty() && prefix.back() == kSeparator) {
    return dirLowerBound(prefix, prefixHash);
  }
  // A prefix the directory does not record: binary-search the run.
  std::size_t lo = 0;
  std::size_t hi = sealed_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (keyAt(mid) < prefix) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t KvEngine::dirLowerBound(std::string_view prefix,
                                    std::uint64_t prefixHash) const {
  if (dir_.empty()) return sealed_;
  const auto tag = static_cast<std::uint32_t>(prefixHash >> 32);
  for (std::size_t pos = static_cast<std::size_t>(prefixHash) & dirMask_;
       dir_[pos].handle != kEmptySlot; pos = (pos + 1) & dirMask_) {
    if (dir_[pos].tag != tag) continue;
    // A tag match may be another prefix's slot. The position is this
    // prefix's first key exactly when that key has the prefix and the key
    // before it does not.
    const std::size_t first = dir_[pos].handle;
    if (keyAt(first).starts_with(prefix) &&
        (first == 0 || !keyAt(first - 1).starts_with(prefix))) {
      return first;
    }
  }
  return sealed_;  // no sealed key starts with `prefix`
}

void KvEngine::rebuildDirectory() {
  // Keys with a common prefix are contiguous in the run, so the prefixes of
  // a key that are longer than its common prefix with the previous key are
  // new, and this key is the first that has them. The walk runs twice:
  // once to count and size the table, once to fill it.
  const auto forEachNewPrefix = [this](auto&& visit) {
    std::string_view previous;
    for (std::size_t first = 0; first < sealed_; ++first) {
      const std::string_view key = keyAt(first);
      const std::size_t common = commonPrefixLength(key, previous);
      for (std::size_t i = key.find(kSeparator, common);
           i != std::string_view::npos; i = key.find(kSeparator, i + 1)) {
        visit(key.substr(0, i + 1), first);
      }
      previous = key;
    }
  };
  std::size_t prefixes = 0;
  forEachNewPrefix([&](std::string_view, std::size_t) { ++prefixes; });
  std::size_t slots = 1024;
  // Keep the table under 70% load, as the point index.
  while (prefixes * 10 > slots * 7) slots *= 2;
  dir_.assign(prefixes == 0 ? 0 : slots, Slot{});
  dirMask_ = slots - 1;
  forEachNewPrefix([&](std::string_view prefix, std::size_t first) {
    const std::uint64_t hash = util::fastHash64(prefix);
    std::size_t pos = static_cast<std::size_t>(hash) & dirMask_;
    while (dir_[pos].handle != kEmptySlot) pos = (pos + 1) & dirMask_;
    dir_[pos] = Slot{static_cast<std::uint32_t>(hash >> 32),
                     static_cast<std::uint32_t>(first)};
  });
}

void KvEngine::sortDelta() const {
  const std::size_t sorted = deltaOrder_.size();
  // Sort the new arrivals by their key views (one indirection per compare
  // instead of two), then merge them into the already sorted handles.
  std::vector<std::pair<std::string_view, std::uint32_t>> arrivals;
  arrivals.reserve(entries_.size() - sealed_ - sorted);
  for (std::size_t h = sealed_ + sorted; h < entries_.size(); ++h) {
    arrivals.emplace_back(keyAt(h), static_cast<std::uint32_t>(h));
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (const auto& arrival : arrivals) deltaOrder_.push_back(arrival.second);
  const auto mid = deltaOrder_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::inplace_merge(deltaOrder_.begin(), mid, deltaOrder_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return keyAt(a) < keyAt(b);
                     });
}

std::size_t KvEngine::scanPrefix(std::string_view prefix,
                                 std::uint64_t snapshotTs, ScanFn fn) const {
  return scanPrefix(prefix, util::fastHash64(prefix), snapshotTs, fn);
}

std::size_t KvEngine::scanPrefix(std::string_view prefix,
                                 std::uint64_t prefixHash,
                                 std::uint64_t snapshotTs, ScanFn fn) const {
  if (deltaUnsorted()) sortDelta();
  // Merge-walk the sealed run and the sorted delta; each side stops at its
  // first key outside the prefix. Keys are unique across the two sides.
  std::size_t sealedPos = sealedLowerBound(prefix, prefixHash);
  auto deltaPos = std::partition_point(
      deltaOrder_.begin(), deltaOrder_.end(),
      [&](std::uint32_t h) { return keyAt(h) < prefix; });
  std::size_t visited = 0;
  while (true) {
    const bool fromSealed =
        sealedPos < sealed_ && keyAt(sealedPos).starts_with(prefix);
    const bool fromDelta = deltaPos != deltaOrder_.end() &&
                           keyAt(*deltaPos).starts_with(prefix);
    std::size_t handle = 0;
    if (fromSealed && (!fromDelta || keyAt(sealedPos) < keyAt(*deltaPos))) {
      handle = sealedPos++;
    } else if (fromDelta) {
      handle = *deltaPos++;
    } else {
      break;
    }
    const Entry& entry = entries_[handle];
    if (const StoredValue* visible = visibleIn(entry.chain, snapshotTs)) {
      ++visited;
      if (!fn(keyOf(entry), *visible)) break;
    }
  }
  return visited;
}

void KvEngine::compact() {
  if (deltaUnsorted()) sortDelta();
  if (deltaOrder_.empty()) return;
  {
    // Merge the sealed run with the sorted delta, then rewrite entries and
    // key bytes in that order so a scan reads both sequentially.
    std::vector<Entry> sorted;
    sorted.reserve(entries_.capacity());  // keeps any reserveKeys() headroom
    std::vector<char> arena;
    arena.reserve(arena_.size());
    const auto append = [&](std::size_t h) {
      Entry& entry = entries_[h];
      sorted.push_back(makeEntry(entry.hash, keyOf(entry), arena));
      sorted.back().chain = std::move(entry.chain);
    };
    std::size_t s = 0;
    auto d = deltaOrder_.begin();
    while (s < sealed_ || d != deltaOrder_.end()) {
      if (d == deltaOrder_.end() || (s < sealed_ && keyAt(s) < keyAt(*d))) {
        append(s++);
      } else {
        append(*d++);
      }
    }
    entries_.swap(sorted);
    arena_.swap(arena);
  }  // the old entries and key bytes are freed before the directory is built
  sealed_ = entries_.size();
  deltaOrder_.clear();
  rebuildDirectory();
  // Handles moved; the stored hashes rebuild the index without rehashing.
  rebuildIndex(index_.size());
}

std::size_t KvEngine::gc(std::size_t keep) {
  if (keep == 0) keep = 1;
  std::size_t reclaimed = 0;
  for (Entry& entry : entries_) {
    Chain& chain = entry.chain;
    if (chain.size() > keep) {
      reclaimed += chain.size() - keep;
      chain.erase(chain.begin(),
                  chain.begin() + static_cast<std::ptrdiff_t>(chain.size() - keep));
    }
  }
  return reclaimed;
}

}  // namespace dcache::storage
