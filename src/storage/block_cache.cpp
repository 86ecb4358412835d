#include "storage/block_cache.hpp"

#include <algorithm>

namespace dcache::storage {

BlockCache::BlockCache(util::Bytes capacity)
    : capacity_(capacity),
      table_(kInitialTableSlots),
      mask_(kInitialTableSlots - 1) {}

bool BlockCache::touchRead(std::uint64_t keyHash, std::uint64_t rowBytes) {
  const std::uint64_t block = blockOf(keyHash);
  bool found = false;
  const std::size_t pos = probe(block, found);
  if (found) {
    flags_[table_[pos].index] |= kReferencedBit;
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  const std::uint64_t size = blockSizeFor(rowBytes);
  if (chargeFor(size) <= capacity_.count()) insertAt(pos, block, size);
  return false;
}

void BlockCache::touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes) {
  const std::uint64_t size = blockSizeFor(rowBytes);
  const std::uint64_t need = chargeFor(size);
  if (need > capacity_.count()) return;  // cannot ever fit; not admitted
  const std::uint64_t block = blockOf(keyHash);
  bool found = false;
  const std::size_t pos = probe(block, found);
  if (!found) {
    insertAt(pos, block, size);
    return;
  }
  const std::uint32_t index = table_[pos].index;
  used_ = used_ - chargeFor(sizes_[index]) + need;
  sizes_[index] = size;
  flags_[index] |= kReferencedBit;
  ++stats_.overwrites;
  while (used_ > capacity_.count()) evictOne();
}

void BlockCache::invalidate(std::uint64_t keyHash) {
  bool found = false;
  const std::size_t pos = probe(blockOf(keyHash), found);
  if (!found) return;
  const std::uint32_t index = table_[pos].index;
  used_ -= chargeFor(sizes_[index]);
  remove(pos, index);
}

void BlockCache::clear() {
  std::fill(table_.begin(), table_.end(), Slot{});
  blocks_.clear();
  sizes_.clear();
  flags_.clear();
  free_.clear();
  hand_ = 0;
  used_ = 0;
  count_ = 0;
}

std::size_t BlockCache::probe(std::uint64_t block, bool& found) const noexcept {
  std::size_t pos = homeOf(block);
  while (table_[pos].index != kNil) {
    if (table_[pos].block == block) {
      found = true;
      return pos;
    }
    pos = (pos + 1) & mask_;
  }
  found = false;
  return pos;
}

void BlockCache::insertAt(std::size_t pos, std::uint64_t block,
                          std::uint64_t size) {
  if (maybeGrow()) {
    bool found = false;
    pos = probe(block, found);  // the table moved: re-derive the slot
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    blocks_[index] = block;
    sizes_[index] = size;
    flags_[index] = kOccupiedBit | kReferencedBit;
  } else {
    index = static_cast<std::uint32_t>(blocks_.size());
    // dcache-lint: allow(hot-path-alloc, bump past the high-water mark only; geometric vector growth, then free-list reuse)
    blocks_.push_back(block);
    // dcache-lint: allow(hot-path-alloc, sizes_ and flags_ grow in lockstep with blocks_, same amortization)
    sizes_.push_back(size);
    flags_.push_back(kOccupiedBit | kReferencedBit);  // dcache-lint: allow(hot-path-alloc, lockstep with blocks_)
  }
  table_[pos] = Slot{block, index};
  ++count_;
  used_ += chargeFor(size);
  ++stats_.insertions;
  while (used_ > capacity_.count()) evictOne();
}

bool BlockCache::maybeGrow() {
  if ((count_ + 1) * 10 <= table_.size() * 7) return false;
  std::vector<Slot> old = std::move(table_);
  // dcache-lint: allow(hot-path-alloc, table doubling at 70% load is amortized O(1) per insert)
  table_.assign(old.size() * 2, Slot{});
  mask_ = table_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index == kNil) continue;
    std::size_t pos = homeOf(slot.block);
    while (table_[pos].index != kNil) pos = (pos + 1) & mask_;
    table_[pos] = slot;
  }
  return true;
}

void BlockCache::eraseSlot(std::size_t pos) noexcept {
  table_[pos] = Slot{};
  std::size_t hole = pos;
  std::size_t i = pos;
  for (;;) {
    i = (i + 1) & mask_;
    if (table_[i].index == kNil) return;
    const std::size_t ideal = homeOf(table_[i].block);
    // Move the occupant into the hole iff its home is outside (hole, i].
    if (((i - ideal) & mask_) >= ((i - hole) & mask_)) {
      table_[hole] = table_[i];
      table_[i] = Slot{};
      hole = i;
    }
  }
}

void BlockCache::remove(std::size_t pos, std::uint32_t index) {
  flags_[index] = 0;
  eraseSlot(pos);
  // dcache-lint: allow(hot-path-alloc, free-list growth is bounded by the index high-water mark, then pure reuse)
  free_.push_back(index);
  --count_;
}

void BlockCache::evictOne() {
  cache::cacheInvariant(count_ > 0, "block-cache",
                        "evictOne with no resident blocks: accounted bytes "
                        "drifted from the block set");
  for (;;) {
    hand_ = (hand_ + 1) % blocks_.size();
    const auto index = static_cast<std::uint32_t>(hand_);
    const std::uint8_t flags = flags_[index];
    if (!(flags & kOccupiedBit)) continue;
    if (flags & kReferencedBit) {
      flags_[index] = kOccupiedBit;  // second chance
      continue;
    }
    bool found = false;
    const std::size_t pos = probe(blocks_[index], found);
    used_ -= chargeFor(sizes_[index]);
    remove(pos, index);
    ++stats_.evictions;
    return;
  }
}

}  // namespace dcache::storage
