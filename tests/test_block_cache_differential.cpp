// Lockstep differential between storage::BlockCache (a CLOCK table keyed by
// the block number `keyHash >> 4`) and the cache it replaced, kept here as
// the oracle: a cache::FlatCache in kClock mode keyed by the 17-byte string
// id "b" + 16 hex digits of the block number, with each block stored as a
// CacheEntry of blockSizeFor(rowBytes) bytes. Both take identical seeded
// streams of touchRead, touchWrite, invalidate and clear, with row sizes on
// both sides of kBlockBytes (and some larger than the whole cache), key
// hashes that share a block, and capacities from below one block (nothing
// is admitted) through 1-3 blocks to thousands of blocks. After every step
// the return value, all five CacheStats counters and bytesUsed() must agree.
// Equal hit/miss sequences under eviction pressure mean equal victims.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/flat_cache.hpp"
#include "storage/block_cache.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dcache::storage {
namespace {

/// The block cache's former string id for a key hash.
std::string oracleId(std::uint64_t keyHash) {
  std::uint64_t block = keyHash >> 4;
  char buf[17];
  buf[0] = 'b';
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 16; i > 0; --i) {
    buf[i] = kHex[block & 0xF];
    block >>= 4;
  }
  return std::string(buf, sizeof buf);
}

/// The block cache as it was: FlatCache(kClock) over the string ids.
class OracleBlockCache {
 public:
  explicit OracleBlockCache(util::Bytes capacity)
      : cache_(cache::FlatMode::kClock, capacity) {}

  bool touchRead(std::uint64_t keyHash, std::uint64_t rowBytes) {
    const std::string id = oracleId(keyHash);
    if (cache_.get(id) != nullptr) return true;
    cache_.put(id, cache::CacheEntry::sized(BlockCache::blockSizeFor(rowBytes)));
    return false;
  }
  void touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes) {
    cache_.put(oracleId(keyHash),
               cache::CacheEntry::sized(BlockCache::blockSizeFor(rowBytes)));
  }
  void invalidate(std::uint64_t keyHash) { cache_.erase(oracleId(keyHash)); }
  void clear() { cache_.clear(); }

  [[nodiscard]] const cache::CacheStats& stats() const { return cache_.stats(); }
  [[nodiscard]] util::Bytes bytesUsed() const { return cache_.bytesUsed(); }

 private:
  cache::FlatCache cache_;
};

/// Bytes one block of `blockBytes` is charged.
constexpr std::uint64_t chargeOf(std::uint64_t blockBytes) {
  return blockBytes + 17 + cache::kEntryOverheadBytes;
}

struct StreamConfig {
  std::uint64_t capacityBytes = 0;
  std::uint32_t universe = 0;  // distinct blocks the stream draws from
  std::uint32_t hotSet = 0;    // half of all draws come from the first hotSet
  std::size_t steps = 0;
  std::uint32_t clearOneIn = 500;  // a clear() replaces one op in this many
};

/// Key hashes of block `i` of the universe: 16 hashes share it. Every
/// eighth block is the numeric neighbour of the one before, so adjacent
/// block numbers are exercised too.
std::uint64_t blockBase(std::uint32_t i, std::uint64_t salt) {
  const std::uint64_t root = i % 8 == 7 ? i - 1 : i;
  const std::uint64_t base = util::mix64(root ^ salt) & ~std::uint64_t{15};
  return i % 8 == 7 ? base + 16 : base;
}

std::uint64_t drawRowBytes(util::Pcg32& rng, std::uint64_t capacityBytes) {
  const std::uint32_t pick = rng.nextBounded(100);
  if (pick < 70) return 1 + rng.nextBounded(BlockCache::kBlockBytes);
  if (pick < 95) {
    return BlockCache::kBlockBytes + 1 +
           rng.nextBounded(2 * BlockCache::kBlockBytes);
  }
  if (pick < 98) return BlockCache::kBlockBytes;  // exactly one block
  return capacityBytes + 1;  // larger than the whole cache: never admitted
}

/// Runs one seeded stream through both caches, asserting agreement after
/// every step, and adds the final stats to `totals`.
void runLockstep(const StreamConfig& config, std::uint64_t seed,
                 cache::CacheStats& totals) {
  SCOPED_TRACE("capacity " + std::to_string(config.capacityBytes) +
               " universe " + std::to_string(config.universe) + " seed " +
               std::to_string(seed));
  util::Pcg32 rng(seed, 17);
  BlockCache subject(util::Bytes::of(config.capacityBytes));
  OracleBlockCache oracle(util::Bytes::of(config.capacityBytes));
  const std::uint64_t salt = util::mix64(seed);

  for (std::size_t step = 0; step < config.steps; ++step) {
    const std::uint32_t block = rng.nextBounded(2) == 0
                                    ? rng.nextBounded(config.hotSet)
                                    : rng.nextBounded(config.universe);
    const std::uint64_t keyHash = blockBase(block, salt) | rng.nextBounded(16);
    const std::uint64_t rowBytes = drawRowBytes(rng, config.capacityBytes);
    const std::uint32_t op = rng.nextBounded(100);
    if (rng.nextBounded(config.clearOneIn) == 0) {
      subject.clear();
      oracle.clear();
    } else if (op < 60) {
      const bool hit = subject.touchRead(keyHash, rowBytes);
      ASSERT_EQ(hit, oracle.touchRead(keyHash, rowBytes)) << "step " << step;
    } else if (op < 85) {
      subject.touchWrite(keyHash, rowBytes);
      oracle.touchWrite(keyHash, rowBytes);
    } else {
      subject.invalidate(keyHash);
      oracle.invalidate(keyHash);
    }
    const cache::CacheStats& got = subject.stats();
    const cache::CacheStats& want = oracle.stats();
    ASSERT_EQ(got.hits, want.hits) << "step " << step;
    ASSERT_EQ(got.misses, want.misses) << "step " << step;
    ASSERT_EQ(got.insertions, want.insertions) << "step " << step;
    ASSERT_EQ(got.overwrites, want.overwrites) << "step " << step;
    ASSERT_EQ(got.evictions, want.evictions) << "step " << step;
    ASSERT_EQ(subject.bytesUsed().count(), oracle.bytesUsed().count())
        << "step " << step;
    ASSERT_LE(subject.bytesUsed().count(), config.capacityBytes)
        << "step " << step;
  }
  const cache::CacheStats& final = subject.stats();
  totals.hits += final.hits;
  totals.misses += final.misses;
  totals.insertions += final.insertions;
  totals.overwrites += final.overwrites;
  totals.evictions += final.evictions;
}

TEST(BlockCacheDifferential, OracleIdIsTheFormerStringId) {
  EXPECT_EQ(oracleId(0x0123456789abcdefULL), "b00123456789abcde");
  EXPECT_EQ(oracleId(~std::uint64_t{0}), "b0fffffffffffffff");
  EXPECT_EQ(oracleId(0xF), "b0000000000000000");
}

TEST(BlockCacheDifferential, BelowOneBlockAdmitsNothing) {
  const StreamConfig config{chargeOf(BlockCache::kBlockBytes) - 1, 64, 8, 5000};
  cache::CacheStats totals;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    runLockstep(config, seed, totals);
  }
  EXPECT_EQ(totals.hits + totals.insertions + totals.overwrites, 0u);
  EXPECT_GT(totals.misses, 0u);
  BlockCache cache(util::Bytes::of(config.capacityBytes));
  for (std::uint64_t h = 0; h < 64 * 16; h += 7) {
    EXPECT_FALSE(cache.touchRead(h, 1));
    cache.touchWrite(h, 1);
  }
  EXPECT_EQ(cache.bytesUsed().count(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().overwrites, 0u);
}

TEST(BlockCacheDifferential, OneToThreeBlocks) {
  cache::CacheStats totals;
  for (std::uint64_t blocks = 1; blocks <= 3; ++blocks) {
    for (const std::uint64_t slack : {std::uint64_t{0}, std::uint64_t{2500}}) {
      const StreamConfig config{blocks * chargeOf(BlockCache::kBlockBytes) + slack,
                                24, 4, 20000};
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        runLockstep(config, seed * 31 + blocks, totals);
      }
    }
  }
  EXPECT_GT(totals.hits, 0u);
  EXPECT_GT(totals.overwrites, 0u);
  EXPECT_GT(totals.evictions, 0u);
}

TEST(BlockCacheDifferential, ThousandsOfBlocks) {
  const std::uint64_t capacity = 3000 * chargeOf(BlockCache::kBlockBytes);
  cache::CacheStats totals;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    runLockstep(StreamConfig{capacity, 9000, 2500, 120000, 50000}, seed,
                totals);
  }
  EXPECT_GT(totals.hits, totals.misses / 4);
  EXPECT_GT(totals.evictions, 10000u);
}

TEST(BlockCacheDifferential, ResidentSetLargerThanStream) {
  // No pressure: the table grows through several doublings while nothing is
  // evicted, and invalidations punch holes the free list refills.
  const std::uint64_t capacity = 40000 * chargeOf(3 * BlockCache::kBlockBytes);
  cache::CacheStats totals;
  runLockstep(StreamConfig{capacity, 20000, 20000, 60000, 30000}, 5, totals);
  EXPECT_GT(totals.hits, 0u);
  EXPECT_EQ(totals.evictions, 0u);
}

}  // namespace
}  // namespace dcache::storage
