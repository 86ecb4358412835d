// Lockstep differential between the flat sorted-run KvEngine and the
// original std::map engine kept as a test oracle (kv_engine_oracle.hpp).
// Both are driven with identical seeded streams of put (including stale
// commits), erase, get at the newest and at past snapshots, latestVersion,
// prefix scans with early stop, gc and reserveKeys; the flat engine also
// takes compact() calls interleaved with new keys, so scans straddle the
// sealed run and the delta. Every result, every scan's callback sequence
// and the keyCount/liveBytes/writeCount counters must agree at every step.
// Scans of '/'-terminated prefixes start from the sealed run's prefix
// directory, so the streams cut prefixes exactly after a '/' and include
// keys with "//" and a leading '/'; a dedicated case sweeps the separator
// edge cases before and after compact() and a put() fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "kv_engine_oracle.hpp"
#include "storage/kv_engine.hpp"
#include "util/rng.hpp"

namespace dcache::storage {
namespace {

struct Visit {
  std::string key;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  std::string payload;

  bool operator==(const Visit&) const = default;
};

void PrintTo(const Visit& v, std::ostream* os) {
  *os << v.key << "@" << v.version << " size " << v.size;
}

struct ScanResult {
  std::size_t visited = 0;
  std::vector<Visit> calls;
};

/// Scan recording every callback; the callback asks to stop after
/// `stopAfter` calls (0 = never).
template <typename Engine>
ScanResult scan(const Engine& engine, std::string_view prefix,
                std::uint64_t snapshot, std::size_t stopAfter) {
  ScanResult result;
  result.visited = engine.scanPrefix(
      prefix, snapshot, [&](std::string_view key, const StoredValue& value) {
        result.calls.push_back(
            Visit{std::string(key), value.version, value.size, value.payload});
        return stopAfter == 0 || result.calls.size() < stopAfter;
      });
  return result;
}

void expectSameValue(const StoredValue* flat, const StoredValue* map,
                     std::size_t step) {
  ASSERT_EQ(flat != nullptr, map != nullptr) << "step " << step;
  if (flat == nullptr) return;
  ASSERT_EQ(flat->version, map->version) << "step " << step;
  ASSERT_EQ(flat->size, map->size) << "step " << step;
  ASSERT_EQ(flat->payload, map->payload) << "step " << step;
  ASSERT_EQ(flat->tombstone, map->tombstone) << "step " << step;
}

void expectSameCounters(const KvEngine& flat, const oracle::KvEngine& map,
                        std::size_t step) {
  ASSERT_EQ(flat.keyCount(), map.keyCount()) << "step " << step;
  ASSERT_EQ(flat.liveBytes().count(), map.liveBytes().count())
      << "step " << step;
  ASSERT_EQ(flat.writeCount(), map.writeCount()) << "step " << step;
}

/// Catalog-shaped keys (row and secondary-index keys sharing long
/// prefixes), plus keys that are prefixes of one another, keys with "//"
/// or a leading '/', and bytes above 0x7f so byte-wise (unsigned) ordering
/// is exercised.
std::string makeKey(util::Pcg32& rng, std::uint32_t keySpace) {
  static const char* const kTables[] = {"privileges", "tables", "lineage",
                                        "t", "tab"};
  const std::uint32_t id = rng.next() % keySpace;
  const std::string table = kTables[rng.next() % 5];
  switch (rng.next() % 7) {
    case 6:
      return (id % 2 == 0 ? "/" : "t//") + table +
             std::string(id % 3, '/') + std::to_string(id % 10);
    case 0:
    case 1:
      return "t/" + table + "/r/" + std::to_string(id);
    case 2:
    case 3:
      return "t/" + table + "/i/securable_id/tbl" + std::to_string(id % 97) +
             "/" + std::to_string(id);
    case 4:
      return "t/" + table.substr(0, 1 + id % table.size());
    default: {
      std::string key = "kv/";
      key.push_back(static_cast<char>(0x70 + id % 32));  // straddles 0x80
      key += std::to_string(id % 50);
      return key;
    }
  }
}

/// A prefix to scan: half the time a cut exactly after one of a random
/// key's '/' bytes (the directory's prefixes), otherwise a random cut
/// (often mid-component, often the empty prefix's neighbours "t/" and
/// "t/tab").
std::string makePrefix(util::Pcg32& rng, std::uint32_t keySpace) {
  const std::string key = makeKey(rng, keySpace);
  if (rng.next() % 2 == 0) {
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (key[i] == '/') cuts.push_back(i + 1);
    }
    if (!cuts.empty()) return key.substr(0, cuts[rng.next() % cuts.size()]);
  }
  return key.substr(0, rng.next() % (key.size() + 1));
}

/// `compactOneIn`: an explicit compact() on about one step in that many
/// (0 = never, leaving every fold to put()).
void runDifferential(std::uint64_t seed, std::size_t steps,
                     std::uint32_t keySpace, std::uint32_t compactOneIn) {
  KvEngine flat;
  oracle::KvEngine map;
  util::Pcg32 rng(seed, 11);
  std::uint64_t ts = 0;

  for (std::size_t step = 0; step < steps; ++step) {
    switch (rng.next() % 16) {
      case 0:
      case 1:
      case 2:
      case 3: {  // put, sometimes stale, sometimes with real payload bytes
        const std::string key = makeKey(rng, keySpace);
        const std::uint64_t commitTs =
            rng.next() % 8 == 0 ? ts - std::min<std::uint64_t>(ts, rng.next() % 4)
                                : ++ts;
        StoredValue value = rng.next() % 2 == 0
                                ? StoredValue::sized(rng.next() % 500)
                                : StoredValue::of("p" + std::to_string(step));
        const StoredValue copy = value;
        ASSERT_EQ(flat.put(key, std::move(value), commitTs),
                  map.put(key, copy, commitTs))
            << "step " << step;
        break;
      }
      case 4: {
        const std::string key = makeKey(rng, keySpace);
        const std::uint64_t commitTs = rng.next() % 4 == 0 ? ts : ++ts;
        ASSERT_EQ(flat.erase(key, commitTs), map.erase(key, commitTs))
            << "step " << step;
        break;
      }
      case 5:
      case 6: {  // get at the newest version and at a past snapshot
        const std::string key = makeKey(rng, keySpace);
        expectSameValue(flat.get(key), map.get(key), step);
        const std::uint64_t snapshot = ts == 0 ? 0 : rng.next() % (ts + 1);
        expectSameValue(flat.get(key, snapshot), map.get(key, snapshot),
                        step);
        ASSERT_EQ(flat.latestVersion(key), map.latestVersion(key))
            << "step " << step;
        break;
      }
      case 7:
      case 8:
      case 9:
      case 10: {  // scan at a snapshot, with or without early stop
        const std::string prefix = makePrefix(rng, keySpace);
        const std::uint64_t snapshot =
            rng.next() % 2 == 0 ? KvEngine::kLatest : rng.next() % (ts + 1);
        const std::size_t stopAfter = rng.next() % 3 == 0 ? 1 + rng.next() % 5 : 0;
        const ScanResult a = scan(flat, prefix, snapshot, stopAfter);
        const ScanResult b = scan(map, prefix, snapshot, stopAfter);
        ASSERT_EQ(a.visited, b.visited) << "step " << step << " prefix "
                                        << prefix;
        ASSERT_EQ(a.calls, b.calls) << "step " << step << " prefix " << prefix;
        break;
      }
      case 11: {
        const std::size_t keep = rng.next() % 4;
        ASSERT_EQ(flat.gc(keep), map.gc(keep)) << "step " << step;
        break;
      }
      case 12: {  // fold the delta into the sealed run (flat engine only)
        if (compactOneIn != 0 && rng.next() % (compactOneIn / 16) == 0) {
          flat.compact();
        }
        break;
      }
      case 13: {
        if (rng.next() % 64 == 0) {
          const std::size_t expected = rng.next() % (4 * keySpace);
          flat.reserveKeys(expected);
          map.reserveKeys(expected);
        }
        break;
      }
      default: {  // full ordered scan: the whole key order at once
        if (rng.next() % 16 == 0) {
          ASSERT_EQ(scan(flat, "", KvEngine::kLatest, 0).calls,
                    scan(map, "", KvEngine::kLatest, 0).calls)
              << "step " << step;
        }
        break;
      }
    }
    expectSameCounters(flat, map, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(KvEngineDifferential, SmallKeyspaceManyVersions) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    runDifferential(seed, 10000, 64, 128);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
  }
}

TEST(KvEngineDifferential, LargeKeyspaceFoldsDeltaIntoSealedRun) {
  // Enough distinct keys that scans sort a delta past the fold stride, so
  // put() itself compacts: once with no explicit compact() at all, once
  // with rare ones in between.
  for (const auto& [seed, compactOneIn] :
       {std::pair{7ULL, 0U}, std::pair{8ULL, 4096U}}) {
    runDifferential(seed, 20000, 5000, compactOneIn);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
  }
}

TEST(KvEngineDifferential, BulkLoadCompactThenStraddlingInserts) {
  KvEngine flat;
  oracle::KvEngine map;
  std::uint64_t ts = 0;
  auto putBoth = [&](const std::string& key) {
    ++ts;
    ASSERT_EQ(flat.put(key, StoredValue::sized(ts % 97), ts),
              map.put(key, StoredValue::sized(ts % 97), ts));
  };
  // Sealed run: the even ids, spread over 40 index prefixes.
  for (int id = 0; id < 4000; id += 2) {
    putBoth("t/privileges/i/securable_id/tbl" + std::to_string(id % 40) +
            "/" + std::to_string(id));
  }
  flat.compact();
  // Delta: the odd ids interleave with sealed keys inside the same prefix.
  for (int id = 1; id < 400; id += 2) {
    putBoth("t/privileges/i/securable_id/tbl" + std::to_string(id % 40) +
            "/" + std::to_string(id));
  }
  for (int t = 0; t < 40; ++t) {
    const std::string prefix =
        "t/privileges/i/securable_id/tbl" + std::to_string(t) + "/";
    const ScanResult a = scan(flat, prefix, KvEngine::kLatest, 0);
    ASSERT_EQ(a.calls, scan(map, prefix, KvEngine::kLatest, 0).calls);
    ASSERT_FALSE(a.calls.empty());
    ASSERT_TRUE(std::is_sorted(
        a.calls.begin(), a.calls.end(),
        [](const Visit& x, const Visit& y) { return x.key < y.key; }));
  }
  // A tombstoned sealed key and a past snapshot across both sides.
  ++ts;
  ASSERT_EQ(flat.erase("t/privileges/i/securable_id/tbl0/0", ts),
            map.erase("t/privileges/i/securable_id/tbl0/0", ts));
  for (const std::uint64_t snapshot : {ts, ts - 1, ts / 2, std::uint64_t{1}}) {
    ASSERT_EQ(scan(flat, "t/privileges/", snapshot, 0).calls,
              scan(map, "t/privileges/", snapshot, 0).calls)
        << "snapshot " << snapshot;
  }
  expectSameCounters(flat, map, 0);
}

/// Keys at the separator edge cases: "//", a leading '/', whole keys ending
/// in '/', keys that are '/'-prefixes of other keys, neighbours that share
/// all but the last component, and bytes above 0x7f.
const std::vector<std::string>& separatorKeys() {
  static const std::vector<std::string> keys = {
      "/", "//", "///", "/a", "/a/", "/a/b", "//a/", "//a//b",
      "a/", "a//", "a//b", "a/b", "a/b/", "a/b//", "a/b/c", "a/b/c/",
      "a/b/c//d", "a/b0", "a/bc/", "a/bc/d", "ab/", "ab/c",
      "t/tab/", "t/tab/r/1", "t/tab//r/2", "t/tables/r/1", "t/tables/r/12",
      "t/privileges/i/securable_id/tbl1/", "t/privileges/i/securable_id/tbl1/7",
      "t/privileges/i/securable_id/tbl10/3", "t/privileges/i/securable_id/tbl2",
      "x\x7f/", "x\x80/", "x\x80/y", "x\xff//"};
  return keys;
}

/// Every prefix of every separator key cut exactly after a '/', every
/// whole key, '/'-terminated prefixes that no key has, and a few that do
/// not end in '/'.
std::vector<std::string> separatorPrefixes() {
  std::vector<std::string> prefixes = {
      "", "b/", "a/c/", "a/b/c/d/", "a/b/c///", "a///", "////", "/b/",
      "t/tab/x/", "t/tables/r/1/", "t/privileges/i/securable_id/tbl3/",
      "t/privileges/i/securable_id/tbl1//", "x\x80//", "\xff/", "0/",
      "a", "a/b", "t/t", "/a/b/c", "x\x80"};
  for (const std::string& key : separatorKeys()) {
    prefixes.push_back(key);
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (key[i] == '/') prefixes.push_back(key.substr(0, i + 1));
    }
  }
  return prefixes;
}

TEST(KvEngineDifferential, SeparatorPrefixesAcrossCompactAndFold) {
  KvEngine flat;
  oracle::KvEngine map;
  std::uint64_t ts = 0;
  auto putBoth = [&](const std::string& key) {
    ++ts;
    ASSERT_EQ(flat.put(key, StoredValue::sized(ts % 89), ts),
              map.put(key, StoredValue::sized(ts % 89), ts));
  };
  auto expectSameScans = [&](const char* phase) {
    for (const std::string& prefix : separatorPrefixes()) {
      for (const std::size_t stopAfter : {std::size_t{0}, std::size_t{1}}) {
        const ScanResult a = scan(flat, prefix, KvEngine::kLatest, stopAfter);
        const ScanResult b = scan(map, prefix, KvEngine::kLatest, stopAfter);
        ASSERT_EQ(a.visited, b.visited) << phase << " prefix " << prefix;
        ASSERT_EQ(a.calls, b.calls) << phase << " prefix " << prefix;
      }
    }
  };
  const std::vector<std::string>& keys = separatorKeys();
  // Half the keys, never compacted: every scan walks the delta.
  for (std::size_t i = 0; i < keys.size(); i += 2) putBoth(keys[i]);
  expectSameScans("delta only");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  flat.compact();
  expectSameScans("after compact");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // The other half lands in the delta, between and around sealed keys.
  for (std::size_t i = 1; i < keys.size(); i += 2) putBoth(keys[i]);
  expectSameScans("sealed and delta");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  flat.compact();
  expectSameScans("all sealed");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // Grow a sorted delta past the fold stride, then one more new key makes
  // put() fold it into the sealed run. The filler keys add prefixes the
  // directory must pick up ("a/b/<n>/...") in front of sealed ones.
  for (int n = 0; n < 1100; ++n) {
    putBoth("a/b/" + std::to_string(n) + (n % 3 == 0 ? "/" : "/x"));
  }
  expectSameScans("before fold");  // sorts the delta
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  putBoth("a/b/c/");  // an existing key: a new version, no fold
  putBoth("a/a/");    // a new key: folds the delta
  ++ts;
  ASSERT_EQ(flat.erase("a/b/", ts), map.erase("a/b/", ts));
  expectSameScans("after fold");
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  expectSameCounters(flat, map, 0);
}

}  // namespace
}  // namespace dcache::storage
