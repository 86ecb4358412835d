// Heap-allocation counts on the steady-state read path. This executable
// replaces the global operator new/delete with counting versions, so it
// must stay its own test binary: after populate and warmup, a KV-path
// storage read statement and a Linked read hit through Deployment::serve
// must not allocate at all, and neither may an engine prefix scan after
// populate and compact. Writes are out of scope: MVCC version chains grow
// by amortized appends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void* countedAlloc(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dcache {
namespace {

constexpr std::uint64_t kResidentKeys = 1000;
constexpr std::size_t kMeasuredOps = 5000;

TEST(ServeAlloc, CountingOperatorNewSeesAllocations) {
  // Guard against a build where the replacement is not linked in: then
  // every zero below would be vacuous.
  const std::size_t before = gAllocations.load();
  void* volatile sink = ::operator new(64);  // volatile: not elided
  ::operator delete(sink);
  EXPECT_EQ(gAllocations.load() - before, 1u);
}

TEST(ServeAlloc, KvReadValueOnResidentKeysAllocatesNothing) {
  sim::NetworkModel network;
  sim::Tier sqlTier("sql", sim::TierKind::kSqlFrontend, 3);
  sim::Tier kvTier("kv", sim::TierKind::kKvStorage, 3);
  sim::Node client("client", sim::TierKind::kClient);
  rpc::Channel channel(network, rpc::SerializationModel{});
  storage::Database db(sqlTier, kvTier, channel);
  std::vector<std::string> keys;
  for (std::uint64_t k = 0; k < kResidentKeys; ++k) {
    keys.push_back(workload::keyName(k));
    db.loadValue(keys.back(), 4096);
  }
  for (const std::string& key : keys) {
    ASSERT_TRUE(db.readValue(client, key).found);  // warm the block caches
  }

  std::size_t found = 0;
  const std::size_t before = gAllocations.load();
  for (std::size_t i = 0; i < kMeasuredOps; ++i) {
    found += db.readValue(client, keys[(i * 37) % keys.size()]).found;
  }
  const std::size_t allocations = gAllocations.load() - before;
  EXPECT_EQ(found, kMeasuredOps);
  EXPECT_EQ(allocations, 0u);
}

TEST(ServeAlloc, EngineScanAllocatesNothing) {
  sim::Tier sqlTier("sql", sim::TierKind::kSqlFrontend, 3);
  sim::Tier kvTier("kv", sim::TierKind::kKvStorage, 3);
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});
  storage::Database db(sqlTier, kvTier, channel);
  db.createTable(storage::TableSchema(
      "privileges",
      {storage::Column{"id", storage::ColumnType::kInt},
       storage::Column{"securable_id", storage::ColumnType::kString}},
      0, {1}));
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(kResidentKeys);
       ++id) {
    db.loadRow("privileges",
               storage::Row{{id, "tbl" + std::to_string(id % 100)}});
  }
  db.compact();
  const std::string present =
      storage::Database::indexPrefix("privileges", "securable_id", "tbl7");
  const std::string absent =
      storage::Database::indexPrefix("privileges", "securable_id", "tbl700");

  std::size_t rows = 0;
  const std::size_t before = gAllocations.load();
  for (std::size_t i = 0; i < kMeasuredOps; ++i) {
    storage::ExecTrace trace;
    db.engineScanPrefix(i % 2 == 0 ? present : absent, trace,
                        [&rows](std::string_view, const storage::StoredValue&) {
                          ++rows;
                          return true;
                        });
  }
  const std::size_t allocations = gAllocations.load() - before;
  EXPECT_EQ(rows, kMeasuredOps / 2 * (kResidentKeys / 100));
  EXPECT_EQ(allocations, 0u);
}

TEST(ServeAlloc, LinkedReadHitsThroughServeAllocateNothing) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  config.appCachePerNode = util::Bytes::mb(64);
  config.blockCachePerNode = util::Bytes::mb(64);
  core::Deployment deployment(config);
  workload::SyntheticConfig wl;
  wl.numKeys = kResidentKeys;
  wl.valueSize = 1024;
  const workload::SyntheticWorkload workload(wl);
  deployment.populateKv(workload);

  auto read = [](std::uint64_t k) {
    workload::Op op;
    op.type = workload::OpType::kRead;
    op.keyIndex = k;
    op.valueSize = 1024;
    return op;
  };
  // Two passes: the first misses and fills, the second hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t k = 0; k < kResidentKeys; ++k) {
      deployment.serve(read(k));
    }
  }

  const std::uint64_t hitsBefore = deployment.counters().cacheHits;
  const std::size_t before = gAllocations.load();
  for (std::size_t i = 0; i < kMeasuredOps; ++i) {
    deployment.serve(read((i * 37) % kResidentKeys));
  }
  const std::size_t allocations = gAllocations.load() - before;
  EXPECT_EQ(deployment.counters().cacheHits - hitsBefore, kMeasuredOps);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace dcache
