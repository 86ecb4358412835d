// Heap-allocation counts on the steady-state read path. This executable
// replaces the global operator new/delete with counting versions, so it
// must stay its own test binary: after populate and warmup, a KV-path
// storage read statement and a Linked read hit through Deployment::serve
// must not allocate at all, and neither may an engine prefix scan after
// populate and compact, or a block-cache read or write of a resident
// block. On the rich-object path, a Base getTable through
// Deployment::serveObject allocates nothing, and neither does a cache hit
// or a miss that assembles and fills on the four cache architectures.
// Writes are out of scope: MVCC version chains grow by amortized appends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/block_cache.hpp"
#include "storage/database.hpp"
#include "workload/synthetic.hpp"
#include "workload/uc_trace.hpp"
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

TEST(ServeAlloc, BlockCacheTouchesAllocateNothing) {
  storage::BlockCache cache(util::Bytes::gb(1));
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t k = 0; k < kResidentKeys; ++k) {
    hashes.push_back(util::hashKey(workload::keyName(k)));
    cache.touchRead(hashes.back(), 4096);  // warm: load every block
  }

  std::size_t hits = 0;
  const std::size_t before = gAllocations.load();
  for (std::size_t i = 0; i < kMeasuredOps; ++i) {
    const std::uint64_t hash = hashes[(i * 37) % hashes.size()];
    hits += cache.touchRead(hash, 4096);
    cache.touchWrite(hash, i % 2 == 0 ? 4096 : 6000);
  }
  const std::size_t allocations = gAllocations.load() - before;
  EXPECT_EQ(hits, kMeasuredOps);
  EXPECT_EQ(cache.stats().evictions, 0u);
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

/// A populated catalog deployment, warmed by reading every table four
/// times: the first pass misses and fills, and the later ones reach every
/// app server (Disaggregated spreads reads round-robin over three, so each
/// fills its hot cache). The passes grow the reused buffers to their
/// working size.
class CatalogReads {
 public:
  static constexpr std::uint64_t kTables = 1000;

  CatalogReads() : trace_(traceConfig()) {}

  std::unique_ptr<core::Deployment> warmed(
      core::Architecture architecture) const {
    core::DeploymentConfig config;
    config.architecture = architecture;
    // Writes invalidate on every architecture, so a test can empty the
    // caches with them.
    config.writeThroughCache = false;
    auto deployment = std::make_unique<core::Deployment>(config);
    deployment->populateCatalog(trace_);
    for (int pass = 0; pass < 4; ++pass) serveReads(*deployment, kTables);
    return deployment;
  }

  workload::Op op(workload::OpType type, std::uint64_t table) const {
    workload::Op op;
    op.type = type;
    op.keyIndex = table;
    op.valueSize = trace_.valueSizeFor(table);
    return op;
  }

  /// Serve `ops` reads over every table in a scattered order; returns the
  /// allocations they made.
  std::size_t serveReads(core::Deployment& deployment, std::size_t ops) const {
    const std::size_t before = gAllocations.load();
    for (std::size_t i = 0; i < ops; ++i) {
      deployment.serveObject(
          op(workload::OpType::kObjectRead, (i * 37) % kTables));
    }
    return gAllocations.load() - before;
  }

 private:
  static workload::UcTraceConfig traceConfig() {
    workload::UcTraceConfig config;
    config.numTables = kTables;
    return config;
  }

  workload::UcTraceWorkload trace_;
};

TEST(ServeAlloc, ObjectReadBaseAllocatesNothing) {
  // Base has no cache: every read is a whole getTable of up to 8 SQL
  // statements, assembled into the assembler's reused object.
  const CatalogReads reads;
  const auto deployment = reads.warmed(core::Architecture::kBase);
  const std::uint64_t statementsBefore =
      deployment->counters().statementsIssued;
  EXPECT_EQ(reads.serveReads(*deployment, kMeasuredOps), 0u);
  EXPECT_GE(deployment->counters().statementsIssued - statementsBefore,
            kMeasuredOps);
}

class ObjectServeCached : public ::testing::TestWithParam<core::Architecture> {
 protected:
  CatalogReads reads_;
};

TEST_P(ObjectServeCached, ReadHitsAllocateNothing) {
  const auto deployment = reads_.warmed(GetParam());
  const std::uint64_t hitsBefore = deployment->counters().cacheHits;
  EXPECT_EQ(reads_.serveReads(*deployment, kMeasuredOps), 0u);
  EXPECT_EQ(deployment->counters().cacheHits - hitsBefore, kMeasuredOps);
}

TEST_P(ObjectServeCached, ReadMissesThatAssembleAndFillAllocateNothing) {
  // Writing every table (unmeasured: writes allocate) drops it from the
  // caches, so each measured read misses, assembles through SQL and fills
  // the slot the write emptied.
  const auto deployment = reads_.warmed(GetParam());
  for (std::uint64_t t = 0; t < CatalogReads::kTables; ++t) {
    deployment->serveObject(reads_.op(workload::OpType::kWrite, t));
  }
  const std::uint64_t missesBefore = deployment->counters().cacheMisses;
  EXPECT_EQ(reads_.serveReads(*deployment, CatalogReads::kTables), 0u);
  EXPECT_EQ(deployment->counters().cacheMisses - missesBefore,
            CatalogReads::kTables);
}

INSTANTIATE_TEST_SUITE_P(
    CacheArchitectures, ObjectServeCached,
    ::testing::Values(core::Architecture::kRemote, core::Architecture::kLinked,
                      core::Architecture::kLinkedVersion,
                      core::Architecture::kDisaggregated),
    [](const ::testing::TestParamInfo<core::Architecture>& info) {
      switch (info.param) {
        case core::Architecture::kRemote: return std::string("Remote");
        case core::Architecture::kLinked: return std::string("Linked");
        case core::Architecture::kLinkedVersion:
          return std::string("LinkedVersion");
        case core::Architecture::kDisaggregated:
          return std::string("Disaggregated");
        default: return std::string("Other");
      }
    });

}  // namespace
}  // namespace dcache
