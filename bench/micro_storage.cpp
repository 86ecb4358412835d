// dcache-lint: allow-file(bench-hygiene, Google-Benchmark microbench — stdout carries wall-clock timings and can never be byte-deterministic, so it is excluded from the determinism diff and golden gates)
// Micro-benchmarks for the storage engine: SQL parse/plan, end-to-end
// statement execution (including the plan-cache hit path), block-cache
// touches, raw KV engine point gets and prefix scans (present and absent),
// the row codec, and the rich-object assembly those statements serve
// (getTable on Base). The parse/plan numbers here are the *host* cost of
// our mini engine; the simulated TiDB front-end charges the calibrated
// constants documented in core/calibration.hpp instead.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "richobject/assembler.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/block_cache.hpp"
#include "storage/database.hpp"
#include "storage/kv_engine.hpp"
#include "storage/sql_parser.hpp"
#include "util/hash.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dcache;
using storage::Column;
using storage::ColumnType;
using storage::Row;
using storage::TableSchema;
using storage::Value;

void BM_SqlParsePointSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed =
        storage::parseSql("SELECT * FROM tables WHERE id = ? AND owner = ?");
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SqlParsePointSelect);

void BM_SqlParseJoin(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed = storage::parseSql(
        "SELECT name, title FROM tables JOIN schemas ON tables.schema_id = "
        "schemas.id WHERE id = ? LIMIT 10");
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SqlParseJoin);

struct DbFixture {
  DbFixture()
      : sqlTier("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier("kv", sim::TierKind::kKvStorage, 3),
        client("client", sim::TierKind::kClient),
        channel(network, rpc::SerializationModel{}),
        db(sqlTier, kvTier, channel) {
    db.createTable(TableSchema("users",
                               {Column{"id", ColumnType::kInt},
                                Column{"team", ColumnType::kInt},
                                Column{"name", ColumnType::kString}},
                               0, {1}));
    for (std::int64_t i = 0; i < 10000; ++i) {
      db.loadRow("users", Row{{i, i % 100, "user_" + std::to_string(i)}});
    }
  }
  sim::NetworkModel network;
  sim::Tier sqlTier;
  sim::Tier kvTier;
  sim::Node client;
  rpc::Channel channel;
  storage::Database db;
};

void BM_ExecPointSelect(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t id = 0;
  for (auto _ : state) {
    const Value params[] = {Value{id}};
    auto result =
        fixture.db.exec(fixture.client, "SELECT * FROM users WHERE id = ?",
                        params);
    benchmark::DoNotOptimize(result.rows.data());
    id = (id + 37) % 10000;
  }
}
BENCHMARK(BM_ExecPointSelect);

void BM_ExecIndexSelect(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t team = 0;
  for (auto _ : state) {
    const Value params[] = {Value{team}};
    auto result = fixture.db.exec(
        fixture.client, "SELECT * FROM users WHERE team = ?", params);
    benchmark::DoNotOptimize(result.rows.data());
    team = (team + 1) % 100;
  }
}
BENCHMARK(BM_ExecIndexSelect);

void BM_ExecUpdate(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t id = 0;
  for (auto _ : state) {
    const Value params[] = {Value{std::string("renamed")}, Value{id}};
    auto result = fixture.db.exec(
        fixture.client, "UPDATE users SET name = ? WHERE id = ?", params);
    benchmark::DoNotOptimize(result.rowsAffected);
    id = (id + 101) % 10000;
  }
}
BENCHMARK(BM_ExecUpdate);

/// The same few statement texts over and over, as the rich-object path
/// issues them: every call after the first reuses the cached plan.
void BM_ExecRepeatedSelect(benchmark::State& state) {
  DbFixture fixture;
  static constexpr std::string_view kStatements[] = {
      "SELECT * FROM users WHERE id = ?", "SELECT name FROM users WHERE id = ?",
      "SELECT id, team FROM users WHERE id = ? LIMIT 1"};
  std::int64_t n = 0;
  for (auto _ : state) {
    const Value params[] = {Value{(n * 37) % 10000}};
    auto result = fixture.db.exec(
        fixture.client, kStatements[static_cast<std::size_t>(n) % 3], params);
    benchmark::DoNotOptimize(result.rows.data());
    ++n;
  }
}
BENCHMARK(BM_ExecRepeatedSelect);

void BM_KvReadValue(benchmark::State& state) {
  DbFixture fixture;
  for (int i = 0; i < 10000; ++i) {
    fixture.db.loadValue(workload::keyName(static_cast<std::uint64_t>(i)),
                         4096);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    auto result = fixture.db.readValue(fixture.client, workload::keyName(k));
    benchmark::DoNotOptimize(result.found);
    k = (k + 37) % 10000;
  }
}
BENCHMARK(BM_KvReadValue);

/// The KV write statement on resident keys: storage key, engine append,
/// Raft replication, block-cache refresh and the statement's RPCs. GC runs
/// outside the timed region every 4096 writes so version chains (and host
/// memory) stay bounded however long the benchmark runs.
void BM_KvWriteValue(benchmark::State& state) {
  DbFixture fixture;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    keys.push_back(workload::keyName(i));
    fixture.db.loadValue(keys.back(), 4096);
  }
  std::size_t k = 0;
  std::size_t writes = 0;
  for (auto _ : state) {
    auto result = fixture.db.writeValue(fixture.client, keys[k], 4096);
    benchmark::DoNotOptimize(result.version);
    k = (k + 37) % keys.size();
    if (++writes % 4096 == 0) {
      state.PauseTiming();
      fixture.db.runGc(2);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_KvWriteValue);

/// Block-cache probes over a resident set larger than the LLC: 500K blocks,
/// the size of the Meta keyspace. Key hashes are util::mix64 of a counter,
/// and a prime stride walks them in scattered order.
constexpr std::uint64_t kResidentBlocks = 500000;

std::uint64_t residentBlockHash(std::uint64_t i) { return util::mix64(i + 1); }

void warmBlockCache(storage::BlockCache& cache) {
  for (std::uint64_t i = 0; i < kResidentBlocks; ++i) {
    cache.touchRead(residentBlockHash(i), 4096);
  }
}

/// A read of a resident block: every touch hits.
void BM_BlockCacheTouchRead(benchmark::State& state) {
  storage::BlockCache cache(util::Bytes::gb(4));
  warmBlockCache(cache);
  std::uint64_t k = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += cache.touchRead(residentBlockHash(k), 4096);
    k = (k + 7919) % kResidentBlocks;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_BlockCacheTouchRead);

/// A write to a resident block: every touch overwrites in place.
void BM_BlockCacheTouchWrite(benchmark::State& state) {
  storage::BlockCache cache(util::Bytes::gb(4));
  warmBlockCache(cache);
  std::uint64_t k = 0;
  for (auto _ : state) {
    cache.touchWrite(residentBlockHash(k), 4096);
    k = (k + 7919) % kResidentBlocks;
  }
  benchmark::DoNotOptimize(cache.stats().overwrites);
}
BENCHMARK(BM_BlockCacheTouchWrite);

void BM_KvEngineRawGet(benchmark::State& state) {
  storage::KvEngine engine;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    engine.put(workload::keyName(i), storage::StoredValue::sized(100), i + 1);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.get(workload::keyName(k)));
    k = (k + 7919) % 100000;
  }
}
BENCHMARK(BM_KvEngineRawGet);

/// Catalog-shaped keyspace: per table a row key plus one to four secondary
/// index keys under a long shared prefix, compacted into the sealed run,
/// then a small delta of newer tables the scans must merge in.
constexpr std::uint64_t kSealedTables = 100000;
constexpr std::uint64_t kDeltaTables = 500;

void loadCatalogShapedEngine(storage::KvEngine& engine) {
  std::uint64_t ts = 0;
  auto loadTable = [&](std::uint64_t t) {
    const std::string id = std::to_string(t);
    engine.put("t/tables/r/" + id, storage::StoredValue::sized(200), ++ts);
    for (std::uint64_t p = 0; p <= t % 4; ++p) {
      engine.put("t/privileges/i/securable_id/tbl" + id + "/" +
                     std::to_string(t * 4 + p),
                 storage::StoredValue::sized(0), ++ts);
    }
  };
  for (std::uint64_t t = 0; t < kSealedTables; ++t) loadTable(t);
  engine.compact();
  for (std::uint64_t t = kSealedTables; t < kSealedTables + kDeltaTables; ++t) {
    loadTable(t);
  }
}

/// Scan 4096 table privilege prefixes in rotation, starting from table id
/// `firstTable`: the loaded tables hold ids below kSealedTables +
/// kDeltaTables, so ids past that match nothing.
void scanPrivilegePrefixes(benchmark::State& state, std::uint64_t firstTable,
                           std::uint64_t tables) {
  storage::KvEngine engine;
  loadCatalogShapedEngine(engine);
  std::vector<std::string> prefixes;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t t = firstTable + (i * 7919) % tables;
    prefixes.push_back("t/privileges/i/securable_id/tbl" + std::to_string(t) +
                       "/");
  }
  std::size_t i = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    rows += engine.scanPrefix(
        prefixes[i], storage::KvEngine::kLatest,
        [](std::string_view, const storage::StoredValue&) { return true; });
    i = (i + 1) % prefixes.size();
  }
  benchmark::DoNotOptimize(rows);
}

void BM_KvEngineScanPrefix(benchmark::State& state) {
  scanPrivilegePrefixes(state, 0, kSealedTables + kDeltaTables);
}
BENCHMARK(BM_KvEngineScanPrefix);

// The usual case on 2 of a catalog's 3 engines: the table's index entries
// hash to another engine, so the scan finds nothing.
void BM_KvEngineScanPrefixAbsent(benchmark::State& state) {
  scanPrivilegePrefixes(state, kSealedTables + kDeltaTables, kSealedTables);
}
BENCHMARK(BM_KvEngineScanPrefixAbsent);

void BM_RowCodecRoundtrip(benchmark::State& state) {
  const TableSchema schema("t",
                           {Column{"id", ColumnType::kInt},
                            Column{"x", ColumnType::kDouble},
                            Column{"s", ColumnType::kString}},
                           0);
  const Row row{{std::int64_t{42}, 3.25, std::string(128, 's')}};
  for (auto _ : state) {
    const std::string bytes = storage::encodeRow(schema, row);
    auto back = storage::decodeRow(schema, bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RowCodecRoundtrip);

/// Assembler::getTable on a populated 20K-table catalog (Base: every call
/// issues its up-to-8 SQL statements and composes the object), with table
/// ids drawn from the UC trace's reads. One warm pass over the ids first,
/// so block caches and reused buffers are at their working size.
void BM_AssemblerGetTable(benchmark::State& state) {
  workload::UcTraceConfig traceConfig;
  traceConfig.numTables = 20000;
  workload::UcTraceWorkload trace(traceConfig);
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kBase;
  core::Deployment deployment(config);
  deployment.populateCatalog(trace);
  richobject::Assembler assembler(*deployment.catalogStore(),
                                  config.calibration.app);
  sim::Node& app = deployment.appTier().node(0);
  std::vector<std::uint64_t> ids;
  while (ids.size() < 4096) {
    const workload::Op op = trace.next();
    if (op.isRead()) ids.push_back(op.keyIndex);
  }
  std::size_t statements = 0;
  for (const std::uint64_t id : ids) {
    statements += assembler.getTable(app, id).statementsIssued;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    statements += assembler.getTable(app, ids[i]).statementsIssued;
    i = (i + 1) % ids.size();
  }
  benchmark::DoNotOptimize(statements);
}
BENCHMARK(BM_AssemblerGetTable);

}  // namespace
