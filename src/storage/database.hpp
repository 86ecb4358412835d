// The distributed database facade — our TiDB stand-in. A stateless SQL
// front-end tier parses/plans statements and talks over RPC to a replicated
// KV tier (one MVCC engine + block cache per storage node, Raft-replicated
// writes, lease-validated reads). Three client paths matter to the paper:
//
//   exec()         — real SQL, used by the rich-object workloads (§5.4)
//   readValue()/writeValue() — the single-statement KV path used by the
//                    synthetic / Meta / UC-KV workloads
//   versionCheck() — the §5.5 consistency probe: returns 8 bytes to the
//                    client but traverses the full read path internally
//                    (parse, plan, lease, full row fetch, front-end hop)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/block_cache.hpp"
#include "storage/kv_engine.hpp"
#include "storage/planner.hpp"
#include "storage/raft.hpp"
#include "storage/row.hpp"
#include "storage/schema.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

/// CPU cost constants for the storage system, in microseconds of vCPU.
/// Chosen so the paper's §5.3 breakdown holds: connection management, query
/// processing and planning take 40-65% of database cycles, KV execution and
/// communication the rest. See core/calibration.hpp for the derivation.
struct StorageCosts {
  double connectionMicros = 15.0;  // session/connection management per stmt
  double parseMicros = 30.0;       // SQL text -> IR
  double planMicros = 40.0;        // IR -> plan + optimizer bookkeeping
  double resultPerRowMicros = 0.5; // front-end result assembly per row
  double execPerRowMicros = 3.0;   // KV-side per row touched
  double execPerByteMicros = 0.001;  // coprocessor copies/checksums, 1 ns/B
  double memtableMicros = 2.0;     // write path memtable insert
  double diskFixedMicros = 18.0;   // block read on block-cache miss
  double diskPerByteMicros = 0.003;  // NVMe read + checksum + decompression
  double diskLatencyMicros = 90.0; // NVMe read latency (latency only)
};

/// Payload bytes per KV node touched by one statement, kept in ascending
/// node order. Up to kInlineNodes nodes live inline, so a statement on a
/// tier of that size allocates nothing; a statement touching more nodes
/// moves every entry to the heap.
class NodeBytes {
 public:
  struct Entry {
    std::size_t node = 0;
    std::uint64_t bytes = 0;
  };
  static constexpr std::size_t kInlineNodes = 8;

  /// Add `bytes` to `node`; adding 0 still records the node as touched.
  void add(std::size_t node, std::uint64_t bytes);
  /// Touched nodes, ascending by node index.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return count_ <= kInlineNodes
               ? std::span<const Entry>(inline_.data(), count_)
               : std::span<const Entry>(spill_);
  }

 private:
  std::array<Entry, kInlineNodes> inline_{};
  std::size_t count_ = 0;
  std::vector<Entry> spill_;  // every entry, once count_ > kInlineNodes
};

/// Per-statement execution accounting, accumulated by the executor.
struct ExecTrace {
  std::size_t rowsRead = 0;
  std::size_t rowsWritten = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::size_t blockHits = 0;
  std::size_t blockMisses = 0;
  double latencyMicros = 0.0;
  NodeBytes nodeBytes;
};

/// One row the executor fetched for a statement: a view of the stored row,
/// its primary key and the stored value's logical size.
struct FetchedRow {
  std::string_view pk;
  RowView row;
  std::uint64_t storedSize = 0;
};

/// Buffers the executor reuses from one statement to the next, so a read
/// statement allocates nothing once they have grown. Whatever a statement
/// leaves here (its result rows included) is valid until the next
/// statement on the same Database.
struct ExecScratch {
  std::vector<RowView> rows;        // the statement's result
  std::vector<FetchedRow> fetched;  // primary-table rows
  std::vector<RowView> joined;      // right-table matches of one row
  std::vector<std::string_view> pks;  // index hits, views of engine keys
  std::string text;      // the primary key condition's value
  std::string joinText;  // a join key
  std::string key;       // the row key being read
  std::string prefix;    // the prefix being scanned
  // Projected or joined rows, encoded back to back, with their end offsets
  // and the schema of their columns.
  std::string built;
  std::vector<std::size_t> builtEnds;
  TableSchema projection;
};

class Database {
 public:
  struct Config {
    StorageCosts costs{};
    RaftCosts raftCosts{};
    util::Bytes blockCachePerNode = util::Bytes::gb(15);
    std::size_t replicationFactor = 3;
    bool consistentReads = true;  // validate raft lease on reads
  };

  Database(sim::Tier& sqlTier, sim::Tier& kvTier, rpc::Channel& channel,
           Config config);
  Database(sim::Tier& sqlTier, sim::Tier& kvTier, rpc::Channel& channel);

  // ---- schema / population (no cost accounting: experiment setup) ----
  void createTable(TableSchema schema);
  [[nodiscard]] const TableSchema* schema(std::string_view table) const;
  void loadRow(std::string_view table, const Row& row);
  void loadValue(std::string_view key, std::uint64_t size);
  /// Pre-size every engine's point index for a bulk load of `expectedKeys`
  /// (spread by key hash), avoiding per-engine rehash cascades.
  void reserveKeys(std::size_t expectedKeys);
  /// End of a bulk load that SQL will scan: sort every engine's keys into
  /// its sealed run now, so setup pays the sort instead of the first scan.
  void compact();

  // ---- SQL path ----
  /// `rows` views row bytes in storage (SELECT *) or in this Database's
  /// scratch (projections, joins): valid until the next statement on this
  /// Database, and until then only if no schema is replaced.
  struct QueryResult {
    bool ok = false;
    std::string error;
    std::span<const RowView> rows;
    /// Sum of the returned stored rows' StoredValue::size (SELECT *); 0 for
    /// projected rows, which are built rather than stored.
    std::uint64_t storedBytes = 0;
    std::uint64_t rowsAffected = 0;
    double latencyMicros = 0.0;
  };
  QueryResult exec(sim::Node& client, std::string_view sql,
                   std::span<const Value> params = {});

  /// Successfully planned statements are cached by exact SQL text, up to
  /// this many; past it, new texts are parsed and planned every time. The
  /// cache saves host time only: every statement is still charged the
  /// modeled connection, parse and plan CPU.
  static constexpr std::size_t kPlanCacheCapacity = 256;
  [[nodiscard]] std::size_t planCacheSize() const noexcept {
    return planCache_.size();
  }

  // ---- KV path (implicit blob table) ----
  struct ReadResult {
    bool found = false;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  ReadResult readValue(sim::Node& client, std::string_view key);

  struct WriteResult {
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  WriteResult writeValue(sim::Node& client, std::string_view key,
                         std::uint64_t size);

  struct VersionResult {
    bool found = false;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };
  VersionResult versionCheck(sim::Node& client, std::string_view key);

  /// Version check against a SQL table row (same full-path cost).
  VersionResult versionCheckRow(sim::Node& client, std::string_view table,
                                std::string_view pk);

  /// Commit version of a table row / KV value without any cost accounting
  /// — for callers that already paid for the read in the same request and
  /// for tests. nullopt if absent.
  [[nodiscard]] std::optional<std::uint64_t> peekRowVersion(
      std::string_view table, std::string_view pk) const;
  [[nodiscard]] std::optional<std::uint64_t> peekValueVersion(
      std::string_view key) const;

  // ---- engine-level API (used by the executor; fully cost-accounted) ----
  [[nodiscard]] const StoredValue* engineGet(std::string_view key,
                                             ExecTrace& trace);
  bool enginePut(std::string_view key, StoredValue value, ExecTrace& trace);
  bool engineDelete(std::string_view key, ExecTrace& trace);
  /// Ordered scan over all shards; fn returns false to stop that shard.
  void engineScanPrefix(std::string_view prefix, ExecTrace& trace, ScanFn fn);

  /// Fault injection: a KV node crashed and restarted — its block cache is
  /// cold. Data survives (Raft replication), so reads keep working; they
  /// just pay the disk path until the cache re-warms.
  void dropBlockCache(std::size_t nodeIndex);

  // ---- introspection ----
  [[nodiscard]] util::Bytes totalStoredBytes() const;  // pre-replication
  [[nodiscard]] util::Bytes blockCacheProvisioned() const;
  [[nodiscard]] std::uint64_t blockCacheHits() const;
  [[nodiscard]] std::uint64_t blockCacheMisses() const;
  [[nodiscard]] std::uint64_t commitTimestamp() const noexcept { return ts_; }
  [[nodiscard]] const RaftReplicator& raft() const noexcept { return raft_; }
  [[nodiscard]] sim::Tier& kvTier() noexcept { return *kvTier_; }
  [[nodiscard]] sim::Tier& sqlTier() noexcept { return *sqlTier_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  std::size_t runGc(std::size_t keepVersions = 2);

  // ---- key layout ----
  [[nodiscard]] static std::string rowKey(std::string_view table,
                                          std::string_view pk);
  [[nodiscard]] static std::string rowPrefix(std::string_view table);
  [[nodiscard]] static std::string indexKey(std::string_view table,
                                            std::string_view column,
                                            std::string_view value,
                                            std::string_view pk);
  [[nodiscard]] static std::string indexPrefix(std::string_view table,
                                               std::string_view column,
                                               std::string_view value);
  [[nodiscard]] static std::string kvKey(std::string_view key);
  /// rowKey, indexPrefix and kvKey into `out`, reusing its buffer.
  static void rowKeyTo(std::string_view table, std::string_view pk,
                       std::string& out);
  static void indexPrefixTo(std::string_view table, std::string_view column,
                            std::string_view value, std::string& out);
  static void kvKeyTo(std::string_view key, std::string& out);

 private:
  /// KV node of a key, from its util::hashKey hash.
  [[nodiscard]] std::size_t nodeForHash(std::uint64_t keyHash) const noexcept {
    return keyHash % engines_.size();
  }
  [[nodiscard]] std::size_t nodeFor(std::string_view key) const noexcept {
    return nodeForHash(util::hashKey(key));
  }
  /// Charge the front-end constants common to every statement and return
  /// the chosen front-end node.
  sim::Node& frontendForStatement();
  /// Settle per-statement RPCs: client<->frontend and frontend<->kv nodes.
  double settleRpc(sim::Node& client, sim::Node& frontend,
                   std::uint64_t requestBytes, std::uint64_t responseBytes,
                   const ExecTrace& trace);
  void syncMemoryMeters(std::size_t nodeIndex);

  /// Plan-cache hasher: word-at-a-time over the SQL text, probed with
  /// string_view. The cache is never iterated, so its order leaks nowhere.
  struct PlanTextHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view sql) const noexcept {
      return static_cast<std::size_t>(util::fastHash64(sql));
    }
  };

  sim::Tier* sqlTier_;
  sim::Tier* kvTier_;
  rpc::Channel* channel_;
  Config config_;
  RaftReplicator raft_;
  std::vector<KvEngine> engines_;
  std::vector<std::unique_ptr<BlockCache>> blockCaches_;
  std::map<std::string, TableSchema, std::less<>> schemas_;
  Planner planner_;
  // Plans hold schema pointers and column indices: createTable clears it.
  std::unordered_map<std::string, QueryPlan, PlanTextHash, std::equal_to<>>
      planCache_;
  /// The storage key of the KV-path statement or peek in flight; valid only
  /// within one call. Mutable so the const peeks build keys here too.
  mutable std::string keyScratch_;
  ExecScratch execScratch_;
  std::uint64_t ts_ = 0;
};

}  // namespace dcache::storage
