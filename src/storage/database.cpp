#include "storage/database.hpp"

#include <algorithm>

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"
#include "storage/executor.hpp"
#include "storage/sql_parser.hpp"
#include "util/hash.hpp"

namespace dcache::storage {
namespace {

/// Approximate wire size of the plan fragment shipped front-end -> KV node.
constexpr std::uint64_t kPlanFragmentBytes = 96;

}  // namespace

Database::Database(sim::Tier& sqlTier, sim::Tier& kvTier,
                   rpc::Channel& channel, Config config)
    : sqlTier_(&sqlTier),
      kvTier_(&kvTier),
      channel_(&channel),
      config_(config),
      raft_(kvTier, channel.network(), config.raftCosts,
            config.replicationFactor),
      engines_(kvTier.size()),
      planner_([this](std::string_view table) { return schema(table); }) {
  blockCaches_.reserve(kvTier.size());
  for (std::size_t i = 0; i < kvTier.size(); ++i) {
    blockCaches_.push_back(
        std::make_unique<BlockCache>(config_.blockCachePerNode));
    kvTier.node(i).mem().provision(config_.blockCachePerNode);
  }
}

Database::Database(sim::Tier& sqlTier, sim::Tier& kvTier,
                   rpc::Channel& channel)
    : Database(sqlTier, kvTier, channel, Config{}) {}

// ---- key layout ----

std::string Database::rowKey(std::string_view table, std::string_view pk) {
  std::string key;
  rowKeyTo(table, pk, key);
  return key;
}

void Database::rowKeyTo(std::string_view table, std::string_view pk,
                        std::string& out) {
  out.reserve(2 + table.size() + 3 + pk.size());
  out.assign("t/").append(table).append("/r/").append(pk);
}

std::string Database::rowPrefix(std::string_view table) {
  return rowKey(table, {});
}

std::string Database::indexKey(std::string_view table, std::string_view column,
                               std::string_view value, std::string_view pk) {
  std::string key = indexPrefix(table, column, value);
  key.append(pk);
  return key;
}

std::string Database::indexPrefix(std::string_view table,
                                  std::string_view column,
                                  std::string_view value) {
  std::string key;
  indexPrefixTo(table, column, value, key);
  return key;
}

void Database::indexPrefixTo(std::string_view table, std::string_view column,
                             std::string_view value, std::string& out) {
  out.assign("t/").append(table).append("/i/").append(column).append("/");
  out.append(value).append("/");
}

std::string Database::kvKey(std::string_view key) {
  std::string out;
  kvKeyTo(key, out);
  return out;
}

void Database::kvKeyTo(std::string_view key, std::string& out) {
  out.assign("kv/").append(key);
}

// ---- per-statement trace ----

void NodeBytes::add(std::size_t node, std::uint64_t bytes) {
  const std::span<const Entry> all = entries();
  const auto it = std::lower_bound(
      all.begin(), all.end(), node,
      [](const Entry& e, std::size_t n) { return e.node < n; });
  const auto pos = static_cast<std::size_t>(it - all.begin());
  if (it != all.end() && it->node == node) {
    (count_ <= kInlineNodes ? inline_[pos] : spill_[pos]).bytes += bytes;
    return;
  }
  if (count_ < kInlineNodes) {
    std::move_backward(inline_.begin() + pos, inline_.begin() + count_,
                       inline_.begin() + count_ + 1);
    inline_[pos] = Entry{node, bytes};
  } else {
    if (count_ == kInlineNodes) spill_.assign(inline_.begin(), inline_.end());
    spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos),
                  Entry{node, bytes});
  }
  ++count_;
}

// ---- schema / population ----

void Database::createTable(TableSchema schema) {
  std::string name = schema.name();
  schemas_.insert_or_assign(std::move(name), std::move(schema));
  planCache_.clear();
}

const TableSchema* Database::schema(std::string_view table) const {
  const auto it = schemas_.find(table);
  return it == schemas_.end() ? nullptr : &it->second;
}

void Database::loadRow(std::string_view table, const Row& row) {
  const TableSchema* s = schema(table);
  if (!s) return;
  const std::string pk = valueToString(row.values[s->primaryKeyColumn()]);
  const std::string key = rowKey(table, pk);
  StoredValue stored = StoredValue::of(encodeRow(*s, row));
  stored.size += declaredPayloadBytes(*s, row);
  engines_[nodeFor(key)].put(key, std::move(stored), ++ts_);
  for (const std::size_t col : s->indexedColumns()) {
    const std::string ik = indexKey(table, s->columns()[col].name,
                                    valueToString(row.values[col]), pk);
    engines_[nodeFor(ik)].put(ik, StoredValue::sized(0), ++ts_);
  }
}

void Database::loadValue(std::string_view key, std::uint64_t size) {
  const std::string k = kvKey(key);
  engines_[nodeFor(k)].put(k, StoredValue::sized(size), ++ts_);
}

void Database::reserveKeys(std::size_t expectedKeys) {
  // 1/8 slack absorbs hash skew across engines.
  const std::size_t perEngine =
      expectedKeys / engines_.size() + expectedKeys / (engines_.size() * 8);
  for (KvEngine& engine : engines_) engine.reserveKeys(perEngine);
}

void Database::compact() {
  for (KvEngine& engine : engines_) engine.compact();
}

// ---- engine-level API ----

void Database::syncMemoryMeters(std::size_t nodeIndex) {
  kvTier_->node(nodeIndex).mem().use(blockCaches_[nodeIndex]->bytesUsed());
}

const StoredValue* Database::engineGet(std::string_view key,
                                       ExecTrace& trace) {
  const std::uint64_t keyHash = util::hashKey(key);
  const std::size_t idx = nodeForHash(keyHash);
  sim::Node& node = kvTier_->node(idx);
  const StorageCosts& costs = config_.costs;

  if (config_.consistentReads) raft_.validateLease(idx);

  const StoredValue* stored = engines_[idx].get(key);
  if (!stored) {
    // Bloom filter / memtable probe only: no block fetch for absent keys.
    node.charge(sim::CpuComponent::kKvExecution, costs.execPerRowMicros);
    trace.latencyMicros += costs.execPerRowMicros;
    return nullptr;
  }

  const double execMicros =
      costs.execPerRowMicros +
      costs.execPerByteMicros * static_cast<double>(stored->size);
  node.charge(sim::CpuComponent::kKvExecution, execMicros);
  trace.latencyMicros += execMicros;

  if (!blockCaches_[idx]->touchRead(keyHash, stored->size)) {
    const std::uint64_t blockBytes = BlockCache::blockSizeFor(stored->size);
    node.charge(sim::CpuComponent::kDiskIo,
                costs.diskFixedMicros +
                    costs.diskPerByteMicros * static_cast<double>(blockBytes));
    trace.latencyMicros += costs.diskLatencyMicros;
    ++trace.blockMisses;
  } else {
    ++trace.blockHits;
  }
  syncMemoryMeters(idx);

  ++trace.rowsRead;
  trace.bytesRead += stored->size;
  trace.nodeBytes.add(idx, stored->size);
  return stored;
}

bool Database::enginePut(std::string_view key, StoredValue value,
                         ExecTrace& trace) {
  const std::uint64_t keyHash = util::hashKey(key);
  const std::size_t idx = nodeForHash(keyHash);
  sim::Node& node = kvTier_->node(idx);
  const StorageCosts& costs = config_.costs;
  const std::uint64_t bytes = value.size + key.size();

  const double execMicros =
      costs.execPerRowMicros + costs.memtableMicros +
      costs.execPerByteMicros * static_cast<double>(value.size);
  node.charge(sim::CpuComponent::kKvExecution, execMicros);

  const std::uint64_t rowSize = value.size;
  if (!engines_[idx].put(key, std::move(value), ++ts_)) return false;
  trace.latencyMicros += execMicros + raft_.replicate(idx, bytes);
  blockCaches_[idx]->touchWrite(keyHash, rowSize);
  syncMemoryMeters(idx);

  ++trace.rowsWritten;
  trace.bytesWritten += rowSize;
  trace.nodeBytes.add(idx, rowSize);
  return true;
}

bool Database::engineDelete(std::string_view key, ExecTrace& trace) {
  const std::uint64_t keyHash = util::hashKey(key);
  const std::size_t idx = nodeForHash(keyHash);
  sim::Node& node = kvTier_->node(idx);
  const StorageCosts& costs = config_.costs;

  node.charge(sim::CpuComponent::kKvExecution,
              costs.execPerRowMicros + costs.memtableMicros);
  if (!engines_[idx].erase(key, ++ts_)) return false;
  trace.latencyMicros += raft_.replicate(idx, key.size());
  blockCaches_[idx]->invalidate(keyHash);
  ++trace.rowsWritten;
  return true;
}

void Database::engineScanPrefix(std::string_view prefix, ExecTrace& trace,
                                ScanFn fn) {
  const StorageCosts& costs = config_.costs;
  // Every engine probes its directory with the same hash: compute it once
  // and start the engines' slot loads together.
  const std::uint64_t prefixHash = util::fastHash64(prefix);
  for (const KvEngine& engine : engines_) engine.prefetchPrefix(prefixHash);
  for (std::size_t idx = 0; idx < engines_.size(); ++idx) {
    sim::Node& node = kvTier_->node(idx);
    if (config_.consistentReads) raft_.validateLease(idx);
    engines_[idx].scanPrefix(
        prefix, prefixHash, KvEngine::kLatest,
        [&](std::string_view key, const StoredValue& stored) {
          const double execMicros =
              costs.execPerRowMicros +
              costs.execPerByteMicros * static_cast<double>(stored.size);
          node.charge(sim::CpuComponent::kKvExecution, execMicros);
          trace.latencyMicros += execMicros;
          ++trace.rowsRead;
          trace.bytesRead += stored.size;
          trace.nodeBytes.add(idx, stored.size);
          return fn(key, stored);
        });
  }
}

// ---- statement front-end ----

sim::Node& Database::frontendForStatement() {
  sim::Node& frontend = sqlTier_->nextNode();
  const StorageCosts& costs = config_.costs;
  frontend.charge(sim::CpuComponent::kConnectionMgmt, costs.connectionMicros);
  frontend.charge(sim::CpuComponent::kQueryParse, costs.parseMicros);
  frontend.charge(sim::CpuComponent::kQueryPlan, costs.planMicros);
  return frontend;
}

double Database::settleRpc(sim::Node& client, sim::Node& frontend,
                           std::uint64_t requestBytes,
                           std::uint64_t responseBytes,
                           const ExecTrace& trace) {
  // Front-end fans out to the KV nodes it touched (parallel; latency is the
  // slowest leg), then answers the client.
  double kvLatency = 0.0;
  for (const auto& [idx, bytes] : trace.nodeBytes.entries()) {
    const auto call = channel_->call(frontend, kvTier_->node(idx),
                                     kPlanFragmentBytes, bytes);
    kvLatency = std::max(kvLatency, call.latencyMicros);
  }
  const auto clientCall =
      channel_->call(client, frontend, requestBytes, responseBytes);
  return kvLatency + clientCall.latencyMicros;
}

Database::QueryResult Database::exec(sim::Node& client, std::string_view sql,
                                     std::span<const Value> params) {
  sim::SpanGuard span("sql.exec", sim::TierKind::kSqlFrontend);
  QueryResult result;
  sim::Node& frontend = frontendForStatement();

  // The modeled parse/plan CPU was charged above whether or not the host
  // reuses a cached plan.
  PlanResult planned;
  const QueryPlan* plan = nullptr;
  if (const auto cached = planCache_.find(sql); cached != planCache_.end()) {
    plan = &cached->second;
  } else {
    ParseResult parsed = parseSql(sql);
    if (const auto* err = std::get_if<ParseError>(&parsed)) {
      result.error = "parse error: " + err->message;
      result.latencyMicros =
          settleRpc(client, frontend, sql.size(), 32, ExecTrace{});
      return result;
    }
    planned = planner_.plan(std::get<Statement>(parsed));
    if (const auto* err = std::get_if<PlanError>(&planned)) {
      result.error = "plan error: " + err->message;
      result.latencyMicros =
          settleRpc(client, frontend, sql.size(), 32, ExecTrace{});
      return result;
    }
    plan = &std::get<QueryPlan>(planned);
    if (planCache_.size() < kPlanCacheCapacity) {
      plan = &planCache_.emplace(std::string(sql), std::move(*plan))
                  .first->second;
    }
  }

  ExecTrace trace;
  Executor executor(*this, execScratch_);
  Executor::Outcome outcome = executor.run(*plan, params, trace);
  if (!outcome.ok) {
    result.error = outcome.error;
    result.latencyMicros =
        settleRpc(client, frontend, sql.size(), 32, trace);
    return result;
  }

  frontend.charge(sim::CpuComponent::kKvExecution,
                  config_.costs.resultPerRowMicros *
                      static_cast<double>(outcome.rows.size()));

  std::uint64_t requestBytes = sql.size();
  for (const Value& p : params) requestBytes += valueTextSize(p) + 2;
  std::uint64_t responseBytes = 16;
  const TableSchema* outSchema = plan->primary.schema;
  const bool selectStar = plan->projection.empty();
  for (const RowView& row : outcome.rows) {
    // A row is priced at its encodedRowSize under the primary schema. A
    // canonical stored row is exactly that long. Projection can mix
    // schemas; it is approximated with the primary schema's encoding, which
    // the projected rows were sized from.
    if (!outSchema) {
      responseBytes += 32;
    } else if (selectStar && row.canonical()) {
      responseBytes += row.bytes().size() + 3;
    } else {
      responseBytes +=
          encodedRowSize(*outSchema, *decodeRow(row.schema(), row.bytes())) +
          3;
    }
  }

  result.ok = true;
  result.rows = outcome.rows;
  result.storedBytes = outcome.storedBytes;
  result.rowsAffected = outcome.rowsAffected;
  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, requestBytes, responseBytes, trace);
  return result;
}

// ---- KV path ----

Database::ReadResult Database::readValue(sim::Node& client,
                                         std::string_view key) {
  sim::SpanGuard span("db.read", sim::TierKind::kKvStorage);
  ReadResult result;
  sim::Node& frontend = frontendForStatement();  // SELECT v FROM kv WHERE k=?

  ExecTrace trace;
  kvKeyTo(key, keyScratch_);
  const StoredValue* stored = engineGet(keyScratch_, trace);
  result.found = stored != nullptr;
  result.size = stored ? stored->size : 0;
  result.version = stored ? stored->version : 0;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::getRequestWireSize(key.size()),
                rpc::getResponseWireSize() + result.size, trace);
  span.setOutcome(result.found ? sim::SpanOutcome::kOk
                               : sim::SpanOutcome::kMiss);
  return result;
}

Database::WriteResult Database::writeValue(sim::Node& client,
                                           std::string_view key,
                                           std::uint64_t size) {
  sim::SpanGuard span("db.write", sim::TierKind::kKvStorage);
  WriteResult result;
  sim::Node& frontend = frontendForStatement();  // UPDATE kv SET v=? WHERE k=?

  ExecTrace trace;
  kvKeyTo(key, keyScratch_);
  enginePut(keyScratch_, StoredValue::sized(size), trace);
  result.version = ts_;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::putRequestWireSize(key.size()) + size,
                rpc::putResponseWireSize(), trace);
  return result;
}

Database::VersionResult Database::versionCheck(sim::Node& client,
                                               std::string_view key) {
  sim::SpanGuard span("db.vcheck", sim::TierKind::kSqlFrontend);
  VersionResult result;
  // §5.5: the version check traverses the full read path — SQL front-end
  // parse/plan, lease validation, and a full row fetch at TiKV that ships
  // the row to the front-end; only the 8-byte version returns to the client.
  sim::Node& frontend = frontendForStatement();

  ExecTrace trace;
  kvKeyTo(key, keyScratch_);
  const StoredValue* stored = engineGet(keyScratch_, trace);
  result.found = stored != nullptr;
  result.version = stored ? stored->version : 0;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::versionCheckRequestWireSize(key.size()),
                rpc::versionCheckResponseWireSize(), trace);
  return result;
}

Database::VersionResult Database::versionCheckRow(sim::Node& client,
                                                  std::string_view table,
                                                  std::string_view pk) {
  sim::SpanGuard span("db.vcheck", sim::TierKind::kSqlFrontend);
  VersionResult result;
  sim::Node& frontend = frontendForStatement();

  ExecTrace trace;
  rowKeyTo(table, pk, keyScratch_);
  const StoredValue* stored = engineGet(keyScratch_, trace);
  result.found = stored != nullptr;
  result.version = stored ? stored->version : 0;

  result.latencyMicros =
      trace.latencyMicros +
      settleRpc(client, frontend, rpc::versionCheckRequestWireSize(pk.size()),
                rpc::versionCheckResponseWireSize(), trace);
  return result;
}

std::optional<std::uint64_t> Database::peekRowVersion(
    std::string_view table, std::string_view pk) const {
  rowKeyTo(table, pk, keyScratch_);
  const StoredValue* stored = engines_[nodeFor(keyScratch_)].get(keyScratch_);
  if (!stored) return std::nullopt;
  return stored->version;
}

std::optional<std::uint64_t> Database::peekValueVersion(
    std::string_view key) const {
  kvKeyTo(key, keyScratch_);
  const StoredValue* stored = engines_[nodeFor(keyScratch_)].get(keyScratch_);
  if (!stored) return std::nullopt;
  return stored->version;
}

void Database::dropBlockCache(std::size_t nodeIndex) {
  if (nodeIndex >= blockCaches_.size()) return;
  blockCaches_[nodeIndex]->clear();
}

// ---- introspection ----

util::Bytes Database::totalStoredBytes() const {
  util::Bytes total;
  for (const KvEngine& engine : engines_) total += engine.liveBytes();
  return total;
}

util::Bytes Database::blockCacheProvisioned() const {
  util::Bytes total;
  for (const auto& bc : blockCaches_) total += bc->capacity();
  return total;
}

std::uint64_t Database::blockCacheHits() const {
  std::uint64_t n = 0;
  for (const auto& bc : blockCaches_) n += bc->stats().hits;
  return n;
}

std::uint64_t Database::blockCacheMisses() const {
  std::uint64_t n = 0;
  for (const auto& bc : blockCaches_) n += bc->stats().misses;
  return n;
}

std::size_t Database::runGc(std::size_t keepVersions) {
  std::size_t reclaimed = 0;
  for (KvEngine& engine : engines_) reclaimed += engine.gc(keepVersions);
  return reclaimed;
}

}  // namespace dcache::storage
