#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "cache/linked_cache.hpp"
#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "rpc/wire_size.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "workload/uc_trace.hpp"

namespace simbench {
namespace {

namespace core = dcache::core;
namespace sim = dcache::sim;
namespace storage = dcache::storage;
namespace workload = dcache::workload;
using dcache::core::Architecture;

/// Times one kind of call: a span per call under `parent`, summed into
/// `calls`. Calls made with kNoRequest (warmup) run untimed.
class CallTimer {
 public:
  CallTimer(SpanLog& spans, std::string_view name, std::uint32_t parent,
            LayerStats::Calls& calls)
      : spans_(&spans),
        name_(spans.intern(name)),
        parent_(parent),
        calls_(&calls) {}

  template <class F>
  auto operator()(std::uint64_t request, F&& call) {
    if (request == SpanLog::kNoRequest) return call();
    const std::int64_t start = nowNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      call();
      finish(request, start);
    } else {
      auto result = call();
      finish(request, start);
      return result;
    }
  }

 private:
  void finish(std::uint64_t request, std::int64_t start) {
    const std::int64_t end = nowNs();
    spans_->add(name_, parent_, request, start, end);
    ++calls_->count;
    calls_->ns += static_cast<double>(end - start);
  }

  SpanLog* spans_;
  std::uint32_t name_;
  std::uint32_t parent_;
  LayerStats::Calls* calls_;
};

/// Network, channel, client and app tier, configured as the deployment
/// configures its own.
struct Fabric {
  explicit Fabric(const core::DeploymentConfig& config)
      : network(config.calibration.network),
        channel(network,
                dcache::rpc::SerializationModel(config.calibration.serialization)),
        client("client", sim::TierKind::kClient, 1),
        app("app", sim::TierKind::kAppServer, config.appServers) {}

  sim::Node& nextApp() { return app.nextNode(); }

  sim::NetworkModel network;
  dcache::rpc::Channel channel;
  sim::Tier client;
  sim::Tier app;
};

/// SQL front-ends, KV nodes and a Database over them, as in the deployment.
struct StorageStack {
  StorageStack(const core::DeploymentConfig& config, Fabric& fabric)
      : sql("sql", sim::TierKind::kSqlFrontend, config.sqlFrontends),
        kv("kv", sim::TierKind::kKvStorage, config.kvStorageNodes),
        db(sql, kv, fabric.channel, databaseConfig(config)) {}

  static storage::Database::Config databaseConfig(
      const core::DeploymentConfig& config) {
    storage::Database::Config db;
    db.costs = config.calibration.storage;
    db.raftCosts = config.calibration.raft;
    db.blockCachePerNode = config.blockCachePerNode;
    db.replicationFactor = config.replicationFactor;
    return db;
  }

  sim::Tier sql;
  sim::Tier kv;
  storage::Database db;
};

std::uint64_t replayOps(const WorkloadSpec& spec) {
  return std::min(spec.measuredOps, kReplayOps);
}

/// The workload's op stream positioned at the start of the measured window.
std::unique_ptr<workload::Workload> measuredStream(const WorkloadSpec& spec,
                                                   std::uint64_t seed) {
  auto stream = makeWorkload(spec, seed);
  for (std::uint64_t i = 0; i < spec.warmupOps; ++i) (void)stream->next();
  return stream;
}

/// The key the deployment serves an op under (the object-cache key for
/// rich objects); only its length reaches the wire.
void keyFor(const WorkloadSpec& spec, std::uint64_t keyIndex,
            std::string& out) {
  if (spec.richObjects) {
    out = "obj:tbl" + std::to_string(keyIndex);
  } else {
    workload::keyNameTo(keyIndex, out);
  }
}

void replayCache(const WorkloadSpec& spec, std::uint64_t seed,
                 SpanLog& spans, LayerStats& stats) {
  if (spec.architecture != Architecture::kLinked) return;
  const core::DeploymentConfig config = deploymentConfigFor(spec);
  const std::uint32_t root = spans.open(spans.intern("replay.cache"),
                                        SpanLog::kNoParent);
  Fabric fabric(config);
  dcache::cache::LinkedCache cache(fabric.app, config.appCachePerNode,
                                   fabric.channel, config.evictionPolicy,
                                   config.calibration.cacheOps);
  CallTimer get(spans, "cache.get", root, stats.cacheGet);
  CallTimer fill(spans, "cache.fill", root, stats.cacheFill);

  // The deployment's call pattern: affinity-routed probes of the owner's
  // shard; a miss fills, a write updates in place (write-through).
  std::string key;
  std::uint64_t version = 0;
  const auto step = [&](const workload::Op& op, std::uint64_t request) {
    keyFor(spec, op.keyIndex, key);
    ++version;
    const std::size_t owner = cache.ownerOf(key);
    if (!op.isRead()) {
      fill(request,
           [&] { return cache.update(owner, key, op.valueSize, version); });
      return;
    }
    const auto got = get(request, [&] { return cache.get(owner, key); });
    if (got.hit) {
      if (request != SpanLog::kNoRequest) ++stats.cacheHits;
      return;
    }
    fill(request, [&] { cache.fill(key, op.valueSize, version); });
  };

  const auto stream = makeWorkload(spec, seed);
  for (std::uint64_t i = 0; i < spec.warmupOps; ++i) {
    step(stream->next(), SpanLog::kNoRequest);
  }
  const std::uint64_t n = replayOps(spec);
  for (std::uint64_t i = 0; i < n; ++i) step(stream->next(), i);
  spans.close(root);
}

void replayRpc(const WorkloadSpec& spec, std::uint64_t seed, SpanLog& spans,
               LayerStats& stats) {
  const core::DeploymentConfig config = deploymentConfigFor(spec);
  const std::uint32_t root = spans.open(spans.intern("replay.rpc"),
                                        SpanLog::kNoParent);
  Fabric fabric(config);
  CallTimer call(spans, "rpc.call", root, stats.rpcCall);
  const auto stream = measuredStream(spec, seed);
  std::string key;
  const std::uint64_t n = replayOps(spec);
  for (std::uint64_t i = 0; i < n; ++i) {
    const workload::Op op = stream->next();
    keyFor(spec, op.keyIndex, key);
    // The client leg's wire sizes, as the deployment sends them.
    const std::uint64_t request =
        op.isRead() ? dcache::rpc::getRequestWireSize(key.size())
                    : dcache::rpc::putRequestWireSize(key.size()) + op.valueSize;
    const std::uint64_t response =
        op.isRead() ? dcache::rpc::getResponseWireSize() + op.valueSize
                    : dcache::rpc::putResponseWireSize();
    sim::Node& app = fabric.nextApp();
    call(i, [&] {
      return fabric.channel.call(fabric.client.node(0), app, request, response,
                                 /*marshal=*/true,
                                 sim::CpuComponent::kClientComm);
    });
  }
  spans.close(root);
}

void replayKvStorage(const WorkloadSpec& spec, std::uint64_t seed,
                     SpanLog& spans, LayerStats& stats) {
  const core::DeploymentConfig config = deploymentConfigFor(spec);
  const std::uint32_t root = spans.open(spans.intern("replay.storage"),
                                        SpanLog::kNoParent);
  Fabric fabric(config);
  StorageStack stack(config, fabric);
  const auto stream = measuredStream(spec, seed);
  {
    const std::uint32_t load = spans.open(spans.intern("storage.load"), root);
    std::string key;
    stack.db.reserveKeys(stream->keyCount());
    for (std::uint64_t k = 0; k < stream->keyCount(); ++k) {
      workload::keyNameTo(k, key);
      stack.db.loadValue(key, stream->valueSizeFor(k));
    }
    spans.close(load);
  }
  CallTimer read(spans, "storage.read_value", root, stats.readValue);
  CallTimer write(spans, "storage.write_value", root, stats.writeValue);
  std::string key;
  const std::uint64_t n = replayOps(spec);
  for (std::uint64_t i = 0; i < n; ++i) {
    const workload::Op op = stream->next();
    keyFor(spec, op.keyIndex, key);
    sim::Node& app = fabric.nextApp();
    if (op.isRead()) {
      read(i, [&] { return stack.db.readValue(app, key); });
    } else {
      write(i, [&] { return stack.db.writeValue(app, key, op.valueSize); });
    }
  }
  spans.close(root);
}

/// Storage and rich-object replays over one standalone catalog: first the
/// storage calls (read-only), then getTable/updateTable.
void replayCatalog(const WorkloadSpec& spec, std::uint64_t seed,
                   SpanLog& spans, LayerStats& stats) {
  const core::DeploymentConfig config = deploymentConfigFor(spec);
  Fabric fabric(config);
  StorageStack stack(config, fabric);
  const auto catalogTrace = makeWorkload(spec, seed);
  const std::uint32_t loadRoot =
      spans.open(spans.intern("replay.catalog_load"), SpanLog::kNoParent);
  dcache::richobject::CatalogStore store(
      stack.db, static_cast<const workload::UcTraceWorkload&>(*catalogTrace));
  store.createSchemas();
  store.populate();
  dcache::richobject::Assembler assembler(store, config.calibration.app);
  spans.close(loadRoot);
  const std::uint64_t n = replayOps(spec);

  {
    const std::uint32_t root = spans.open(spans.intern("replay.storage"),
                                          SpanLog::kNoParent);
    CallTimer exec(spans, "storage.exec", root, stats.exec);
    CallTimer scan(spans, "storage.scan_prefix", root, stats.scanPrefix);
    const auto stream = measuredStream(spec, seed);
    for (std::uint64_t i = 0; i < n; ++i) {
      const workload::Op op = stream->next();
      const auto id = static_cast<std::int64_t>(op.keyIndex);
      const storage::Value params[] = {storage::Value{id}};
      sim::Node& app = fabric.nextApp();
      exec(i, [&] {
        return stack.db.exec(app, "SELECT * FROM tables WHERE id = ?", params);
      });
      const std::string prefix = storage::Database::indexPrefix(
          "privileges", "securable_id",
          dcache::richobject::CatalogStore::tableSecurable(op.keyIndex));
      storage::ExecTrace trace;
      scan(i, [&] {
        stack.db.engineScanPrefix(
            prefix, trace,
            [](std::string_view, const storage::StoredValue&) { return true; });
      });
    }
    spans.close(root);
  }

  const std::uint32_t root = spans.open(spans.intern("replay.richobject"),
                                        SpanLog::kNoParent);
  CallTimer get(spans, "richobject.get_table", root, stats.getTable);
  CallTimer update(spans, "richobject.update_table", root, stats.updateTable);
  const auto stream = measuredStream(spec, seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    const workload::Op op = stream->next();
    sim::Node& app = fabric.nextApp();
    if (op.isRead()) {
      const auto got =
          get(i, [&] { return assembler.getTable(app, op.keyIndex); });
      stats.getTableStatements += got.statementsIssued;
    } else {
      update(i, [&] { return assembler.updateTable(app, op.keyIndex); });
    }
  }
  spans.close(root);
}

}  // namespace

LayerStats replayLayers(const WorkloadSpec& spec, std::uint64_t seed,
                        SpanLog& spans) {
  LayerStats stats;
  stats.ops = replayOps(spec);
  replayCache(spec, seed, spans, stats);
  replayRpc(spec, seed, spans, stats);
  if (spec.richObjects) {
    replayCatalog(spec, seed, spans, stats);
  } else {
    replayKvStorage(spec, seed, spans, stats);
  }
  return stats;
}

}  // namespace simbench
