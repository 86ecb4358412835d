// A full simulated service deployment: client tier, app-server tier,
// optional remote-cache or far-memory tier, SQL front-end tier and KV
// storage tier, wired per one of the five architectures. serve() pushes one workload operation
// through the deployment, charging every hop and every byte; afterwards the
// tiers' meters hold exactly the CPU/memory picture the cost model prices.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/disagg_cache.hpp"
#include "cache/linked_cache.hpp"
#include "cache/remote_cache.hpp"
#include "consistency/invalidation.hpp"
#include "consistency/lease.hpp"
#include "consistency/version_check.hpp"
#include "core/architecture.hpp"
#include "core/calibration.hpp"
#include "core/health.hpp"
#include "core/membership.hpp"
#include "core/overload.hpp"
#include "obs/trace.hpp"
#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "util/counter_list.hpp"
#include "util/histogram.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"

namespace dcache::core {

struct DeploymentConfig {
  Architecture architecture = Architecture::kLinked;

  std::size_t appServers = 3;
  std::size_t remoteCacheNodes = 3;  // only instantiated for kRemote
  std::size_t farMemoryNodes = 3;    // only instantiated for kDisaggregated
  std::size_t sqlFrontends = 3;
  std::size_t kvStorageNodes = 3;

  // §5.1: each app server gets 6 GB of cache; TiKV pods get block cache.
  util::Bytes appCachePerNode = util::Bytes::gb(6);
  util::Bytes remoteCachePerNode = util::Bytes::gb(6);
  util::Bytes blockCachePerNode = util::Bytes::gb(1);
  util::Bytes appBaseMemoryPerNode = util::Bytes::gb(2);
  util::Bytes sqlBaseMemoryPerNode = util::Bytes::gb(1);
  /// kDisaggregated: capacity of each far-memory pool node (priced at the
  /// far-memory $/GB rate, not DRAM), and the small in-process hot cache
  /// each app server keeps in front of the pool.
  util::Bytes farMemoryPerNode = util::Bytes::gb(16);
  util::Bytes hotCachePerNode = util::Bytes::mb(512);

  cache::EvictionPolicy evictionPolicy = cache::EvictionPolicy::kLru;
  /// Slicer-style affinity routing: client requests for a key land directly
  /// on the app server whose linked-cache shard owns it. When false, the
  /// load balancer sprays round-robin and non-owners forward probes inside
  /// the app tier (§2.4), paying an extra marshalled hop on ~(N-1)/N of
  /// requests — the cost of running a linked cache without an auto-sharder.
  bool affinityRouting = true;
  /// Writes refresh the cache in place (write-through); false = invalidate.
  bool writeThroughCache = true;
  std::size_t replicationFactor = 3;

  /// TTL freshness bound for linked-cache hits (0 = off). A hit older than
  /// the TTL is revalidated from storage — the classic bounded-staleness
  /// compromise the paper's related work surveys: far cheaper than a
  /// per-read version check, but only *eventually* consistent within the
  /// bound. Requires the clock: ExperimentRunner drives it from QPS, or
  /// call setSimTimeMicros() directly.
  std::uint64_t ttlFreshnessMicros = 0;

  /// Retry/timeout/backoff policy for every RPC while a fault schedule is
  /// installed (installFaultSchedule arms the channel with it). Unused —
  /// and cost-free — otherwise.
  rpc::CallPolicy rpcPolicy{};
  /// Seed for fault-path randomness (message drops, backoff jitter). Part
  /// of the deployment config so matrix cells stay deterministic per cell.
  std::uint64_t faultSeed = 2026;

  /// Request tracing (off by default — sampleEvery == 0 instantiates no
  /// tracer and leaves serve() on its pre-tracing path).
  obs::TraceConfig trace{};

  /// Overload model: per-tier capacities (finite queues, queueing delay)
  /// and the defenses — load shedding, circuit breakers, hedged requests.
  /// Off by default: every node keeps infinite capacity and serve() stays
  /// on its pre-overload path.
  OverloadConfig overload{};

  /// Gray-failure defense: deterministic health monitoring with outlier
  /// ejection + probing re-admission (see core/health.hpp). Off by
  /// default; enabling it arms the channel's policy path the way overload
  /// does, so latencies and drop draws match the fault-injection paths.
  HealthPolicy health{};
  /// Cache-tier replica placement for the KV serve path: each key lives on
  /// this many distinct cache shards (Remote pods / Linked app shards).
  /// Reads fall back to the next usable replica when the primary is down
  /// or ejected; fills/writes fan out to every usable replica. 1 = off —
  /// the legacy single-owner routing stays byte-exact.
  std::size_t cacheReplicationFactor = 1;

  Calibration calibration{};
};

/// Every serve counter, one X(type, name) per line (util/counter_list.hpp).
/// This list is the single definition of ServeCounters: its fields, the
/// snake_case metric export (exportServeCounters in core/report.hpp), the
/// all-field comparison (differingCounters) and the timeline benches'
/// per-window metrics are all generated from it. A new counter is one line
/// here plus the code that increments it. The fault and membership
/// sub-lists are mirrored wholesale from rpc::Channel and
/// core::MembershipDirector.
///
/// Notes the one-line comments cannot hold:
///  - storageReads (cache misses + Base-path reads) is the numerator of the
///    benches' storage-amplification columns.
///  - failedOps counts ops whose client leg failed: the client never got an
///    answer (unlike sheddedRequests, where it got a fast error).
///  - staleReplicaReads counts fallback hits whose version trails storage:
///    the anomaly a fallback read risks (served anyway; counted, not fixed).
///  - detectionLagMicros sums, over ejections, ejection time minus the
///    gray-fault onset: how long the detector let each failure drag.
///  - farMemoryBytes is slot header + value on a hit, header-sized on a
///    miss and 0 on a failed access.
#define DCACHE_SERVE_COUNTERS(X)                                             \
  X(std::uint64_t, reads)                                                    \
  X(std::uint64_t, writes)                                                   \
  X(std::uint64_t, cacheHits)                                                \
  X(std::uint64_t, cacheMisses)                                              \
  X(std::uint64_t, versionChecks)                                            \
  X(std::uint64_t, versionMismatches)                                        \
  X(std::uint64_t, statementsIssued)                                         \
  X(std::uint64_t, ttlExpirations)                                           \
  X(std::uint64_t, storageReads)   /* read-path storage round trips */       \
  /* Fault path: zero unless faults, overload or health are armed. */        \
  DCACHE_RPC_FAULT_COUNTERS(X)                                               \
  X(std::uint64_t, degradedReads)  /* cache unreachable -> storage path */   \
  X(std::uint64_t, coalescedMisses) /* misses joining an in-flight read */   \
  X(std::uint64_t, sheddedRequests) /* turned away by admission control */   \
  X(std::uint64_t, failedOps)      /* client leg ultimately failed */        \
  /* Gray failures: zero unless health monitoring or replication is on. */   \
  X(std::uint64_t, ejectedNodes)   /* transitions into the ejected state */  \
  X(std::uint64_t, replicaFallbackReads) /* from a non-primary replica */    \
  X(std::uint64_t, staleReplicaReads) /* fallback hits trailing storage */   \
  X(std::uint64_t, replicaWriteFanout) /* replica copies beyond the first */ \
  X(double, detectionLagMicros)    /* sum of ejection - gray-fault onset */  \
  /* Disaggregated path: zero unless the architecture is kDisaggregated. */  \
  X(std::uint64_t, farMemoryReads) /* one-sided reads (at most one/serve) */ \
  X(std::uint64_t, farMemoryBytes) /* bytes those reads pulled */            \
  X(std::uint64_t, hotCacheHits)   /* hot-front hits, within cacheHits */    \
  X(std::uint64_t, clientInvalidations) /* writer-fanned hot-cache drops */  \
  /* Membership churn: zero unless a MembershipSchedule is installed. */     \
  DCACHE_MEMBERSHIP_COUNTERS(X)

struct ServeCounters {
  DCACHE_SERVE_COUNTERS(DCACHE_COUNTER_FIELD)

  [[nodiscard]] double hitRatio() const noexcept {
    const std::uint64_t n = cacheHits + cacheMisses;
    return n ? static_cast<double>(cacheHits) / static_cast<double>(n) : 0.0;
  }
  void clear() noexcept { *this = ServeCounters{}; }
};

/// Names of the counters on which `a` and `b` differ, in list order; empty
/// when every field is equal (doubles compare exactly — replays are
/// bit-deterministic).
[[nodiscard]] std::vector<std::string_view> differingCounters(
    const ServeCounters& a, const ServeCounters& b);

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);

  // ---- population (cost-free experiment setup) ----
  /// Load every key of a KV-style workload into storage.
  void populateKv(const workload::Workload& workload);
  /// Create and load the catalog dataset for rich-object serving.
  void populateCatalog(const workload::UcTraceWorkload& trace,
                       richobject::CatalogStoreConfig storeConfig = {});

  // ---- serving ----
  struct OpResult {
    bool cacheHit = false;
    double latencyMicros = 0.0;
  };
  /// KV-style operation (synthetic / Meta / UC-KV).
  OpResult serve(const workload::Op& op);
  /// Rich-object operation (UC-Object): kObjectRead assembles via SQL.
  OpResult serveObject(const workload::Op& op);

  /// Advance the simulated wall clock (drives TTL freshness and fault
  /// injection: any scheduled fault events up to `nowMicros` fire here).
  void setSimTimeMicros(std::uint64_t nowMicros) noexcept {
    simNowMicros_ = nowMicros;
    channel_->setNowMicros(nowMicros);  // queue drains + breaker cool-downs
    if (faultsInstalled_) applyPendingFaults();
    if (membershipInstalled_ && membership_->hasWorkAt(nowMicros)) {
      advanceMembership();
    }
  }
  [[nodiscard]] std::uint64_t simTimeMicros() const noexcept {
    return simNowMicros_;
  }

  // ---- fault injection ----
  /// Install a fault schedule and arm the RPC channel with the config's
  /// retry policy + seeded drop/jitter RNG. Events fire as the sim clock
  /// passes them. Without this call every fault hook is dormant and the
  /// deployment's behaviour is bit-for-bit what it was before faults
  /// existed.
  void installFaultSchedule(sim::FaultSchedule schedule);
  [[nodiscard]] bool faultsInstalled() const noexcept {
    return faultsInstalled_;
  }

  // ---- planned membership churn ----
  /// Install a planned join/leave schedule (and the warm-handoff posture).
  /// Ring tiers switch to explicit membership, `startAbsent` spares are
  /// taken out of the initial placement, and events fire as the sim clock
  /// passes them — with handoff enabled, each ownership transition opens a
  /// bounded transfer window that migrates moved keys to their new owner.
  /// Without this call every membership hook is dormant and the deployment
  /// is bit-for-bit what it was before churn existed.
  void installMembershipSchedule(MembershipSchedule schedule,
                                 HandoffConfig handoff = {});
  [[nodiscard]] bool membershipInstalled() const noexcept {
    return membershipInstalled_;
  }
  /// Churn director (null unless installMembershipSchedule was called).
  [[nodiscard]] MembershipDirector* membership() noexcept {
    return membership_.get();
  }
  /// True when config.overload armed the queueing model / defenses.
  [[nodiscard]] bool overloadInstalled() const noexcept {
    return overloadInstalled_;
  }
  /// Admission controller (null unless config.overload.shed.enabled).
  [[nodiscard]] Shedder* shedder() noexcept { return shedder_.get(); }
  /// Failure detector (null unless config.health.enabled).
  [[nodiscard]] HealthMonitor* healthMonitor() noexcept {
    return monitor_.get();
  }
  /// True when config.cacheReplicationFactor armed replica routing (>1 and
  /// the architecture has a cache tier to replicate).
  [[nodiscard]] bool replicationInstalled() const noexcept {
    return replicationOn_;
  }
  [[nodiscard]] rpc::Channel& channel() noexcept { return *channel_; }
  /// Ring-ownership epoch: bumped every time cache ownership moves (an app
  /// node crash or restart resharding the linked ring). Stale in-flight
  /// writes carrying an older epoch are the Fig. 8 anomaly; the lease
  /// manager's per-node epochs (leases()) provide the fencing.
  [[nodiscard]] std::uint64_t ownershipEpoch() const noexcept {
    return ownershipEpoch_;
  }
  /// Lease manager (linked architectures with faults installed; else null).
  [[nodiscard]] consistency::LeaseManager* leases() noexcept {
    return leases_.get();
  }
  /// Size of the TTL fill-time bookkeeping map (boundedness regression
  /// tests: it must track cache occupancy, not keyspace size).
  [[nodiscard]] std::size_t ttlBookkeepingSize() const noexcept {
    return fillTimes_.size();
  }

  // ---- metering ----
  void clearMeters();
  [[nodiscard]] std::vector<const sim::Tier*> tiers() const;
  [[nodiscard]] const ServeCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const util::Histogram& latencies() const noexcept {
    return latency_;
  }
  /// Trace recorder (null unless config.trace.sampleEvery > 0).
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const obs::Tracer* tracer() const noexcept {
    return tracer_.get();
  }

  // ---- component access ----
  [[nodiscard]] const DeploymentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] storage::Database& db() noexcept { return *db_; }
  [[nodiscard]] sim::Tier& appTier() noexcept { return *app_; }
  [[nodiscard]] cache::LinkedCache* linkedCache() noexcept {
    return linked_.get();
  }
  [[nodiscard]] cache::RemoteCache* remoteCache() noexcept {
    return remote_.get();
  }
  [[nodiscard]] cache::DisaggCache* disaggCache() noexcept {
    return disagg_.get();
  }
  /// Decentralized invalidation fan-out (kDisaggregated only; else null).
  [[nodiscard]] consistency::InvalidationBus* invalidationBus() noexcept {
    return invalidationBus_.get();
  }
  [[nodiscard]] richobject::CatalogStore* catalogStore() noexcept {
    return catalogStore_.get();
  }
  [[nodiscard]] util::Bytes totalCacheMemoryProvisioned() const;

 private:
  OpResult serveRead(const std::string& key, const workload::Op& op);
  OpResult serveWrite(const std::string& key, const workload::Op& op);
  OpResult serveObjectRead(const workload::Op& op);
  OpResult serveObjectWrite(const workload::Op& op);

  /// App server handling this key under the active routing policy
  /// (affinity to the linked-cache owner; round-robin otherwise).
  [[nodiscard]] std::size_t appIndexFor(const std::string& key);

  /// Client <-> app leg: every architecture pays it, with the value bytes.
  /// `appIndex` names the primary so the hedged path can pick a live
  /// backup replica. `countFailure` is false on the shed path — the op is
  /// already accounted as shed, not failed.
  double clientLeg(sim::Node& app, std::size_t appIndex,
                   std::uint64_t requestBytes, std::uint64_t responseBytes,
                   bool countFailure = true);
  /// Admission control for the read path: returns true (and accounts the
  /// shed) when the app node's queueing delay says to turn the request
  /// away. Writes are never offered — they carry invalidation state the
  /// caches need.
  bool shouldShedRead(sim::Node& app);

  /// Read through storage and fill the architecture's cache. With faults
  /// installed, concurrent misses for one key are single-flight coalesced:
  /// followers join the in-flight storage read instead of issuing their
  /// own (a cold restart must not become a thundering herd).
  double readFromStorageAndFill(sim::Node& app, std::size_t appIndex,
                                const std::string& key);

  // ---- gray-failure machinery (replication + health monitoring) ----
  /// Routing gate for one replica: node up, and (when the monitor is on)
  /// not ejected — or ejected but due a probe, in which case the caller
  /// must route this request to it (allowRequest mutates probe state).
  [[nodiscard]] bool replicaUsable(sim::TierKind tier, std::size_t index);
  /// First usable replica of the key's linked-cache replica set (primary
  /// first); `fallback` reports whether a non-primary was picked. Called
  /// at most once per op — replicaUsable grants probe slots.
  [[nodiscard]] std::size_t chooseLinkedReplica(const std::string& key,
                                                bool& fallback);
  /// Count a replica hit whose version trails storage (fallback-read
  /// staleness anomaly — counted, not fixed).
  void noteReplicaStaleness(const std::string& key, std::uint64_t version);

  // ---- membership machinery ----
  /// True when topology can change mid-run (faults or planned churn):
  /// routing must re-check node liveness, misses must single-flight, and
  /// cache front-ends must gate on their breaker idiom.
  [[nodiscard]] bool dynamicTopology() const noexcept {
    return faultsInstalled_ || membershipInstalled_;
  }
  /// Apply due membership events and pump handoff batches, then run the
  /// deployment-owned fencing for each applied event (epoch bump, lease
  /// revocation, hot-cache flush, health (de)registration).
  void advanceMembership();
  /// Mirror the director's counters into counters_.
  void syncMembershipCounters() noexcept;

  // ---- fault machinery ----
  void applyPendingFaults();
  void applyFault(const sim::FaultEvent& event);
  [[nodiscard]] sim::Tier* tierFor(sim::TierKind kind) noexcept;
  void setNodeUp(sim::TierKind kind, std::size_t index, bool up);
  /// Mirror the channel's cumulative fault counters into counters_.
  void syncFaultCounters() noexcept;
  /// Drop expired single-flight entries once the map grows past its cap.
  void pruneInflight();

  DeploymentConfig config_;
  sim::NetworkModel network_;
  std::unique_ptr<rpc::Channel> channel_;

  std::unique_ptr<sim::Tier> client_;
  std::unique_ptr<sim::Tier> app_;
  std::unique_ptr<sim::Tier> remoteTier_;
  std::unique_ptr<sim::Tier> farTier_;
  std::unique_ptr<sim::Tier> sql_;
  std::unique_ptr<sim::Tier> kv_;

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<cache::RemoteCache> remote_;
  std::unique_ptr<cache::LinkedCache> linked_;
  std::unique_ptr<cache::DisaggCache> disagg_;
  std::unique_ptr<consistency::InvalidationBus> invalidationBus_;
  std::unique_ptr<consistency::VersionChecker> versionChecker_;

  std::unique_ptr<richobject::CatalogStore> catalogStore_;
  std::unique_ptr<richobject::Assembler> assembler_;

  /// TTL bookkeeping: last fill time per cached key (only when the TTL
  /// freshness bound is enabled). The map is swept lazily against cache
  /// occupancy so evictions don't leak entries (see maybeSweepFillTimes).
  [[nodiscard]] bool ttlExpired(const std::string& key) const;
  void noteFill(const std::string& key);
  void maybeSweepFillTimes();

  ServeCounters counters_;
  util::Histogram latency_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Per-op key/primary-key scratch: serve() formats into these instead of
  /// allocating a fresh std::string per simulated operation. Valid only for
  /// the duration of one serve call.
  std::string keyScratch_;
  std::string pkScratch_;
  std::size_t rrApp_ = 0;
  std::uint64_t simNowMicros_ = 0;
  std::unordered_map<std::string, std::uint64_t> fillTimes_;

  std::unique_ptr<Shedder> shedder_;
  bool overloadInstalled_ = false;

  std::unique_ptr<HealthMonitor> monitor_;
  bool replicationOn_ = false;
  /// Linked-replica pick made by appIndexFor (affinity routing) so the
  /// serve path probes the same shard the client leg was routed to —
  /// choosing twice would double-grant probe slots. Valid for one op.
  std::size_t linkedPick_ = 0;
  bool linkedPickFallback_ = false;
  bool linkedPickValid_ = false;
  /// Gray-fault onsets (slow/flaky begin events) for detection-lag
  /// accounting, and the cursor over monitor ejections already consumed
  /// into counters_.
  struct GrayFaultStart {
    sim::TierKind tier = sim::TierKind::kAppServer;
    std::size_t index = 0;
    std::uint64_t atMicros = 0;
  };
  std::vector<GrayFaultStart> grayFaultStarts_;
  std::size_t ejectionCursor_ = 0;
  std::size_t activeSlowNodes_ = 0;

  std::unique_ptr<consistency::LeaseManager> leases_;
  std::unique_ptr<MembershipDirector> membership_;
  bool membershipInstalled_ = false;
  sim::FaultSchedule faultSchedule_;
  std::size_t faultCursor_ = 0;
  bool faultsInstalled_ = false;
  std::uint64_t ownershipEpoch_ = 1;
  /// Single-flight table: key -> completion time of the in-flight storage
  /// read (fault mode only).
  std::unordered_map<std::string, std::uint64_t> inflight_;
};

}  // namespace dcache::core
