#include "core/deployment.hpp"

#include <cstdio>

#include "rpc/wire_size.hpp"
#include "workload/workload.hpp"

namespace dcache::core {
namespace {

// The serve loops run once per simulated op; key formatting reuses the
// caller's scratch string so steady state allocates nothing.

void objectKeyTo(std::uint64_t tableId, std::string& out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "obj:tbl%llu",
                              static_cast<unsigned long long>(tableId));
  out.assign(buf, static_cast<std::size_t>(n));
}

void tablePkTo(std::uint64_t tableId, std::string& out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(tableId));
  out.assign(buf, static_cast<std::size_t>(n));
}

/// Triage cost of turning a request away at admission control: parse the
/// header, decide, answer. Far below a served request, deliberately not
/// zero — shedding at scale is itself CPU the bill sees.
constexpr double kShedTriageMicros = 0.5;
/// Encoded size of the "try again later" error response.
constexpr std::uint64_t kShedResponseBytes = 16;

}  // namespace

std::vector<std::string_view> differingCounters(const ServeCounters& a,
                                                const ServeCounters& b) {
  std::vector<std::string_view> names;
#define DCACHE_COMPARE(type, name) \
  if (a.name != b.name) names.push_back(#name);
  DCACHE_SERVE_COUNTERS(DCACHE_COMPARE)
#undef DCACHE_COMPARE
  return names;
}

Deployment::Deployment(DeploymentConfig config) : config_(config) {
  const Calibration& cal = config_.calibration;
  network_ = sim::NetworkModel(cal.network);
  channel_ = std::make_unique<rpc::Channel>(
      network_, rpc::SerializationModel(cal.serialization));

  client_ = std::make_unique<sim::Tier>("client", sim::TierKind::kClient, 1);
  app_ = std::make_unique<sim::Tier>("app", sim::TierKind::kAppServer,
                                     config_.appServers);
  app_->provisionMemoryPerNode(config_.appBaseMemoryPerNode);
  sql_ = std::make_unique<sim::Tier>("sql", sim::TierKind::kSqlFrontend,
                                     config_.sqlFrontends);
  sql_->provisionMemoryPerNode(config_.sqlBaseMemoryPerNode);
  kv_ = std::make_unique<sim::Tier>("kv", sim::TierKind::kKvStorage,
                                    config_.kvStorageNodes);

  storage::Database::Config dbConfig;
  dbConfig.costs = cal.storage;
  dbConfig.raftCosts = cal.raft;
  dbConfig.blockCachePerNode = config_.blockCachePerNode;
  dbConfig.replicationFactor = config_.replicationFactor;
  db_ = std::make_unique<storage::Database>(*sql_, *kv_, *channel_, dbConfig);

  switch (config_.architecture) {
    case Architecture::kBase:
      break;
    case Architecture::kRemote:
      remoteTier_ = std::make_unique<sim::Tier>(
          "remote-cache", sim::TierKind::kRemoteCache,
          config_.remoteCacheNodes);
      remote_ = std::make_unique<cache::RemoteCache>(
          *remoteTier_, config_.remoteCachePerNode, *channel_,
          config_.evictionPolicy, cal.cacheOps);
      break;
    case Architecture::kLinked:
    case Architecture::kLinkedVersion:
      linked_ = std::make_unique<cache::LinkedCache>(
          *app_, config_.appCachePerNode, *channel_, config_.evictionPolicy,
          cal.cacheOps);
      break;
    case Architecture::kDisaggregated: {
      farTier_ = std::make_unique<sim::Tier>(
          "far-memory", sim::TierKind::kFarMemory, config_.farMemoryNodes);
      disagg_ = std::make_unique<cache::DisaggCache>(
          *farTier_, config_.farMemoryPerNode, *app_, config_.hotCachePerNode,
          *channel_, config_.evictionPolicy, cal.disagg);
      // DiFache-style decentralized coherence: every app server subscribes
      // its own hot cache; a writer fans invalidations straight to its
      // peers — no coordinator on the path. Subscriber id == app index
      // (subscription order), which lets the writer skip itself.
      invalidationBus_ =
          std::make_unique<consistency::InvalidationBus>(*channel_);
      for (std::size_t i = 0; i < app_->size(); ++i) {
        invalidationBus_->subscribe(
            app_->node(i), [this, i](std::string_view key, std::uint64_t) {
              disagg_->hotInvalidate(i, key);
            });
      }
      break;
    }
  }
  versionChecker_ = std::make_unique<consistency::VersionChecker>(*db_);
  if (config_.trace.enabled()) {
    tracer_ = std::make_unique<obs::Tracer>(config_.trace);
  }

  if (config_.overload.enabled()) {
    overloadInstalled_ = true;
    const OverloadConfig& ov = config_.overload;
    const auto limitTier = [&](sim::Tier* tier, double capacity) {
      if (!tier || capacity <= 0.0) return;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        tier->node(i).queue().configure(
            {capacity, ov.maxQueueWaitMicros});
      }
    };
    limitTier(app_.get(), ov.appCapacityMicrosPerSec);
    limitTier(remoteTier_.get(), ov.remoteCacheCapacityMicrosPerSec);
    limitTier(sql_.get(), ov.sqlCapacityMicrosPerSec);
    limitTier(kv_.get(), ov.kvCapacityMicrosPerSec);
    // Queueing and the defenses ride the channel's policy path, so arm it
    // exactly the way installFaultSchedule does.
    channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
    if (ov.breakersEnabled) channel_->enableBreakers(ov.breaker);
    if (ov.hedgingEnabled) channel_->enableHedging(ov.hedge);
    if (ov.shed.enabled) shedder_ = std::make_unique<Shedder>(ov.shed);
  }

  if (config_.health.enabled) {
    monitor_ = std::make_unique<HealthMonitor>(config_.health);
    const auto registerTier = [&](sim::Tier* tier) {
      if (!tier) return;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        monitor_->registerNode(tier->node(i), tier->kind(), i);
      }
    };
    registerTier(app_.get());
    registerTier(remoteTier_.get());
    registerTier(farTier_.get());
    registerTier(sql_.get());
    registerTier(kv_.get());
    channel_->setCallObserver(monitor_.get());
    // The monitor listens at the channel's policy path; arm it the way
    // overload and installFaultSchedule do.
    channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
  }
  if (config_.cacheReplicationFactor > 1 && (remote_ || linked_)) {
    replicationOn_ = true;
    if (remote_) remote_->enableReplication(config_.cacheReplicationFactor);
  }
}

void Deployment::populateKv(const workload::Workload& workload) {
  db_->reserveKeys(workload.keyCount());
  std::string key;
  for (std::uint64_t k = 0; k < workload.keyCount(); ++k) {
    workload::keyNameTo(k, key);
    db_->loadValue(key, workload.valueSizeFor(k));
  }
}

void Deployment::populateCatalog(const workload::UcTraceWorkload& trace,
                                 richobject::CatalogStoreConfig storeConfig) {
  catalogStore_ = std::make_unique<richobject::CatalogStore>(*db_, trace,
                                                             storeConfig);
  catalogStore_->createSchemas();
  catalogStore_->populate();
  assembler_ = std::make_unique<richobject::Assembler>(
      *catalogStore_, config_.calibration.app);
}

bool Deployment::replicaUsable(sim::TierKind tier, std::size_t index) {
  sim::Tier* t = tierFor(tier);
  if (!t || index >= t->size() || !t->node(index).isUp()) return false;
  if (monitor_ && !monitor_->allowRequest(tier, index, simNowMicros_)) {
    return false;
  }
  return true;
}

std::size_t Deployment::chooseLinkedReplica(const std::string& key,
                                            bool& fallback) {
  const auto replicas =
      linked_->replicasOf(key, config_.cacheReplicationFactor);
  fallback = false;
  if (replicas.empty()) return linked_->ownerOf(key);
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (replicaUsable(sim::TierKind::kAppServer, replicas[r])) {
      fallback = r > 0;
      return replicas[r];
    }
  }
  return replicas[0];  // nothing usable: the primary's failure is counted
}

void Deployment::noteReplicaStaleness(const std::string& key,
                                      std::uint64_t version) {
  // peek*, not read*: anomaly accounting is the experimenter's x-ray, it
  // must not charge CPU or change cache state.
  const auto stored = db_->peekValueVersion(key);
  if (stored && *stored != version) ++counters_.staleReplicaReads;
}

std::size_t Deployment::appIndexFor(const std::string& key) {
  linkedPickValid_ = false;
  if (linked_ && config_.affinityRouting) {
    if (replicationOn_) {
      // Replica-aware affinity: the client leg lands on the shard the
      // probe will use, so an ejected/slow owner is bypassed end to end.
      linkedPick_ = chooseLinkedReplica(key, linkedPickFallback_);
      linkedPickValid_ = true;
      if (!dynamicTopology() || app_->node(linkedPick_).isUp()) {
        return linkedPick_;
      }
    }
    const std::size_t owner = linked_->ownerOf(key);
    if (!dynamicTopology() || app_->node(owner).isUp()) {
      return owner;  // Slicer-style affinity
    }
    // The ring still names a down node (a tier outage doesn't reshard —
    // the shards' contents survive); spray over the live servers below.
  }
  if (!dynamicTopology() && !monitor_) {
    const std::size_t idx = rrApp_ % app_->size();
    ++rrApp_;
    return idx;
  }
  // Load-balancer health checks: round-robin over live servers only, and —
  // with the health monitor on — skip ejected servers too (an ejected node
  // still gets its periodic probe request routed through here).
  for (std::size_t probe = 0; probe < app_->size(); ++probe) {
    const std::size_t idx = rrApp_ % app_->size();
    ++rrApp_;
    if (!app_->node(idx).isUp()) continue;
    if (monitor_ &&
        !monitor_->allowRequest(sim::TierKind::kAppServer, idx,
                                simNowMicros_)) {
      continue;
    }
    return idx;
  }
  return rrApp_ % app_->size();  // whole tier down: calls will time out
}

double Deployment::clientLeg(sim::Node& app, std::size_t appIndex,
                             std::uint64_t requestBytes,
                             std::uint64_t responseBytes, bool countFailure) {
  sim::SpanGuard span("client.leg", sim::TierKind::kClient);
  if (overloadInstalled_ && config_.overload.hedgingEnabled) {
    // The app tier is the replicated tier every architecture has: any live
    // server can answer (a non-owner pays the forward/miss path — the
    // hedge trades that cost for the tail it cuts). Backup = next live
    // server after the primary.
    sim::Node* backup = nullptr;
    for (std::size_t probe = 1; probe < app_->size(); ++probe) {
      sim::Node& candidate = app_->node((appIndex + probe) % app_->size());
      if (candidate.isUp()) {
        backup = &candidate;
        break;
      }
    }
    const rpc::PolicyCallResult hedged = channel_->callHedged(
        client_->node(0), app, backup, requestBytes, responseBytes,
        config_.rpcPolicy, /*marshal=*/true, sim::CpuComponent::kClientComm);
    if (!hedged.ok && countFailure) ++counters_.failedOps;
    return hedged.latencyMicros;
  }
  const rpc::CallResult result =
      channel_->call(client_->node(0), app, requestBytes, responseBytes,
                     /*marshal=*/true, sim::CpuComponent::kClientComm);
  if (!result.ok && countFailure) ++counters_.failedOps;
  return result.latencyMicros;
}

bool Deployment::shouldShedRead(sim::Node& app) {
  if (!shedder_) return false;
  sim::NodeQueue& queue = app.queue();
  queue.drainTo(simNowMicros_);
  if (!shedder_->offer(queue.waitMicros(), simNowMicros_)) return false;
  ++counters_.sheddedRequests;
  // Turning a request away costs triage CPU, not a queue's worth of work —
  // which is the entire trade admission control makes.
  app.charge(sim::CpuComponent::kRequestPrep, kShedTriageMicros);
  return true;
}

double Deployment::readFromStorageAndFill(sim::Node& app,
                                          std::size_t appIndex,
                                          const std::string& key) {
  sim::SpanGuard span("storage.fill", sim::TierKind::kKvStorage);
  app.charge(sim::CpuComponent::kRequestPrep,
             config_.calibration.app.requestPrepMicros);
  if (membershipInstalled_ && membership_->anyWindowActive()) {
    // Dual-read fallback: the key's ownership just moved and the old owner
    // may still hold it — rescue the entry from there instead of paying a
    // storage round trip (the storage-amplification saving warm handoff is
    // measured on).
    const auto fb = membership_->tryFallback(appIndex, key);
    if (fb.hit) {
      span.setOutcome(sim::SpanOutcome::kCoalesced);
      return fb.latencyMicros;
    }
  }
  if (dynamicTopology()) {
    // Single-flight: a miss whose storage read is already in flight joins
    // it instead of issuing a duplicate — a cold restart must not turn the
    // miss storm into a storage-QPS storm. The follower only pays the
    // remaining wait.
    const auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second > simNowMicros_) {
      ++counters_.coalescedMisses;
      span.setOutcome(sim::SpanOutcome::kCoalesced);
      return static_cast<double>(it->second - simNowMicros_);
    }
  }
  const auto read = db_->readValue(app, key);
  ++counters_.storageReads;
  if (dynamicTopology()) {
    inflight_[key] =
        simNowMicros_ + static_cast<std::uint64_t>(read.latencyMicros);
    pruneInflight();
  }
  if (!read.found) return read.latencyMicros;
  if (remote_) {
    if (replicationOn_) {
      // Write-all fill: every usable replica gets the value. The copies
      // ship in parallel, so the op pays the slowest one; the extra
      // copies' CPU/bytes land on the meters and replicaWriteFanout.
      double maxLat = 0.0;
      std::size_t copies = 0;
      for (const std::size_t idx : remote_->replicasForKey(key)) {
        if (!replicaUsable(sim::TierKind::kRemoteCache, idx)) continue;
        const double lat = remote_->putAt(app, idx, key, read.size,
                                          read.version);
        if (lat > maxLat) maxLat = lat;
        ++copies;
      }
      if (copies > 1) counters_.replicaWriteFanout += copies - 1;
      return read.latencyMicros + maxLat;
    }
    if (dynamicTopology() && !remote_->nodeUpFor(key)) {
      // Circuit breaker: don't burn a timed-out retry budget filling a
      // pod known to be dead; the value simply isn't cached this round.
      return read.latencyMicros;
    }
    return read.latencyMicros +
           remote_->put(app, key, read.size, read.version);
  }
  if (disagg_) {
    // The hot copy is in-process and always fillable; the far slot is
    // skipped when its pool node is known dead (same breaker idiom as the
    // remote tier — don't burn a timed-out retry budget on a corpse).
    disagg_->hotFill(appIndex, key, read.size, read.version);
    if (!dynamicTopology() || disagg_->nodeUpFor(key)) {
      return read.latencyMicros +
             disagg_->farPut(app, key, read.size, read.version);
    }
    return read.latencyMicros;
  }
  if (linked_) {
    if (replicationOn_) {
      double maxLat = 0.0;
      std::size_t copies = 0;
      const auto replicas =
          linked_->replicasOf(key, config_.cacheReplicationFactor);
      for (const std::size_t idx : replicas) {
        if (!replicaUsable(sim::TierKind::kAppServer, idx)) continue;
        if (config_.affinityRouting && idx == appIndex) {
          linked_->fillAt(idx, key, read.size, read.version);
        } else {
          const double lat =
              linked_->updateAt(appIndex, idx, key, read.size, read.version);
          if (lat > maxLat) maxLat = lat;
        }
        ++copies;
      }
      if (copies > 1) counters_.replicaWriteFanout += copies - 1;
      noteFill(key);
      return read.latencyMicros + maxLat;
    }
    if (config_.affinityRouting) {
      linked_->fill(key, read.size, read.version);
    } else {
      // The receiving server read the value; shipping it to the owning
      // shard is a marshalled intra-tier transfer.
      linked_->update(appIndex, key, read.size, read.version);
    }
    noteFill(key);
  }
  return read.latencyMicros;
}

bool Deployment::ttlExpired(const std::string& key) const {
  if (config_.ttlFreshnessMicros == 0) return false;
  const auto it = fillTimes_.find(key);
  if (it == fillTimes_.end()) return false;  // age unknown: trust the entry
  return it->second + config_.ttlFreshnessMicros <= simNowMicros_;
}

void Deployment::noteFill(const std::string& key) {
  if (config_.ttlFreshnessMicros == 0) return;
  fillTimes_[key] = simNowMicros_;
  maybeSweepFillTimes();
}

void Deployment::maybeSweepFillTimes() {
  // Evictions don't report back here, so the map accretes entries for keys
  // the cache no longer holds; unchecked it grows with the keyspace, not
  // with cache occupancy. Dropping an entry for an un-cached key can't
  // change any decision (ttlExpired is only consulted after a cache *hit*),
  // so sweep dead entries whenever the map outgrows occupancy 2x. The
  // floor keeps the sweep amortized O(1) per fill for small runs.
  if (!linked_) return;
  if (fillTimes_.size() < 1024) return;
  if (fillTimes_.size() <= 2 * linked_->itemCount()) return;
  bool anyServer = false;
  for (std::size_t i = 0; i < app_->size(); ++i) {
    if (linked_->hasServer(i)) {
      anyServer = true;
      break;
    }
  }
  if (!anyServer) {  // ring empty mid-outage: everything is un-cached
    fillTimes_.clear();
    return;
  }
  // dcache-lint: allow(unordered-iter, erase-only sweep dropping fill times whose key left the resharded ring; per-entry predicate, order cannot leak into serving or accounting)
  for (auto it = fillTimes_.begin(); it != fillTimes_.end();) {
    const std::size_t owner = linked_->ownerOf(it->first);
    if (linked_->shard(owner).peek(it->first) == nullptr) {
      it = fillTimes_.erase(it);
    } else {
      ++it;
    }
  }
}

Deployment::OpResult Deployment::serve(const workload::Op& op) {
  workload::keyNameTo(op.keyIndex, keyScratch_);
  const std::string& key = keyScratch_;
  obs::RequestScope scope(tracer_.get(), op.isRead() ? "read" : "write");
  const std::uint64_t degradedBefore = counters_.degradedReads;
  const std::uint64_t shedBefore = counters_.sheddedRequests;
  const std::uint64_t fallbackBefore = counters_.replicaFallbackReads;
  OpResult result =
      op.isRead() ? serveRead(key, op) : serveWrite(key, op);
  if (op.isRead()) {
    scope.setOutcome(counters_.sheddedRequests > shedBefore
                         ? sim::SpanOutcome::kShed
                     : counters_.degradedReads > degradedBefore
                         ? sim::SpanOutcome::kDegraded
                     : counters_.replicaFallbackReads > fallbackBefore
                         ? sim::SpanOutcome::kReplicaFallback
                     : result.cacheHit ? sim::SpanOutcome::kHit
                                       : sim::SpanOutcome::kMiss);
  }
  latency_.record(result.latencyMicros);
  if (faultsInstalled_ || overloadInstalled_ || monitor_) syncFaultCounters();
  if (membershipInstalled_) syncMembershipCounters();
  return result;
}

Deployment::OpResult Deployment::serveRead(const std::string& key,
                                           const workload::Op& op) {
  ++counters_.reads;
  OpResult result;
  const std::size_t appIndex = appIndexFor(key);
  sim::Node& app = app_->node(appIndex);
  std::uint64_t servedBytes = op.valueSize;

  if (shouldShedRead(app)) {
    result.latencyMicros +=
        clientLeg(app, appIndex, rpc::getRequestWireSize(key.size()),
                  kShedResponseBytes,
                  /*countFailure=*/false);
    return result;
  }

  switch (config_.architecture) {
    case Architecture::kBase: {
      app.charge(sim::CpuComponent::kRequestPrep,
                 config_.calibration.app.requestPrepMicros);
      const auto read = db_->readValue(app, key);
      ++counters_.storageReads;
      servedBytes = read.size;
      result.latencyMicros += read.latencyMicros;
      break;
    }
    case Architecture::kRemote: {
      cache::RemoteCache::GetResult hit;
      bool contacted = false;
      if (replicationOn_) {
        // Walk the replica set primary-first; skip down/ejected pods and
        // fall through a failed call to the next replica.
        const auto replicas = remote_->replicasForKey(key);
        for (std::size_t r = 0; r < replicas.size(); ++r) {
          if (!replicaUsable(sim::TierKind::kRemoteCache, replicas[r])) {
            continue;
          }
          hit = remote_->getAt(app, replicas[r], key);
          result.latencyMicros += hit.latencyMicros;
          contacted = true;
          if (!hit.failed) {
            if (r > 0) ++counters_.replicaFallbackReads;
            break;
          }
        }
      } else {
        hit = remote_->get(app, key);
        result.latencyMicros += hit.latencyMicros;
        contacted = true;
      }
      if (hit.hit) {
        ++counters_.cacheHits;
        result.cacheHit = true;
        servedBytes = hit.size;
        if (replicationOn_) noteReplicaStaleness(key, hit.version);
      } else {
        // A failed call (pod down / every retry dropped) degrades to the
        // storage path — availability is preserved, the cost moves.
        if (!contacted || hit.failed) ++counters_.degradedReads;
        ++counters_.cacheMisses;
        result.latencyMicros += readFromStorageAndFill(app, appIndex, key);
      }
      break;
    }
    case Architecture::kLinked:
    case Architecture::kLinkedVersion: {
      cache::LinkedCache::GetResult hit;
      if (replicationOn_) {
        // Probe the shard the routing layer picked (appIndexFor stashes
        // its choice so probe slots aren't granted twice per op).
        bool fallback = false;
        std::size_t owner;
        if (linkedPickValid_) {
          owner = linkedPick_;
          fallback = linkedPickFallback_;
          linkedPickValid_ = false;
        } else {
          owner = chooseLinkedReplica(key, fallback);
        }
        hit = linked_->getAt(appIndex, owner, key);
        if (fallback) ++counters_.replicaFallbackReads;
        if (hit.hit) noteReplicaStaleness(key, hit.version);
      } else {
        hit = linked_->get(appIndex, key);
      }
      result.latencyMicros += hit.latencyMicros;
      if (hit.hit && ttlExpired(key)) {
        // Bounded-staleness mode: the entry outlived its freshness bound;
        // revalidate from storage (far cheaper than per-read version
        // checks, but only TTL-consistent).
        ++counters_.ttlExpirations;
        ++counters_.cacheMisses;
        result.latencyMicros += readFromStorageAndFill(app, appIndex, key);
        break;
      }
      if (hit.hit) {
        servedBytes = hit.size;
        bool consistent = true;
        if (config_.architecture == Architecture::kLinkedVersion) {
          // §5.5: every read validates the cached version against storage.
          const auto check = versionChecker_->check(app, key, hit.version);
          ++counters_.versionChecks;
          result.latencyMicros += check.latencyMicros;
          if (!check.consistent) {
            ++counters_.versionMismatches;
            consistent = false;
            result.latencyMicros +=
                readFromStorageAndFill(app, appIndex, key);
          }
        }
        if (consistent) {
          ++counters_.cacheHits;
          result.cacheHit = true;
        } else {
          ++counters_.cacheMisses;
        }
      } else {
        ++counters_.cacheMisses;
        result.latencyMicros += readFromStorageAndFill(app, appIndex, key);
      }
      break;
    }
    case Architecture::kDisaggregated: {
      // Hot cache first: an in-process hit never touches far memory.
      const auto hot = disagg_->hotGet(appIndex, key);
      result.latencyMicros += hot.latencyMicros;
      if (hot.hit) {
        ++counters_.cacheHits;
        ++counters_.hotCacheHits;
        result.cacheHit = true;
        servedBytes = hot.size;
        break;
      }
      // Cold: one one-sided read against the key's pool slot. The gate is
      // the same replica gate the other tiers use — a down or ejected pool
      // node degrades the op to the storage path instead of burning the
      // retry budget.
      const std::size_t farIdx = disagg_->nodeForKey(key);
      cache::DisaggCache::GetResult far;
      bool contacted = false;
      if (replicaUsable(sim::TierKind::kFarMemory, farIdx)) {
        far = disagg_->farGetAt(app, farIdx, key);
        result.latencyMicros += far.latencyMicros;
        ++counters_.farMemoryReads;
        counters_.farMemoryBytes += far.wireBytes;
        contacted = true;
      }
      if (far.hit) {
        ++counters_.cacheHits;
        result.cacheHit = true;
        servedBytes = far.size;
        disagg_->hotFill(appIndex, key, far.size, far.version);
      } else {
        if (!contacted || far.failed) ++counters_.degradedReads;
        ++counters_.cacheMisses;
        result.latencyMicros += readFromStorageAndFill(app, appIndex, key);
      }
      break;
    }
  }

  result.latencyMicros +=
      clientLeg(app, appIndex, rpc::getRequestWireSize(key.size()),
                rpc::getResponseWireSize() + servedBytes);
  return result;
}

Deployment::OpResult Deployment::serveWrite(const std::string& key,
                                            const workload::Op& op) {
  ++counters_.writes;
  OpResult result;
  const std::size_t appIndex = appIndexFor(key);
  sim::Node& app = app_->node(appIndex);

  app.charge(sim::CpuComponent::kRequestPrep,
             config_.calibration.app.requestPrepMicros);
  const auto write = db_->writeValue(app, key, op.valueSize);
  result.latencyMicros += write.latencyMicros;

  if (remote_) {
    if (replicationOn_) {
      // Write-all: every usable replica is refreshed (or invalidated) in
      // parallel; a skipped replica goes stale, which fallback reads will
      // surface as staleReplicaReads.
      double maxLat = 0.0;
      std::size_t copies = 0;
      for (const std::size_t idx : remote_->replicasForKey(key)) {
        if (!replicaUsable(sim::TierKind::kRemoteCache, idx)) continue;
        const double lat =
            config_.writeThroughCache
                ? remote_->putAt(app, idx, key, op.valueSize, write.version)
                : remote_->invalidateAt(app, idx, key);
        if (lat > maxLat) maxLat = lat;
        ++copies;
      }
      if (copies > 1) counters_.replicaWriteFanout += copies - 1;
      result.latencyMicros += maxLat;
    } else {
      result.latencyMicros +=
          config_.writeThroughCache
              ? remote_->put(app, key, op.valueSize, write.version)
              : remote_->invalidate(app, key);
    }
  } else if (linked_) {
    if (replicationOn_) {
      double maxLat = 0.0;
      std::size_t copies = 0;
      const auto replicas =
          linked_->replicasOf(key, config_.cacheReplicationFactor);
      for (const std::size_t idx : replicas) {
        if (!replicaUsable(sim::TierKind::kAppServer, idx)) continue;
        const double lat =
            config_.writeThroughCache
                ? linked_->updateAt(appIndex, idx, key, op.valueSize,
                                    write.version)
                : linked_->invalidateAt(appIndex, idx, key);
        if (lat > maxLat) maxLat = lat;
        ++copies;
      }
      if (copies > 1) counters_.replicaWriteFanout += copies - 1;
      result.latencyMicros += maxLat;
      if (config_.writeThroughCache) {
        noteFill(key);
      } else {
        fillTimes_.erase(key);
      }
    } else if (config_.writeThroughCache) {
      result.latencyMicros +=
          linked_->update(appIndex, key, op.valueSize, write.version);
      noteFill(key);
    } else {
      result.latencyMicros += linked_->invalidate(appIndex, key);
      fillTimes_.erase(key);
    }
  } else if (disagg_) {
    // Writer updates (or tombstones) the far slot and its own hot copy,
    // then fans the invalidation to its peers itself — DiFache-style, no
    // coordinator on the coherence path. Peers drop their hot copies via
    // the bus handler; the next read re-pulls from the far pool.
    if (config_.writeThroughCache) {
      if (!dynamicTopology() || disagg_->nodeUpFor(key)) {
        result.latencyMicros +=
            disagg_->farPut(app, key, op.valueSize, write.version);
      }
      disagg_->hotFill(appIndex, key, op.valueSize, write.version);
    } else {
      if (!dynamicTopology() || disagg_->nodeUpFor(key)) {
        result.latencyMicros += disagg_->farInvalidate(app, key);
      }
      disagg_->hotInvalidate(appIndex, key);
    }
    const std::uint64_t deliveredBefore = invalidationBus_->delivered();
    result.latencyMicros +=
        invalidationBus_->publish(app, key, write.version, appIndex);
    counters_.clientInvalidations +=
        invalidationBus_->delivered() - deliveredBefore;
  }

  if (membershipInstalled_ && membership_->anyWindowActive()) {
    // The write landed at the key's *new* owner; erase any copy the old
    // owner still holds so a later migration batch (or dual read) can't
    // resurrect the overwritten value.
    membership_->fenceWrite(appIndex, key);
  }

  result.latencyMicros += clientLeg(
      app, appIndex, rpc::putRequestWireSize(key.size()) + op.valueSize,
      rpc::putResponseWireSize());
  return result;
}

Deployment::OpResult Deployment::serveObject(const workload::Op& op) {
  obs::RequestScope scope(tracer_.get(),
                          op.isRead() ? "object.read" : "object.write");
  const std::uint64_t degradedBefore = counters_.degradedReads;
  const std::uint64_t shedBefore = counters_.sheddedRequests;
  OpResult result = op.isRead() ? serveObjectRead(op) : serveObjectWrite(op);
  if (op.isRead()) {
    scope.setOutcome(counters_.sheddedRequests > shedBefore
                         ? sim::SpanOutcome::kShed
                     : counters_.degradedReads > degradedBefore
                         ? sim::SpanOutcome::kDegraded
                     : result.cacheHit ? sim::SpanOutcome::kHit
                                       : sim::SpanOutcome::kMiss);
  }
  latency_.record(result.latencyMicros);
  if (faultsInstalled_ || overloadInstalled_ || monitor_) syncFaultCounters();
  if (membershipInstalled_) syncMembershipCounters();
  return result;
}

Deployment::OpResult Deployment::serveObjectRead(const workload::Op& op) {
  ++counters_.reads;
  OpResult result;
  objectKeyTo(op.keyIndex, keyScratch_);
  const std::string& key = keyScratch_;
  const std::size_t appIndex = appIndexFor(key);
  sim::Node& app = app_->node(appIndex);
  std::uint64_t servedBytes = op.valueSize;

  if (shouldShedRead(app)) {
    result.latencyMicros +=
        clientLeg(app, appIndex, rpc::getRequestWireSize(key.size()),
                  kShedResponseBytes,
                  /*countFailure=*/false);
    return result;
  }

  auto assembleAndFill = [&]() {
    const auto assembled = assembler_->getTable(app, op.keyIndex);
    counters_.statementsIssued += assembled.statementsIssued;
    result.latencyMicros += assembled.latencyMicros;
    if (!assembled.ok) return;
    servedBytes = assembled.object.approximateSize();
    tablePkTo(op.keyIndex, pkScratch_);
    const auto version = db_->peekRowVersion("tables", pkScratch_).value_or(0);
    if (remote_) {
      // The remote cache stores the *encoded* object; encoding it is real
      // work charged at the app before the cache RPC ships it.
      channel_->serializer().chargeSerialize(app, servedBytes);
      result.latencyMicros += remote_->put(app, key, servedBytes, version);
    } else if (linked_) {
      linked_->fill(key, servedBytes, version);
    } else if (disagg_) {
      // The far slot stores the *encoded* object (encoding is app work,
      // like the remote fill); the hot cache keeps the live in-process
      // graph alongside, so hot hits skip the decode entirely.
      channel_->serializer().chargeSerialize(app, servedBytes);
      if (!dynamicTopology() || disagg_->nodeUpFor(key)) {
        result.latencyMicros +=
            disagg_->farPut(app, key, servedBytes, version);
      }
      disagg_->hotFill(appIndex, key, servedBytes, version);
    }
  };

  switch (config_.architecture) {
    case Architecture::kBase:
      assembleAndFill();  // no cache to fill: plain assembly
      break;
    case Architecture::kRemote: {
      const auto hit = remote_->get(app, key);
      result.latencyMicros += hit.latencyMicros;
      if (hit.hit) {
        ++counters_.cacheHits;
        result.cacheHit = true;
        servedBytes = hit.size;
        // The app must decode the cached object before using it — the cost
        // a linked cache avoids. The channel already charged the transfer
        // deserialization; object graph materialization is app logic.
        app.charge(sim::CpuComponent::kAppLogic,
                   config_.calibration.app.composePerByteMicros *
                       static_cast<double>(hit.size));
      } else {
        if (hit.failed) ++counters_.degradedReads;
        ++counters_.cacheMisses;
        assembleAndFill();
      }
      break;
    }
    case Architecture::kLinked:
    case Architecture::kLinkedVersion: {
      const auto hit = linked_->get(appIndex, key);
      result.latencyMicros += hit.latencyMicros;
      if (hit.hit) {
        servedBytes = hit.size;
        bool consistent = true;
        if (config_.architecture == Architecture::kLinkedVersion) {
          tablePkTo(op.keyIndex, pkScratch_);
          const auto check = db_->versionCheckRow(app, "tables", pkScratch_);
          ++counters_.versionChecks;
          result.latencyMicros += check.latencyMicros;
          if (!check.found || check.version != hit.version) {
            ++counters_.versionMismatches;
            consistent = false;
            assembleAndFill();
          }
        }
        if (consistent) {
          ++counters_.cacheHits;
          result.cacheHit = true;
        } else {
          ++counters_.cacheMisses;
        }
      } else {
        ++counters_.cacheMisses;
        assembleAndFill();
      }
      break;
    }
    case Architecture::kDisaggregated: {
      const auto hot = disagg_->hotGet(appIndex, key);
      result.latencyMicros += hot.latencyMicros;
      if (hot.hit) {
        // The hot cache holds the live object graph: no decode, no wire.
        ++counters_.cacheHits;
        ++counters_.hotCacheHits;
        result.cacheHit = true;
        servedBytes = hot.size;
        break;
      }
      const std::size_t farIdx = disagg_->nodeForKey(key);
      cache::DisaggCache::GetResult far;
      bool contacted = false;
      if (replicaUsable(sim::TierKind::kFarMemory, farIdx)) {
        far = disagg_->farGetAt(app, farIdx, key);
        result.latencyMicros += far.latencyMicros;
        ++counters_.farMemoryReads;
        counters_.farMemoryBytes += far.wireBytes;
        contacted = true;
      }
      if (far.hit) {
        ++counters_.cacheHits;
        result.cacheHit = true;
        servedBytes = far.size;
        // The one-sided read pulled the encoded bytes; materializing the
        // object graph is app logic — the cost a hot (or linked) hit
        // avoids.
        app.charge(sim::CpuComponent::kAppLogic,
                   config_.calibration.app.composePerByteMicros *
                       static_cast<double>(far.size));
        disagg_->hotFill(appIndex, key, far.size, far.version);
      } else {
        if (!contacted || far.failed) ++counters_.degradedReads;
        ++counters_.cacheMisses;
        assembleAndFill();
      }
      break;
    }
  }

  result.latencyMicros +=
      clientLeg(app, appIndex, rpc::getRequestWireSize(key.size()),
                rpc::getResponseWireSize() + servedBytes);
  return result;
}

Deployment::OpResult Deployment::serveObjectWrite(const workload::Op& op) {
  ++counters_.writes;
  OpResult result;
  objectKeyTo(op.keyIndex, keyScratch_);
  const std::string& key = keyScratch_;
  const std::size_t appIndex = appIndexFor(key);
  sim::Node& app = app_->node(appIndex);

  result.latencyMicros += assembler_->updateTable(app, op.keyIndex);
  counters_.statementsIssued += 2;  // read + update statements

  tablePkTo(op.keyIndex, pkScratch_);
  const auto version = db_->peekRowVersion("tables", pkScratch_).value_or(0);
  if (remote_) {
    result.latencyMicros += remote_->invalidate(app, key);
  } else if (linked_) {
    if (config_.writeThroughCache &&
        linked_->shard(linked_->ownerOf(key)).peek(key) != nullptr) {
      result.latencyMicros +=
          linked_->update(appIndex, key, op.valueSize, version);
    } else {
      result.latencyMicros += linked_->invalidate(appIndex, key);
    }
  } else if (disagg_) {
    // Object writes invalidate rather than refresh (assembly is too
    // expensive to redo inline), then fan the drop to the peers.
    if (!dynamicTopology() || disagg_->nodeUpFor(key)) {
      result.latencyMicros += disagg_->farInvalidate(app, key);
    }
    disagg_->hotInvalidate(appIndex, key);
    const std::uint64_t deliveredBefore = invalidationBus_->delivered();
    result.latencyMicros +=
        invalidationBus_->publish(app, key, version, appIndex);
    counters_.clientInvalidations +=
        invalidationBus_->delivered() - deliveredBefore;
  }

  if (membershipInstalled_ && membership_->anyWindowActive()) {
    membership_->fenceWrite(appIndex, key);
  }

  result.latencyMicros +=
      clientLeg(app, appIndex, rpc::putRequestWireSize(key.size()) + 256,
                rpc::putResponseWireSize());
  return result;
}

void Deployment::installMembershipSchedule(MembershipSchedule schedule,
                                           HandoffConfig handoff) {
  membershipInstalled_ = true;
  // Ring tiers switch to explicit membership so joins/leaves move key
  // ownership instead of being invisible to placement. (The linked ring
  // already supports add/remove/drain natively.)
  if (remote_) remote_->enableMembership();
  if (disagg_) disagg_->enableMembership();
  if (linked_ && !leases_) {
    // Same fencing authority as the crash path: leases are revoked when a
    // planned transition moves ownership (see advanceMembership).
    leases_ = std::make_unique<consistency::LeaseManager>(*app_, kv_->node(0),
                                                          *channel_);
  }
  if (monitor_) {
    // Scale-out spares start absent: the monitor must not probe a node
    // that was never placed (it registers again at its join event).
    for (const MembershipEvent& e : schedule.absentAtStart()) {
      sim::Tier* tier = tierFor(e.tier);
      if (tier && e.nodeIndex < tier->size()) {
        monitor_->deregisterNode(tier->node(e.nodeIndex), e.tier,
                                 e.nodeIndex);
      }
    }
  }
  MembershipDirector::Hooks hooks;
  hooks.appTier = app_.get();
  hooks.remoteTier = remoteTier_.get();
  hooks.farTier = farTier_.get();
  hooks.linked = linked_.get();
  hooks.remote = remote_.get();
  hooks.disagg = disagg_.get();
  hooks.channel = channel_.get();
  membership_ = std::make_unique<MembershipDirector>(std::move(schedule),
                                                     handoff, hooks);
  // Events at/before the current clock fire now (installFaultSchedule's
  // contract, kept here for symmetry).
  if (membership_->hasWorkAt(simNowMicros_)) advanceMembership();
}

void Deployment::advanceMembership() {
  // The pump's CPU and wire charges must land inside an open request scope
  // or the traced-vs-metered conservation invariant would break at
  // sample 1 — background migration is real work the bill sees.
  obs::RequestScope scope(tracer_.get(), "membership.pump");
  membership_->advanceTo(simNowMicros_);
  for (const MembershipEvent& e : membership_->drainApplied()) {
    // Deployment-owned fencing. The director already moved the ring and
    // (warm) opened the transfer window; what's left is the machinery the
    // director deliberately can't see.
    const bool linkedRing = linked_ && e.tier == sim::TierKind::kAppServer;
    const bool remoteRing = remote_ && e.tier == sim::TierKind::kRemoteCache;
    const bool farRing = disagg_ && e.tier == sim::TierKind::kFarMemory;
    if (linkedRing || remoteRing || farRing) {
      // Ownership moved: in-flight writes carrying the old epoch are
      // fenced exactly as on the crash path (Fig. 8).
      ++ownershipEpoch_;
    }
    if (linkedRing && leases_) leases_->revoke(e.nodeIndex);
    if (monitor_) {
      sim::Tier* tier = tierFor(e.tier);
      if (tier && e.nodeIndex < tier->size()) {
        if (e.kind == MembershipKind::kLeave) {
          // Planned leave: drop probe/ejection state immediately — ghost
          // probes against a node that left on purpose would hold an
          // ejection slot and pollute detection-lag accounting.
          monitor_->deregisterNode(tier->node(e.nodeIndex), e.tier,
                                   e.nodeIndex);
        } else {
          monitor_->registerNode(tier->node(e.nodeIndex), e.tier,
                                 e.nodeIndex);
        }
      }
    }
  }
  syncMembershipCounters();
}

void Deployment::syncMembershipCounters() noexcept {
  const MembershipCounters& mc = membership_->counters();
#define DCACHE_MIRROR(type, name) counters_.name = mc.name;
  DCACHE_MEMBERSHIP_COUNTERS(DCACHE_MIRROR)
#undef DCACHE_MIRROR
}

void Deployment::installFaultSchedule(sim::FaultSchedule schedule) {
  faultSchedule_ = std::move(schedule);
  faultCursor_ = 0;
  faultsInstalled_ = true;
  channel_->enableFaults(config_.faultSeed, config_.rpcPolicy);
  if (linked_ && !leases_) {
    // The Fig. 8 fencing authority: a storage node grants ownership leases
    // over the ring partitions; revocation on reshard bumps the epoch.
    leases_ = std::make_unique<consistency::LeaseManager>(*app_, kv_->node(0),
                                                          *channel_);
  }
  applyPendingFaults();  // events at/before the current clock fire now
}

void Deployment::applyPendingFaults() {
  const auto& events = faultSchedule_.events();
  while (faultCursor_ < events.size() &&
         events[faultCursor_].atMicros <= simNowMicros_) {
    applyFault(events[faultCursor_]);
    ++faultCursor_;
  }
}

sim::Tier* Deployment::tierFor(sim::TierKind kind) noexcept {
  switch (kind) {
    case sim::TierKind::kClient:
      return client_.get();
    case sim::TierKind::kAppServer:
      return app_.get();
    case sim::TierKind::kRemoteCache:
      return remoteTier_.get();
    case sim::TierKind::kFarMemory:
      return farTier_.get();
    case sim::TierKind::kSqlFrontend:
      return sql_.get();
    case sim::TierKind::kKvStorage:
      return kv_.get();
    case sim::TierKind::kCount:
      break;
  }
  return nullptr;
}

void Deployment::setNodeUp(sim::TierKind kind, std::size_t index, bool up) {
  sim::Tier* tier = tierFor(kind);
  if (!tier || index >= tier->size()) return;
  tier->node(index).setUp(up);
}

void Deployment::applyFault(const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultKind::kNodeCrash: {
      if (event.tier == sim::TierKind::kKvStorage) {
        // Raft-replicated storage: leadership fails over in lease-time, so
        // the tier keeps serving; the crash's lasting cost is the restarted
        // node's cold block cache.
        db_->dropBlockCache(event.nodeIndex);
        break;
      }
      setNodeUp(event.tier, event.nodeIndex, false);
      if (event.tier == sim::TierKind::kAppServer && linked_ &&
          linked_->hasServer(event.nodeIndex)) {
        // Reshard: the dead server's range moves to the survivors and any
        // lease it held is revoked, fencing its in-flight stale writes.
        linked_->removeServer(event.nodeIndex);
        ++ownershipEpoch_;
        if (leases_) leases_->revoke(event.nodeIndex);
      }
      if (event.tier == sim::TierKind::kRemoteCache && remote_) {
        remote_->dropShard(event.nodeIndex);  // pod memory is gone
      }
      if (event.tier == sim::TierKind::kFarMemory && disagg_) {
        // Pool memory dies with the node. Client-driven placement means no
        // coordinator can quiesce readers, so fence coarsely: bump the
        // ownership epoch and drop every hot copy — a stale hot hit for a
        // key whose far slot just vanished is now impossible.
        disagg_->dropShard(event.nodeIndex);
        disagg_->clearHotCaches();
        ++ownershipEpoch_;
      }
      break;
    }
    case sim::FaultKind::kNodeRestart: {
      if (event.tier == sim::TierKind::kKvStorage) break;  // never left
      setNodeUp(event.tier, event.nodeIndex, true);
      if (event.tier == sim::TierKind::kAppServer && linked_ &&
          !linked_->hasServer(event.nodeIndex)) {
        // Rejoin cold; ownership returns to the exact pre-crash partition
        // (vnode points depend only on the member index), and the epoch
        // bumps again — entries the survivors filled for this range are
        // now unreachable, which is the restart's hit-ratio cost.
        linked_->addServer(event.nodeIndex);
        ++ownershipEpoch_;
        if (leases_) leases_->revoke(event.nodeIndex);
      }
      break;
    }
    case sim::FaultKind::kTierOutage: {
      // Unreachable, not dead: state survives, so no reshard and no shard
      // drops — when the partition heals the caches are still warm.
      sim::Tier* tier = tierFor(event.tier);
      if (!tier) break;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        tier->node(i).setUp(false);
      }
      break;
    }
    case sim::FaultKind::kTierRecover: {
      sim::Tier* tier = tierFor(event.tier);
      if (!tier) break;
      for (std::size_t i = 0; i < tier->size(); ++i) {
        tier->node(i).setUp(true);
      }
      break;
    }
    case sim::FaultKind::kDegradeBegin:
      network_.setDegradation(event.latencyFactor, event.dropProbability);
      break;
    case sim::FaultKind::kDegradeEnd:
      network_.clearDegradation();
      break;
    case sim::FaultKind::kNodeSlowBegin: {
      sim::Tier* tier = tierFor(event.tier);
      if (!tier || event.nodeIndex >= tier->size()) break;
      tier->node(event.nodeIndex).setSlowFactor(event.latencyFactor);
      ++activeSlowNodes_;
      network_.setAnySlowNodes(true);
      grayFaultStarts_.push_back(
          {event.tier, event.nodeIndex, event.atMicros});
      break;
    }
    case sim::FaultKind::kNodeSlowEnd: {
      sim::Tier* tier = tierFor(event.tier);
      if (!tier || event.nodeIndex >= tier->size()) break;
      tier->node(event.nodeIndex).setSlowFactor(1.0);
      if (activeSlowNodes_ > 0) --activeSlowNodes_;
      network_.setAnySlowNodes(activeSlowNodes_ > 0);
      break;
    }
    case sim::FaultKind::kPartialPartitionBegin:
      // Asymmetric: only the tier->dstTier direction drops; replies and
      // independent traffic the other way still flow.
      network_.cutLink(event.tier, event.dstTier);
      break;
    case sim::FaultKind::kPartialPartitionEnd:
      network_.healLink(event.tier, event.dstTier);
      break;
    case sim::FaultKind::kNodeFlakyBegin: {
      sim::Tier* tier = tierFor(event.tier);
      if (!tier || event.nodeIndex >= tier->size()) break;
      tier->node(event.nodeIndex).setFlakyProbability(event.dropProbability);
      grayFaultStarts_.push_back(
          {event.tier, event.nodeIndex, event.atMicros});
      break;
    }
    case sim::FaultKind::kNodeFlakyEnd: {
      sim::Tier* tier = tierFor(event.tier);
      if (!tier || event.nodeIndex >= tier->size()) break;
      tier->node(event.nodeIndex).setFlakyProbability(0.0);
      break;
    }
  }
}

void Deployment::syncFaultCounters() noexcept {
  const rpc::Channel::FaultCounters& fc = channel_->faultCounters();
#define DCACHE_MIRROR(type, name) counters_.name = fc.name;
  DCACHE_RPC_FAULT_COUNTERS(DCACHE_MIRROR)
#undef DCACHE_MIRROR
  if (monitor_) {
    // Consume new ejections incrementally so clearMeters() gives windowed
    // counts (the cursor survives the clear; the counters don't).
    const auto& ejections = monitor_->ejections();
    while (ejectionCursor_ < ejections.size()) {
      const auto& e = ejections[ejectionCursor_];
      ++counters_.ejectedNodes;
      // Detection lag = ejection time minus the latest injected gray-fault
      // onset on that node. Ejections with no matching injection (e.g. a
      // crashed pod racking up failures) contribute no lag.
      std::uint64_t onset = 0;
      bool found = false;
      for (const GrayFaultStart& s : grayFaultStarts_) {
        if (s.tier == e.tier && s.index == e.index &&
            s.atMicros <= e.atMicros && (!found || s.atMicros > onset)) {
          onset = s.atMicros;
          found = true;
        }
      }
      if (found) {
        counters_.detectionLagMicros +=
            static_cast<double>(e.atMicros - onset);
      }
      ++ejectionCursor_;
    }
  }
}

void Deployment::pruneInflight() {
  if (inflight_.size() < 4096) return;
  // dcache-lint: allow(unordered-iter, erase-only expiry of single-flight entries; each entry is judged against the sim clock alone, so visit order is immaterial)
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second <= simNowMicros_) {
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

void Deployment::clearMeters() {
  client_->clearMeters();
  app_->clearMeters();
  if (remoteTier_) remoteTier_->clearMeters();
  if (farTier_) farTier_->clearMeters();
  sql_->clearMeters();
  kv_->clearMeters();
  counters_.clear();
  latency_.clear();
  network_.clearCounters();
  channel_->clearFaultCounters();
  // Same windowing contract as the channel's fault counters: a measurement
  // window opened after warmup must not inherit warmup-era churn counts.
  if (membership_) membership_->clearCounters();
  // Traced CPU and metered CPU must cover the same window, or the
  // conservation invariant (traced <= metered, equal at sample 1) breaks.
  if (tracer_) tracer_->clear();
}

std::vector<const sim::Tier*> Deployment::tiers() const {
  std::vector<const sim::Tier*> out{client_.get(), app_.get()};
  if (remoteTier_) out.push_back(remoteTier_.get());
  if (farTier_) out.push_back(farTier_.get());
  out.push_back(sql_.get());
  out.push_back(kv_.get());
  return out;
}

util::Bytes Deployment::totalCacheMemoryProvisioned() const {
  util::Bytes total;
  if (linked_) total += config_.appCachePerNode * double(app_->size());
  if (remote_) {
    total += config_.remoteCachePerNode * double(remoteTier_->size());
  }
  if (disagg_) {
    total += config_.farMemoryPerNode * double(farTier_->size());
    total += config_.hotCachePerNode * double(app_->size());
  }
  total += config_.blockCachePerNode * double(kv_->size());
  return total;
}

}  // namespace dcache::core
