// Chaos fuzzing: ~50 seeded random combinations of fault schedules
// (crashes, restarts, degraded-network windows, and the gray kinds — slow
// nodes, partial partitions, flaky nodes), overload regimes (finite
// capacities, surging arrival rates, shedding / breakers / hedging /
// deadline budgets toggled at random), randomly armed gray defenses
// (health monitoring, cache replication), and random planned-churn
// schedules (joins, drains, rolling-restart waves, with warm handoff on or
// off) thrown at random architectures. Every combination must uphold the
// simulator's core invariants:
//
//   * counter conservation — ops in equals ops accounted, reads decompose
//     into hit + miss + shed exactly;
//   * CPU conservation — at trace-sample 1 the traced CPU equals the tier
//     meters (every charge flows through the one Node::charge funnel, no
//     matter which defense or failure path spent it);
//   * no negative or impossible meters;
//   * bit-for-bit determinism — the same seed yields the same counters and
//     the same metered total on every run, whether the cells execute on
//     one worker thread or eight (the --jobs contract of every bench).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/deployment.hpp"
#include "core/membership.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/synthetic.hpp"

namespace dcache {
namespace {

constexpr int kTrials = 50;
constexpr std::uint64_t kWarmupOps = 500;
constexpr std::uint64_t kMeasuredOps = 2500;
constexpr double kQps = 120000.0;

struct ChaosOutcome {
  core::Architecture architecture = core::Architecture::kBase;
  core::ServeCounters counters;
  double meteredTotal = 0.0;
  double tracedTotal = 0.0;
  bool overloadEnabled = false;
  bool shedEnabled = false;
  bool healthEnabled = false;
  bool replicationOn = false;
  bool membershipOn = false;
  bool handoffOn = false;
  std::uint64_t scheduledChurnEvents = 0;
  std::uint64_t workloadKeys = 0;
};

[[nodiscard]] double uniform(util::Pcg32& rng, double lo, double hi) {
  return lo + (hi - lo) * util::uniform01(rng);
}

/// One fully random scenario, deterministic in `seed`. All randomness is
/// drawn up front from the seed's own Pcg32 stream, so a trial replays
/// bit-for-bit regardless of which thread runs it.
ChaosOutcome runChaosTrial(std::uint64_t seed) {
  util::Pcg32 rng(seed, 0xc0ffee);

  constexpr core::Architecture kArchs[] = {
      core::Architecture::kBase, core::Architecture::kRemote,
      core::Architecture::kLinked, core::Architecture::kLinkedVersion,
      core::Architecture::kDisaggregated};
  const core::Architecture arch = kArchs[rng.nextBounded(5)];

  core::DeploymentConfig config;
  config.architecture = arch;
  config.faultSeed = seed * 2654435761u + 17;
  config.trace.sampleEvery = 1;  // full sampling: conservation is exact
  config.trace.seed = seed + 5;

  ChaosOutcome outcome;
  outcome.architecture = arch;
  // Roll the overload regime: about half the trials run with finite
  // capacity, and each defense toggles independently.
  if (rng.nextBounded(2) == 0) {
    // Loose to brutally tight: 4000 µs/s per app node is far below any
    // architecture's steady demand at this pace, so deep saturation,
    // rejection storms and recovery all get exercised across trials.
    config.overload.appCapacityMicrosPerSec = uniform(rng, 4000.0, 400000.0);
    config.overload.maxQueueWaitMicros = uniform(rng, 2000.0, 50000.0);
  }
  if (rng.nextBounded(2) == 0) {
    config.overload.shed.enabled = true;
    config.overload.shed.targetDelayMicros = uniform(rng, 200.0, 3000.0);
    config.overload.shed.graceMicros = uniform(rng, 0.0, 3000.0);
    config.overload.shed.rampMicros = uniform(rng, 500.0, 5000.0);
  }
  if (rng.nextBounded(2) == 0) config.overload.breakersEnabled = true;
  if (rng.nextBounded(2) == 0) config.overload.hedgingEnabled = true;
  if (rng.nextBounded(2) == 0) {
    config.rpcPolicy.deadlineMicros = uniform(rng, 1000.0, 10000.0);
  }
  // Gray-failure defenses toggle independently of the faults, so every
  // combination gets exercised: defenses with nothing to catch, gray
  // faults with no defense, and the full detect-and-route-around loop.
  if (rng.nextBounded(2) == 0) config.health.enabled = true;
  if (rng.nextBounded(2) == 0) config.cacheReplicationFactor = 2;
  outcome.overloadEnabled = config.overload.enabled();
  outcome.shedEnabled = config.overload.shed.enabled;
  outcome.healthEnabled = config.health.enabled;

  core::Deployment deployment(config);
  outcome.replicationOn = deployment.replicationInstalled();
  workload::SyntheticConfig synthetic;
  synthetic.seed = seed + 1000;
  workload::SyntheticWorkload workload{synthetic};
  deployment.populateKv(workload);

  // Random arrival-rate schedule: a handful of phases, each pacing the sim
  // clock at 0.5x..8x the base rate — surges and lulls in one stream.
  std::array<double, 4> multipliers{};
  for (double& m : multipliers) m = uniform(rng, 0.5, 8.0);

  // Random fault schedule over the measured window: up to 2 crash/restart
  // pairs on random tiers plus up to 1 degraded-network window.
  const double horizonMicros =
      static_cast<double>(kWarmupOps + kMeasuredOps) * (1e6 / kQps);
  sim::FaultSchedule faults;
  // Faults aimed at a tier the architecture does not build are no-ops, so
  // every kind is drawable for every arch.
  constexpr sim::TierKind kCrashable[] = {
      sim::TierKind::kAppServer, sim::TierKind::kRemoteCache,
      sim::TierKind::kSqlFrontend, sim::TierKind::kKvStorage,
      sim::TierKind::kFarMemory};
  const std::uint32_t crashes = rng.nextBounded(3);
  for (std::uint32_t i = 0; i < crashes; ++i) {
    const sim::TierKind tier = kCrashable[rng.nextBounded(5)];
    const std::size_t node = rng.nextBounded(3);
    const double down = uniform(rng, 0.0, horizonMicros * 0.8);
    faults.crashNode(static_cast<std::uint64_t>(down), tier, node);
    faults.restartNode(
        static_cast<std::uint64_t>(
            uniform(rng, down, down + horizonMicros * 0.2)),
        tier, node);
  }
  if (rng.nextBounded(2) == 0) {
    const double start = uniform(rng, 0.0, horizonMicros * 0.7);
    faults.degradeNetwork(
        static_cast<std::uint64_t>(start),
        static_cast<std::uint64_t>(
            uniform(rng, start, start + horizonMicros * 0.3)),
        uniform(rng, 1.0, 4.0), uniform(rng, 0.0, 0.05));
  }
  // Gray kinds: up to one slow-node window, one flaky-node window and one
  // asymmetric partition per trial, on random tiers/nodes. Windows may be
  // drawn inverted on purpose — the builders clamp them empty.
  if (rng.nextBounded(2) == 0) {
    const double start = uniform(rng, 0.0, horizonMicros * 0.7);
    faults.slowNode(static_cast<std::uint64_t>(start),
                    static_cast<std::uint64_t>(
                        uniform(rng, start, start + horizonMicros * 0.3)),
                    kCrashable[rng.nextBounded(5)], rng.nextBounded(3),
                    uniform(rng, 1.0, 20.0));
  }
  if (rng.nextBounded(2) == 0) {
    const double start = uniform(rng, 0.0, horizonMicros * 0.7);
    faults.flakyNode(static_cast<std::uint64_t>(start),
                     static_cast<std::uint64_t>(
                         uniform(rng, start, start + horizonMicros * 0.3)),
                     kCrashable[rng.nextBounded(5)], rng.nextBounded(3),
                     uniform(rng, 0.0, 0.6));
  }
  if (rng.nextBounded(2) == 0) {
    const double start = uniform(rng, 0.0, horizonMicros * 0.7);
    const sim::TierKind from = kCrashable[rng.nextBounded(5)];
    const sim::TierKind to = kCrashable[rng.nextBounded(5)];
    faults.partialPartition(
        static_cast<std::uint64_t>(start),
        static_cast<std::uint64_t>(
            uniform(rng, start, start + horizonMicros * 0.3)),
        from, to);
  }
  deployment.installFaultSchedule(std::move(faults));
  outcome.workloadKeys = synthetic.numKeys;

  // Random planned-churn schedule on about half the trials, interleaved
  // with the crash/gray faults above: joins (possibly of already-present
  // nodes — idempotency coverage), drains, and rolling-restart waves on
  // random tiers, replayed warm or cold at random.
  if (rng.nextBounded(2) == 0) {
    outcome.membershipOn = true;
    core::MembershipSchedule schedule;
    constexpr sim::TierKind kChurnable[] = {sim::TierKind::kAppServer,
                                            sim::TierKind::kRemoteCache,
                                            sim::TierKind::kFarMemory};
    const std::uint32_t churnEvents = 1 + rng.nextBounded(3);
    for (std::uint32_t i = 0; i < churnEvents; ++i) {
      const sim::TierKind tier = kChurnable[rng.nextBounded(3)];
      const auto at = static_cast<std::uint64_t>(
          uniform(rng, 0.0, horizonMicros * 0.8));
      switch (rng.nextBounded(3)) {
        case 0:
          schedule.join(at, tier, rng.nextBounded(3));
          outcome.scheduledChurnEvents += 1;
          break;
        case 1:
          schedule.leave(at, tier, rng.nextBounded(3));
          outcome.scheduledChurnEvents += 1;
          break;
        default: {
          const auto step = static_cast<std::uint64_t>(
              uniform(rng, 1000.0, horizonMicros * 0.2));
          schedule.rollingRestart(at, tier, 0, 2, step, step / 2);
          outcome.scheduledChurnEvents += 4;  // 2 leaves + 2 joins
          break;
        }
      }
    }
    core::HandoffConfig handoff;
    handoff.enabled = rng.nextBounded(2) == 0;
    handoff.windowMicros = static_cast<std::uint64_t>(
        uniform(rng, 1000.0, horizonMicros * 0.3));
    handoff.keysPerBatch = 1 + rng.nextBounded(128);
    handoff.batchIntervalMicros = 200 + rng.nextBounded(2000);
    outcome.handoffOn = handoff.enabled;
    deployment.installMembershipSchedule(std::move(schedule), handoff);
  }

  double simMicros = 0.0;
  std::uint64_t opIndex = 0;
  auto serveOne = [&] {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(simMicros));
    const double multiplier =
        multipliers[(opIndex / 700) % multipliers.size()];
    simMicros += 1e6 / (kQps * multiplier);
    ++opIndex;
    deployment.serve(workload.next());
  };
  for (std::uint64_t i = 0; i < kWarmupOps; ++i) serveOne();
  deployment.clearMeters();
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) serveOne();

  outcome.counters = deployment.counters();
  for (const sim::Tier* tier : deployment.tiers()) {
    outcome.meteredTotal += tier->aggregateCpu().totalMicros();
  }
  EXPECT_NE(deployment.tracer(), nullptr);
  outcome.tracedTotal = deployment.tracer()->summary().cpuMicrosTotal;
  return outcome;
}

[[nodiscard]] double tolerance(double reference) {
  return 1e-6 * std::max(1.0, reference);
}

/// Field-complete determinism check: every ServeCounters field must replay
/// bit-for-bit. core::differingCounters is generated from the counter list,
/// so a new counter is covered here without an edit, and a failure names
/// the fields that diverged.
void expectCountersEqual(const core::ServeCounters& a,
                         const core::ServeCounters& b) {
  EXPECT_EQ(core::differingCounters(a, b), std::vector<std::string_view>{});
}

void checkInvariants(const ChaosOutcome& outcome, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const core::ServeCounters& c = outcome.counters;

  // Ops in == ops accounted.
  EXPECT_EQ(c.reads + c.writes, kMeasuredOps);

  // Reads decompose exactly: every read either probed a cache (hit or
  // miss) or was shed at admission; Base has no cache, so every non-shed
  // read is exactly one storage round trip.
  if (outcome.architecture == core::Architecture::kBase) {
    EXPECT_EQ(c.cacheHits + c.cacheMisses, 0u);
    EXPECT_EQ(c.storageReads, c.reads - c.sheddedRequests);
  } else {
    EXPECT_EQ(c.cacheHits + c.cacheMisses + c.sheddedRequests, c.reads);
  }
  EXPECT_LE(c.sheddedRequests, c.reads);
  if (!outcome.shedEnabled) EXPECT_EQ(c.sheddedRequests, 0u);

  // Weak conservation bounds on the remaining counters: mismatches are a
  // subset of checks, client-visible failures are a subset of ops, and
  // single-flight coalescing only ever joins read-path misses.
  EXPECT_LE(c.versionMismatches, c.versionChecks);
  EXPECT_LE(c.failedOps, c.reads + c.writes);
  EXPECT_LE(c.coalescedMisses, c.reads);

  // No impossible meters.
  EXPECT_GE(outcome.meteredTotal, 0.0);
  EXPECT_GE(c.wastedCpuMicros, 0.0);
  EXPECT_LE(c.wastedCpuMicros,
            outcome.meteredTotal + tolerance(outcome.meteredTotal));
  EXPECT_LE(c.hedgeWins, c.hedgesSent);
  if (!outcome.overloadEnabled) {
    EXPECT_EQ(c.queueTimeouts + c.queueRejections + c.breakerOpens +
                  c.breakerShortCircuits + c.hedgesSent,
              0u);
  }

  // Gray-failure accounting stays zero unless its defense is armed, and
  // within weak conservation bounds when it is: fallbacks and stale reads
  // are read-path events, ejections carry non-negative detection lag.
  if (!outcome.healthEnabled) {
    EXPECT_EQ(c.ejectedNodes, 0u);
    EXPECT_EQ(c.detectionLagMicros, 0.0);
  }
  if (!outcome.replicationOn) {
    EXPECT_EQ(c.replicaFallbackReads + c.staleReplicaReads +
                  c.replicaWriteFanout,
              0u);
  }
  EXPECT_LE(c.replicaFallbackReads, c.reads);
  EXPECT_LE(c.staleReplicaReads, c.reads);
  EXPECT_GE(c.detectionLagMicros, 0.0);

  // Far-memory accounting exists only under kDisaggregated, and stays
  // within its serve-path bounds when it does: at most one one-sided read
  // per served read, and hot hits are a subset of cache hits.
  if (outcome.architecture != core::Architecture::kDisaggregated) {
    EXPECT_EQ(c.farMemoryReads, 0u);
    EXPECT_EQ(c.farMemoryBytes, 0u);
    EXPECT_EQ(c.hotCacheHits, 0u);
    EXPECT_EQ(c.clientInvalidations, 0u);
  } else {
    EXPECT_LE(c.farMemoryReads, c.reads);
    EXPECT_LE(c.hotCacheHits, c.cacheHits);
  }

  // Membership-churn conservation. No schedule installed means every churn
  // counter is exactly zero; with a schedule but handoff disabled (cold
  // reshard) nothing may migrate and no dual-read may fire. Applied events
  // are bounded by the schedule (the director may *drop* events — e.g. a
  // drain of the last ring member — but never invent them), each migration
  // moves a key the workload inserted (at most once per planned event),
  // and a dual-read fallback rescues at most one read.
  if (!outcome.membershipOn) {
    EXPECT_EQ(c.plannedJoins, 0u);
    EXPECT_EQ(c.plannedLeaves, 0u);
    EXPECT_EQ(c.epochFences, 0u);
  }
  EXPECT_LE(c.plannedJoins + c.plannedLeaves, outcome.scheduledChurnEvents);
  if (!outcome.membershipOn || !outcome.handoffOn) {
    EXPECT_EQ(c.migratedKeys, 0u);
    EXPECT_EQ(c.migratedBytes, 0u);
    EXPECT_EQ(c.handoffFallbackReads, 0u);
  }
  EXPECT_LE(c.handoffFallbackReads, c.reads);
  EXPECT_LE(c.migratedKeys,
            outcome.workloadKeys * (c.plannedJoins + c.plannedLeaves));
  // Synthetic values are fixed-size, so migrated bytes decompose exactly.
  EXPECT_EQ(c.migratedBytes, c.migratedKeys * 4096u);

  // CPU conservation at full sampling: the trace saw every charge the
  // meters saw — shed triage, wasted retry legs, hedge attempts and all.
  EXPECT_NEAR(outcome.tracedTotal, outcome.meteredTotal,
              tolerance(outcome.meteredTotal));
}

TEST(ChaosFuzz, InvariantsHoldAcrossRandomFaultAndOverloadSchedules) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(9000 + trial);
    checkInvariants(runChaosTrial(seed), seed);
  }
}

TEST(ChaosFuzz, SameSeedReplaysBitForBit) {
  for (std::uint64_t seed : {9001ull, 9017ull, 9042ull}) {
    const ChaosOutcome a = runChaosTrial(seed);
    const ChaosOutcome b = runChaosTrial(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectCountersEqual(a.counters, b.counters);
    // Exact double equality: determinism means bit-for-bit, not "close".
    EXPECT_EQ(a.meteredTotal, b.meteredTotal);
    EXPECT_EQ(a.tracedTotal, b.tracedTotal);
  }
}

TEST(ChaosFuzz, ResultsIdenticalAcrossWorkerCounts) {
  // The --jobs contract, at unit scale: mapOrdered over chaos trials must
  // produce identical outcomes on 1 worker and on 8.
  constexpr std::size_t kCells = 8;
  auto runAll = [&](std::size_t jobs) {
    util::ThreadPool pool(jobs);
    auto results = util::mapOrdered(pool, kCells, [](std::size_t i) {
      return runChaosTrial(7000 + static_cast<std::uint64_t>(i));
    });
    pool.wait();
    return results;
  };
  const std::vector<ChaosOutcome> serial = runAll(1);
  const std::vector<ChaosOutcome> parallel = runAll(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expectCountersEqual(serial[i].counters, parallel[i].counters);
    EXPECT_EQ(serial[i].meteredTotal, parallel[i].meteredTotal);
    EXPECT_EQ(serial[i].tracedTotal, parallel[i].tracedTotal);
  }
}

}  // namespace
}  // namespace dcache
