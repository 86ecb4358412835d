// Figure 12 — membership churn: what planned topology change (rolling
// restarts, scale events, drains) costs each architecture, and whether warm
// key handoff buys its bandwidth back. fig9 crashed nodes; here every
// transition is *planned*, which means the system gets to choose a posture:
//
//   cold  ownership moves instantly and the departing shard dies with the
//         process — zero handoff bandwidth, full miss cliff (every moved
//         key is re-read from storage on first touch).
//   warm  the same schedule with handoff enabled: a leaving node drains out
//         of the ring but keeps serving through a bounded transfer window
//         while a background pump migrates its keys to the new owners in
//         rate-limited, RPC-batched transfers; misses at the new owner
//         dual-read the old owner before storage; writes that land
//         mid-window fence the old copy so nothing stale is resurrected.
//
// All five architectures run the same deterministic churn timeline against
// the tier that carries their cache state (Remote: cache pods, Disagg: the
// far-memory pool, others: the app tier):
//
//   window 0-1  steady state
//   window 2-3  rolling-restart wave: nodes 0 and 1 drain out and rejoin
//               half a window later, one per window (the deploy train)
//   window 4    scale-out: a provisioned-but-absent spare joins the ring
//   window 5    flash drain: node 2 leaves for good (scale-in, no rejoin)
//   window 6-7  recovery
//
// Per window the bench reports p50/p99, hit ratio, storage amplification
// (storage reads per read — the miss-storm metric), migration volume and
// fencing actions; the verdict tables give the churn-window p99 drag and
// amplification per posture, and the handoff bill: the $/op premium warm
// handoff pays during churn vs the peak-window bill a cold deployment must
// overprovision for. Every cell is seeded from (--seed, cell index) alone,
// so output is byte-identical at any --jobs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/matrix.hpp"
#include "core/membership.hpp"
#include "timeline.hpp"
#include "util/table_printer.hpp"
#include "workload/synthetic.hpp"

using namespace dcache;

namespace {

constexpr core::Architecture kArchs[] = {
    core::Architecture::kBase, core::Architecture::kRemote,
    core::Architecture::kLinked, core::Architecture::kLinkedVersion,
    core::Architecture::kDisaggregated};
constexpr std::size_t kNumArchs = std::size(kArchs);

enum class Posture : std::size_t { kCold = 0, kWarm = 1 };
constexpr std::size_t kPostures = 2;
constexpr const char* kPostureNames[kPostures] = {"cold", "warm"};

constexpr std::size_t kWindows = 8;
constexpr const char* kPhases[kWindows] = {"steady",   "steady",  "restart",
                                           "restart",  "scaleout", "drain",
                                           "recover",  "recover"};
constexpr std::size_t kRestartFrom = 2;   // windows [2,4): the deploy train
constexpr std::size_t kScaleOutWindow = 4;
constexpr std::size_t kDrainWindow = 5;
constexpr std::size_t kChurnFrom = 2, kChurnUntil = 6;  // churn windows [2,6)

struct Fig12Options {
  // The pump runs in the background QoS class (metered and billed, but
  // never queued ahead of foreground requests), so pacing only bounds how
  // much bandwidth the handoff bill line shows per window.
  std::size_t handoffKeysPerBatch = 512;
  std::uint64_t handoffBatchIntervalMicros = 1000;
};

/// fig12-specific flags (--hkeys N, --hinterval US); the shared flags were
/// already consumed by parseBenchOptions.
Fig12Options parseFig12Options(int argc, char** argv) {
  Fig12Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--hkeys")) {
      options.handoffKeysPerBatch = std::strtoull(v, nullptr, 10);
    } else if (const char* v =
                   bench::flagValue(argc, argv, i, "--hinterval")) {
      options.handoffBatchIntervalMicros = std::strtoull(v, nullptr, 10);
    }
  }
  return options;
}

/// Provisioning headroom the tier capacities are calibrated to (as in
/// fig10/fig11). 2x is enough to serve steady state comfortably but turns
/// a cold reshard's miss storm into real queueing at SQL/KV — which is
/// exactly why operators overprovision through deploy trains.
constexpr double kHeadroomFactor = 2.0;

/// Tier the churn timeline runs against: wherever this architecture keeps
/// its cache state. Base has no cache tier; churning its app servers shows
/// the null story (routing around, no state to move).
[[nodiscard]] sim::TierKind churnTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote: return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated: return sim::TierKind::kFarMemory;
    default: return sim::TierKind::kAppServer;
  }
}

bench::TimelineCell runChurnCell(std::size_t index, std::uint64_t rootSeed,
                                 const Fig12Options& options,
                                 const bench::OpBudget& budget) {
  const core::Architecture arch = kArchs[index % kNumArchs];
  const Posture posture = static_cast<Posture>(index / kNumArchs);
  const sim::TierKind tier = churnTier(arch);

  core::DeploymentConfig config;
  config.architecture = arch;
  config.faultSeed = core::cellSeed(rootSeed, index);
  // Finite tier capacities (identical for both postures): a cold reshard's
  // miss storm has to queue at SQL/KV, which is what drags the tail.
  bench::applyHeadroom(config.overload, bench::calibrateDemand(arch, budget),
                       kHeadroomFactor);
  // The churn tier carries one provisioned-but-absent spare (index 3) for
  // the scale-out step; the base fleet is nodes 0-2.
  switch (tier) {
    case sim::TierKind::kRemoteCache: config.remoteCacheNodes = 4; break;
    case sim::TierKind::kFarMemory: config.farMemoryNodes = 4; break;
    default: config.appServers = 4; break;
  }
  workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
  bench::Timeline timeline(bench::withBenchTrace(config), workload, budget);

  // The churn timeline. The handoff window is a quarter of a bench window —
  // half the rolling-restart downtime, so a draining node is fully retired
  // before its replacement rejoins.
  const std::uint64_t windowMicros = timeline.windowMicros();
  core::MembershipSchedule schedule;
  schedule.startAbsent(tier, 3);
  schedule.rollingRestart(timeline.windowStartMicros(kRestartFrom), tier,
                          /*firstNode=*/0, /*count=*/2,
                          /*stepMicros=*/windowMicros,
                          /*downMicros=*/windowMicros / 2);
  schedule.join(timeline.windowStartMicros(kScaleOutWindow), tier, 3);
  schedule.leave(timeline.windowStartMicros(kDrainWindow), tier, 2);
  core::HandoffConfig handoff;
  handoff.enabled = posture == Posture::kWarm;
  handoff.windowMicros = windowMicros / 4;
  handoff.keysPerBatch = options.handoffKeysPerBatch;
  handoff.batchIntervalMicros = options.handoffBatchIntervalMicros;
  timeline.deployment().installMembershipSchedule(std::move(schedule),
                                                  handoff);

  timeline.warmup();
  bench::TimelineCell cell = timeline.measure(kWindows);
  cell.posture = kPostureNames[static_cast<std::size_t>(posture)];
  return cell;
}

/// Storage reads per read — the miss-storm metric.
double storageAmp(const bench::TimelineWindow& window) {
  const core::ServeCounters& c = window.counters;
  return c.reads > 0 ? static_cast<double>(c.storageReads) /
                           static_cast<double>(c.reads)
                     : 0.0;
}

void printCell(const bench::TimelineCell& cell,
               const bench::OpBudget& budget) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us",
                            "hit_ratio", "storage_amp", "joins", "leaves",
                            "migr_keys", "migr_kb", "fallback", "fences",
                            "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const bench::TimelineWindow& row = cell.windows[w];
    const core::ServeCounters& c = row.counters;
    table.row(static_cast<unsigned long long>(w), kPhases[w], row.p50Micros,
              row.p99Micros, c.hitRatio(), storageAmp(row),
              static_cast<unsigned long long>(c.plannedJoins),
              static_cast<unsigned long long>(c.plannedLeaves),
              static_cast<unsigned long long>(c.migratedKeys),
              static_cast<unsigned long long>(c.migratedBytes / 1024),
              static_cast<unsigned long long>(c.handoffFallbackReads),
              static_cast<unsigned long long>(c.epochFences),
              row.bill().str());
  }
  char title[160];
  std::snprintf(
      title, sizeof title,
      "\nFigure 12 [%s, posture=%s]: membership-churn timeline (%lluK-op "
      "windows)",
      cell.architecture.c_str(), cell.posture.c_str(),
      static_cast<unsigned long long>(budget.windowOps / 1000));
  table.print(title);
}

/// Steady-state reference: window 1 (window 0 still carries residual
/// warmup drift in some cells).
double steadyP99(const bench::TimelineCell& cell) {
  return cell.windows[1].p99Micros;
}

double worstChurnP99(const bench::TimelineCell& cell) {
  double worst = 0.0;
  for (std::size_t w = kChurnFrom; w < kChurnUntil; ++w) {
    worst = std::max(worst, cell.windows[w].p99Micros);
  }
  return worst;
}

double worstChurnAmp(const bench::TimelineCell& cell) {
  double worst = 0.0;
  for (std::size_t w = kChurnFrom; w < kChurnUntil; ++w) {
    worst = std::max(worst, storageAmp(cell.windows[w]));
  }
  return worst;
}

/// Sum of one counter over every window.
std::uint64_t total(const bench::TimelineCell& cell,
                    std::uint64_t core::ServeCounters::*counter) {
  std::uint64_t sum = 0;
  for (const bench::TimelineWindow& row : cell.windows) {
    sum += row.counters.*counter;
  }
  return sum;
}

/// Churn premium in $/K-ops: how much the churn windows' bill exceeds the
/// same posture's steady-state bill, normalized per thousand served ops.
double churnPremiumPerKop(const bench::TimelineCell& cell,
                          const bench::OpBudget& budget) {
  const double steadyMicros =
      static_cast<double>(cell.windows[1].bill().micros());
  double excessMicros = 0.0;
  for (std::size_t w = kChurnFrom; w < kChurnUntil; ++w) {
    excessMicros +=
        static_cast<double>(cell.windows[w].bill().micros()) - steadyMicros;
  }
  const double kops = static_cast<double>(budget.windowOps) *
                      static_cast<double>(kChurnUntil - kChurnFrom) / 1000.0;
  return kops > 0.0 ? excessMicros / 1e6 / kops : 0.0;
}

util::Money peakWindowCost(const bench::TimelineCell& cell) {
  util::Money peak = cell.windows[0].bill();
  for (const bench::TimelineWindow& row : cell.windows) {
    if (row.bill().micros() > peak.micros()) peak = row.bill();
  }
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  const Fig12Options fig12 = parseFig12Options(argc, argv);
  const std::uint64_t rootSeed = benchOptions.matrix.rootSeed;
  const bench::OpBudget budget = bench::opBudget();

  const std::vector<bench::TimelineCell> cells = bench::runCells(
      kPostures * kNumArchs, [rootSeed, &fig12, &budget](std::size_t i) {
        return runChurnCell(i, rootSeed, fig12, budget);
      });

  for (const bench::TimelineCell& cell : cells) printCell(cell, budget);

  // The churn verdict: how far the deploy train + scale events drag p99
  // and storage amplification off each posture's own steady state. The
  // acceptance story: cold, the rolling restart turns into a storage miss
  // storm; warm, migration + dual reads keep both near steady.
  util::TablePrinter verdict({"architecture", "p99_steady", "drag_cold",
                              "drag_warm", "amp_steady", "amp_cold",
                              "amp_warm", "migr_keys", "fallback"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const bench::TimelineCell& cold = cells[a];
    const bench::TimelineCell& warm = cells[a + kNumArchs];
    const auto drag = [](const bench::TimelineCell& cell) {
      const double steady = steadyP99(cell);
      return steady > 0.0 ? worstChurnP99(cell) / steady : 0.0;
    };
    char dragCold[24], dragWarm[24];
    std::snprintf(dragCold, sizeof dragCold, "%.2fx", drag(cold));
    std::snprintf(dragWarm, sizeof dragWarm, "%.2fx", drag(warm));
    verdict.row(cold.architecture, steadyP99(cold), dragCold, dragWarm,
                storageAmp(cold.windows[1]), worstChurnAmp(cold),
                worstChurnAmp(warm),
                static_cast<unsigned long long>(
                    total(warm, &core::ServeCounters::migratedKeys)),
                static_cast<unsigned long long>(
                    total(warm, &core::ServeCounters::handoffFallbackReads)));
  }
  verdict.print(
      "\nFigure 12 verdict: churn-window p99 drag and storage amplification "
      "(reads hitting storage per read), cold reshard vs warm handoff");

  // The handoff bill: warm handoff pays migration CPU + wire bytes as a
  // small premium during churn; cold pays a storage miss storm whose peak
  // window is what an auto-scaler must overprovision for. Premiums are
  // $/K-ops over the same posture's steady bill; peaks are the worst
  // window's bill at the monthly rate.
  util::TablePrinter bill({"architecture", "migr_mb", "warm_usd_per_kop",
                           "cold_usd_per_kop", "peak_cold", "peak_warm"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const bench::TimelineCell& cold = cells[a];
    const bench::TimelineCell& warm = cells[a + kNumArchs];
    char migrMb[24], warmPrem[24], coldPrem[24];
    std::snprintf(
        migrMb, sizeof migrMb, "%.1f",
        static_cast<double>(total(warm, &core::ServeCounters::migratedBytes)) /
            (1024.0 * 1024.0));
    std::snprintf(warmPrem, sizeof warmPrem, "%.6f",
                  churnPremiumPerKop(warm, budget));
    std::snprintf(coldPrem, sizeof coldPrem, "%.6f",
                  churnPremiumPerKop(cold, budget));
    bill.row(cold.architecture, migrMb, warmPrem, coldPrem,
             peakWindowCost(cold).str(), peakWindowCost(warm).str());
  }
  bill.print(
      "\nFigure 12 handoff bill: migration volume and the churn-window cost "
      "premium per posture ($/K-ops over own steady state)");

  bench::finishTimeline(
      "fig12", cells,
      [](obs::MetricsRegistry& registry, const std::string& prefix,
         const bench::TimelineCell& cell) {
        for (std::size_t w = 0; w < cell.windows.size(); ++w) {
          registry.setGauge(bench::windowPrefix(prefix, w) + "storage_amp",
                            storageAmp(cell.windows[w]));
        }
        registry.setCounter(prefix + "migrated_keys_total",
                            total(cell, &core::ServeCounters::migratedKeys));
        registry.setCounter(
            prefix + "handoff_fallback_reads_total",
            total(cell, &core::ServeCounters::handoffFallbackReads));
      });
  return 0;
}
