// Figure 9 — failure timeline: what each architecture's bill and behaviour
// look like when the cache actually fails. All four architectures serve the
// synthetic workload through a steady -> crash -> recovery timeline driven
// by a deterministic FaultSchedule:
//
//   window 0-1  steady state
//   window 2    a cache-bearing node crashes (app node for Linked/-Version,
//               remote pod for Remote, a KV node's block cache for Base),
//               coincident with a degraded-network window (2x latency, 1%
//               per-leg message drops) — failures cluster in practice
//   window 3-4  node stays down; survivors absorb the traffic
//   window 5    cold restart: ownership returns, caches re-warm
//   window 6-7  recovery
//
// Per window the bench reports hit ratio, storage-read amplification vs
// steady state, p99 latency, the retry/timeout anatomy and the CPU burned
// on legs that never paid off — then summarizes the provisioned-cost
// headroom each architecture needs to ride out its worst window. The paper
// prices steady state; this is the availability cost riding on top: Linked
// loses ~1/N of its hit ratio to a single crash and re-pays warmup twice,
// Remote degrades to storage for 1/N of keys, Base only re-warms a block
// cache. Every cell is seeded from (--seed, cell index) alone, so output
// is byte-identical for any --jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/matrix.hpp"
#include "sim/fault.hpp"
#include "timeline.hpp"
#include "util/table_printer.hpp"
#include "workload/synthetic.hpp"

using namespace dcache;

namespace {

constexpr core::Architecture kArchs[] = {
    core::Architecture::kBase, core::Architecture::kRemote,
    core::Architecture::kLinked, core::Architecture::kLinkedVersion};

/// Fixed: fig9 ignores DCACHE_GOLDEN_OPS, so its golden is full scale.
constexpr bench::OpBudget kBudget{/*warmupOps=*/120000, /*windowOps=*/30000};
constexpr std::size_t kWindows = 8;
constexpr std::size_t kCrashWindow = 2;
constexpr std::size_t kRestartWindow = 5;
constexpr double kDegradeLatencyFactor = 2.0;
constexpr double kDegradeDropProbability = 0.01;

constexpr const char* kPhases[kWindows] = {
    "steady",  "steady", "crash+degrade", "down",
    "down",    "restart(cold)", "rewarm", "rewarm"};

/// Tier whose node 0 the schedule crashes: wherever this architecture
/// keeps its cache.
[[nodiscard]] sim::TierKind crashTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote:
      return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated:
      return sim::TierKind::kFarMemory;
    case core::Architecture::kLinked:
    case core::Architecture::kLinkedVersion:
      return sim::TierKind::kAppServer;
    case core::Architecture::kBase:
      break;
  }
  return sim::TierKind::kKvStorage;  // Base: the block cache is the cache
}

bench::TimelineCell runTimelineCell(std::size_t index,
                                    std::uint64_t rootSeed) {
  const core::Architecture arch = kArchs[index];
  core::DeploymentConfig config;
  config.architecture = arch;
  config.faultSeed = core::cellSeed(rootSeed, index);
  workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
  bench::Timeline timeline(bench::withBenchTrace(config), workload, kBudget);
  timeline.warmup();

  sim::FaultSchedule faults;
  const sim::TierKind tier = crashTier(arch);
  faults.crashNode(timeline.windowStartMicros(kCrashWindow), tier, 0);
  faults.restartNode(timeline.windowStartMicros(kRestartWindow), tier, 0);
  faults.degradeNetwork(timeline.windowStartMicros(kCrashWindow),
                        timeline.windowStartMicros(kCrashWindow + 1),
                        kDegradeLatencyFactor, kDegradeDropProbability);
  timeline.deployment().installFaultSchedule(std::move(faults));
  return timeline.measure(kWindows);
}

/// Storage reads vs the steady window 0.
double amplification(const bench::TimelineCell& cell, std::size_t w) {
  const double steadyReads =
      static_cast<double>(cell.windows.front().counters.storageReads);
  return steadyReads > 0.0
             ? static_cast<double>(cell.windows[w].counters.storageReads) /
                   steadyReads
             : 1.0;
}

void printTimeline(const bench::TimelineCell& cell) {
  util::TablePrinter table({"window", "phase", "hit_ratio", "storage_reads",
                            "amp", "p99_us", "retries", "timeouts", "failed",
                            "degraded", "coalesced", "wasted_cpu_us",
                            "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const bench::TimelineWindow& row = cell.windows[w];
    const core::ServeCounters& c = row.counters;
    table.row(static_cast<unsigned long long>(w), kPhases[w], c.hitRatio(),
              static_cast<unsigned long long>(c.storageReads),
              amplification(cell, w), row.p99Micros,
              static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.timeouts),
              static_cast<unsigned long long>(c.failedCalls),
              static_cast<unsigned long long>(c.degradedReads),
              static_cast<unsigned long long>(c.coalescedMisses),
              c.wastedCpuMicros, row.bill().str());
  }
  table.print("\nFigure 9 [" + cell.architecture +
              "]: failure timeline (30K-op windows at 120K QPS)");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  const std::uint64_t rootSeed = benchOptions.matrix.rootSeed;
  const std::vector<bench::TimelineCell> cells =
      bench::runCells(std::size(kArchs), [rootSeed](std::size_t i) {
        return runTimelineCell(i, rootSeed);
      });

  for (const bench::TimelineCell& cell : cells) printTimeline(cell);

  // Provisioned-cost headroom: if the platform provisions for the worst
  // window instead of steady state (auto-scalers trigger on CPU), this is
  // the premium each architecture pays for its failure mode.
  util::TablePrinter summary({"architecture", "steady_cost", "peak_cost",
                              "peak_phase", "headroom_delta"});
  for (const bench::TimelineCell& cell : cells) {
    const util::Money steady = cell.windows.front().bill();
    util::Money peak = steady;
    std::size_t peakWindow = 0;
    for (std::size_t w = 0; w < cell.windows.size(); ++w) {
      if (cell.windows[w].bill().micros() > peak.micros()) {
        peak = cell.windows[w].bill();
        peakWindow = w;
      }
    }
    const double delta =
        steady.micros() > 0
            ? (static_cast<double>(peak.micros()) /
                   static_cast<double>(steady.micros()) -
               1.0) * 100.0
            : 0.0;
    char deltaCell[32];
    std::snprintf(deltaCell, sizeof deltaCell, "+%.1f%%", delta);
    summary.row(cell.architecture, steady.str(), peak.str(),
                kPhases[peakWindow], deltaCell);
  }
  summary.print("\nFigure 9 summary: provisioning for the worst window "
                "(peak vs steady headroom)");
  bench::finishTimeline(
      "fig9", cells,
      [](obs::MetricsRegistry& registry, const std::string& prefix,
         const bench::TimelineCell& cell) {
        for (std::size_t w = 0; w < cell.windows.size(); ++w) {
          registry.setGauge(bench::windowPrefix(prefix, w) + "amplification",
                            amplification(cell, w));
        }
      });
  return 0;
}
