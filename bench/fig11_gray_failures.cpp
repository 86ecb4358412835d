// Figure 11 — gray failures and the cost of the nines: what a node that is
// sick-but-not-dead does to each architecture, and what it costs to defend
// against it. Hard crashes (fig9) are the easy case — the load balancer
// sees a dead pod and routes around it. A gray failure passes every health
// check: the node answers, just 10x slower, or drops a third of its
// messages, or is reachable from only one direction. All four
// architectures serve the synthetic workload through the same deterministic
// gray-fault timeline. Every tier gets a finite capacity (self-calibrated
// to 2x its steady CPU demand, as in fig10), because that is what makes a
// slow node dangerous in practice: its work takes 10x the core-micros, its
// queue outgrows the RPC timeout, and every request routed to it times out
// while the node still passes health checks. The timeline:
//
//   window 0-1  steady state
//   window 2-3  slow node: the cache-bearing node 0 runs --slow x slower
//               (CPU and every RPC leg it touches)
//   window 4    asymmetric partition: requests toward the cache (Remote)
//               or toward KV storage (others) are lost; replies and the
//               reverse direction still flow
//   window 5    flaky node: node 0 drops each message leg with --flakyp
//   window 6-7  recovery
//
// Each architecture runs the timeline three ways:
//   none     retries/timeouts only — the fig9 baseline posture
//   breaker  + per-destination circuit breakers (PR 4's defense; binary,
//            blind to slow-but-answering nodes)
//   full     + deterministic health monitoring with outlier ejection and
//            probing re-admission, and cache replication --rf with
//            replica-fallback reads and write-all fan-out
//
// Per window the bench reports p50/p99, hit ratio, goodput, ejections,
// fallback/stale replica reads and fan-out writes; the summary gives the
// tail drag per posture (the acceptance story: bare, the slow node drags
// p99 several-fold; full, the tail stays near steady), the detection lag,
// and the "cost of the nines" — the steady-state premium the defenses
// bill (fan-out CPU, probe traffic) against the provisioning headroom
// you'd need to ride the gray window out bare. Every cell is seeded from
// (--seed, cell index) alone, so output is byte-identical at any --jobs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
    core::Architecture::kLinked, core::Architecture::kLinkedVersion,
    core::Architecture::kDisaggregated};
constexpr std::size_t kNumArchs = std::size(kArchs);

enum class Posture : std::size_t { kNone = 0, kBreaker = 1, kFull = 2 };
constexpr std::size_t kPostures = 3;
constexpr const char* kPostureNames[kPostures] = {"none", "breaker", "full"};

constexpr std::size_t kWindows = 8;
constexpr const char* kPhases[kWindows] = {"steady",    "steady", "slow",
                                           "slow",      "partition", "flaky",
                                           "recover",   "recover"};
constexpr std::size_t kSlowFrom = 2, kSlowUntil = 4;   // windows [2,4)
constexpr std::size_t kPartitionWindow = 4;            // window  [4,5)
constexpr std::size_t kFlakyWindow = 5;                // window  [5,6)

struct Fig11Options {
  double slowFactor = 10.0;
  double flakyDrop = 0.3;
  std::size_t replicationFactor = 2;
};

/// fig11-specific flags (--slow X, --flakyp P, --rf N); the shared flags
/// were already consumed by parseBenchOptions.
Fig11Options parseFig11Options(int argc, char** argv) {
  Fig11Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--slow")) {
      options.slowFactor = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--flakyp")) {
      options.flakyDrop = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--rf")) {
      options.replicationFactor = std::strtoull(v, nullptr, 10);
    }
  }
  return options;
}

/// Provisioning headroom the capacities are calibrated to. Higher than
/// fig10's 2x on purpose: when a node is ejected its replica absorbs the
/// displaced traffic, so surviving a single-node gray failure needs the
/// remaining nodes to run doubled load below saturation.
constexpr double kHeadroomFactor = 3.0;

/// Tier whose node 0 the gray faults target: wherever this architecture
/// keeps its cache-adjacent hot path. Base has no cache tier; its app node
/// going gray is the closest equivalent.
[[nodiscard]] sim::TierKind grayTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote: return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated: return sim::TierKind::kFarMemory;
    default: return sim::TierKind::kAppServer;
  }
}

/// The gray-fault timeline against `arch`, in window-start times.
sim::FaultSchedule grayFaults(core::Architecture arch,
                              const Fig11Options& options,
                              const bench::Timeline& timeline) {
  const auto at = [&timeline](std::size_t window) {
    return timeline.windowStartMicros(window);
  };
  sim::FaultSchedule faults;
  const sim::TierKind tier = grayTier(arch);
  faults.slowNode(at(kSlowFrom), at(kSlowUntil), tier, 0, options.slowFactor);
  if (arch == core::Architecture::kRemote) {
    // Requests toward the cache are lost; replies still flow — the cache
    // looks healthy from its own side while every client call times out.
    faults.partialPartition(at(kPartitionWindow), at(kPartitionWindow + 1),
                            sim::TierKind::kAppServer,
                            sim::TierKind::kRemoteCache);
  } else if (arch == core::Architecture::kDisaggregated) {
    // One-sided reads toward the far-memory pool are lost; the pool itself
    // is healthy, so only the clients see the outage.
    faults.partialPartition(at(kPartitionWindow), at(kPartitionWindow + 1),
                            sim::TierKind::kAppServer,
                            sim::TierKind::kFarMemory);
  } else {
    // SQL -> KV requests are lost: the miss path (and Base's every read)
    // stalls while a warm cache shields whatever it already holds.
    faults.partialPartition(at(kPartitionWindow), at(kPartitionWindow + 1),
                            sim::TierKind::kSqlFrontend,
                            sim::TierKind::kKvStorage);
  }
  faults.flakyNode(at(kFlakyWindow), at(kFlakyWindow + 1), tier, 0,
                   options.flakyDrop);
  return faults;
}

struct GrayCell : bench::TimelineCell {
  std::uint64_t totalEjections = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t probesGranted = 0;
};

GrayCell runGrayCell(std::size_t index, std::uint64_t rootSeed,
                     const Fig11Options& options,
                     const bench::OpBudget& budget) {
  const core::Architecture arch = kArchs[index % kNumArchs];
  const Posture posture = static_cast<Posture>(index / kNumArchs);

  core::DeploymentConfig config;
  config.architecture = arch;
  config.faultSeed = core::cellSeed(rootSeed, index);
  bench::applyHeadroom(config.overload, bench::calibrateDemand(arch, budget),
                       kHeadroomFactor);
  if (posture == Posture::kBreaker || posture == Posture::kFull) {
    // Breakers alone (no tier capacities): the PR 4 defense at its best.
    config.overload.breakersEnabled = true;
    config.overload.breaker.openMicros = 20000.0;
  }
  if (posture == Posture::kFull) {
    config.health.enabled = true;
    config.cacheReplicationFactor = options.replicationFactor;
  }
  workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
  bench::Timeline timeline(bench::withBenchTrace(config), workload, budget);
  timeline.warmup();
  timeline.deployment().installFaultSchedule(
      grayFaults(arch, options, timeline));
  GrayCell cell{timeline.measure(kWindows)};
  cell.posture = kPostureNames[static_cast<std::size_t>(posture)];
  if (const core::HealthMonitor* monitor =
          timeline.deployment().healthMonitor()) {
    cell.totalEjections = monitor->totalEjections();
    cell.readmissions = monitor->readmissions();
    cell.probesGranted = monitor->probesGranted();
  }
  return cell;
}

/// Fraction of the window's ops whose client leg answered.
double goodput(const bench::TimelineWindow& window) {
  const core::ServeCounters& c = window.counters;
  const double ops = static_cast<double>(c.reads + c.writes);
  return (ops - static_cast<double>(c.failedOps)) / ops;
}

void printCell(const GrayCell& cell, const bench::OpBudget& budget) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us", "goodput",
                            "hit_ratio", "degraded", "retries", "timeouts",
                            "failed", "brk_sc", "eject", "fallback", "stale",
                            "fanout", "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const bench::TimelineWindow& row = cell.windows[w];
    const core::ServeCounters& c = row.counters;
    table.row(static_cast<unsigned long long>(w), kPhases[w], row.p50Micros,
              row.p99Micros, goodput(row), c.hitRatio(),
              static_cast<unsigned long long>(c.degradedReads),
              static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.timeouts),
              static_cast<unsigned long long>(c.failedOps),
              static_cast<unsigned long long>(c.breakerShortCircuits),
              static_cast<unsigned long long>(c.ejectedNodes),
              static_cast<unsigned long long>(c.replicaFallbackReads),
              static_cast<unsigned long long>(c.staleReplicaReads),
              static_cast<unsigned long long>(c.replicaWriteFanout),
              row.bill().str());
  }
  char title[160];
  std::snprintf(
      title, sizeof title,
      "\nFigure 11 [%s, defenses=%s]: gray-failure timeline (%lluK-op "
      "windows)",
      cell.architecture.c_str(), cell.posture.c_str(),
      static_cast<unsigned long long>(budget.windowOps / 1000));
  table.print(title);
}

/// Steady-state reference latency: window 1 (window 0 still carries a
/// little residual warmup drift in some cells).
double steadyP99(const GrayCell& cell) { return cell.windows[1].p99Micros; }

/// Worst tail across the *slow-node* windows 2-3 only — the headline gray
/// failure (the partition window is a partial outage, a different story).
double worstSlowP99(const GrayCell& cell) {
  double worst = 0.0;
  for (std::size_t w = kSlowFrom; w < kSlowUntil && w < cell.windows.size();
       ++w) {
    worst = std::max(worst, cell.windows[w].p99Micros);
  }
  return worst;
}

double totalDetectionLagMicros(const GrayCell& cell) {
  double total = 0.0;
  for (const bench::TimelineWindow& row : cell.windows) {
    total += row.counters.detectionLagMicros;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  const Fig11Options fig11 = parseFig11Options(argc, argv);
  const std::uint64_t rootSeed = benchOptions.matrix.rootSeed;
  const bench::OpBudget budget = bench::opBudget();

  const std::vector<GrayCell> cells = bench::runCells(
      kPostures * kNumArchs, [rootSeed, &fig11, &budget](std::size_t i) {
        return runGrayCell(i, rootSeed, fig11, budget);
      });

  for (const GrayCell& cell : cells) printCell(cell, budget);

  // The tail-drag verdict: how far the slow node drags p99 off each
  // posture's own steady state. The acceptance story: bare, several-fold;
  // full (ejection + replicas), the tail stays near steady.
  util::TablePrinter verdict({"architecture", "p99_steady", "drag_none",
                              "drag_breaker", "drag_full", "ejections",
                              "readmits", "detect_ms"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const GrayCell& none = cells[a];
    const GrayCell& breaker = cells[a + kNumArchs];
    const GrayCell& full = cells[a + 2 * kNumArchs];
    const auto drag = [](const GrayCell& cell) {
      const double steady = steadyP99(cell);
      return steady > 0.0 ? worstSlowP99(cell) / steady : 0.0;
    };
    char dragNone[24], dragBreaker[24], dragFull[24], detect[24];
    std::snprintf(dragNone, sizeof dragNone, "%.2fx", drag(none));
    std::snprintf(dragBreaker, sizeof dragBreaker, "%.2fx", drag(breaker));
    std::snprintf(dragFull, sizeof dragFull, "%.2fx", drag(full));
    const double lagMicros = totalDetectionLagMicros(full);
    std::snprintf(detect, sizeof detect, "%.1f",
                  full.totalEjections > 0
                      ? lagMicros / 1000.0 /
                            static_cast<double>(full.totalEjections)
                      : 0.0);
    verdict.row(none.architecture, steadyP99(none), dragNone, dragBreaker,
                dragFull, static_cast<unsigned long long>(full.totalEjections),
                static_cast<unsigned long long>(full.readmissions), detect);
  }
  char verdictTitle[200];
  std::snprintf(verdictTitle, sizeof verdictTitle,
                "\nFigure 11 verdict: slow-node (%.0fx) p99 drag vs own "
                "steady state, by defense posture (avg detection lag in ms)",
                fig11.slowFactor);
  verdict.print(verdictTitle);

  // The cost of the nines: the full posture bills its premium every hour
  // of steady state (fan-out writes, probe traffic, replica fills); the
  // bare posture pays nothing until the gray window, where its worst-hour
  // bill — the headroom an auto-scaler would provision for — spikes.
  util::TablePrinter nines({"architecture", "steady_bare", "steady_full",
                            "nines_premium", "peak_bare", "bare_headroom"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const GrayCell& none = cells[a];
    const GrayCell& full = cells[a + 2 * kNumArchs];
    const util::Money steadyBare = none.windows[1].bill();
    const util::Money steadyFull = full.windows[1].bill();
    util::Money peakBare = steadyBare;
    for (const bench::TimelineWindow& row : none.windows) {
      if (row.bill().micros() > peakBare.micros()) peakBare = row.bill();
    }
    const auto deltaPct = [](const util::Money& base,
                             const util::Money& other) {
      return base.micros() > 0
                 ? (static_cast<double>(other.micros()) /
                        static_cast<double>(base.micros()) -
                    1.0) * 100.0
                 : 0.0;
    };
    char premium[24], headroom[24];
    std::snprintf(premium, sizeof premium, "+%.1f%%",
                  deltaPct(steadyBare, steadyFull));
    std::snprintf(headroom, sizeof headroom, "+%.1f%%",
                  deltaPct(steadyBare, peakBare));
    nines.row(none.architecture, steadyBare.str(), steadyFull.str(), premium,
              peakBare.str(), headroom);
  }
  nines.print("\nFigure 11 cost of the nines: always-on defense premium vs "
              "the headroom a bare deployment provisions for its worst "
              "gray window");

  bench::finishTimeline(
      "fig11", cells,
      [](obs::MetricsRegistry& registry, const std::string& prefix,
         const GrayCell& cell) {
        for (std::size_t w = 0; w < cell.windows.size(); ++w) {
          registry.setGauge(bench::windowPrefix(prefix, w) + "goodput",
                            goodput(cell.windows[w]));
        }
        registry.setCounter(prefix + "total_ejections", cell.totalEjections);
        registry.setCounter(prefix + "readmissions", cell.readmissions);
        registry.setCounter(prefix + "probes_granted", cell.probesGranted);
      });
  return 0;
}
