// Figure 10 — overload and metastability: what a traffic surge actually
// costs each architecture, and what the standard defenses buy back. Every
// tier gets a finite capacity (self-calibrated to 2x its steady-state CPU
// demand — the usual ~50% utilization provisioning target), so latency is
// service + queueing delay and a saturated tier rejects or times out. Each
// architecture then runs the same timeline twice, defenses off and on:
//
//   window 0-1  steady state (~50% utilization)
//   window 2-3  open-loop arrival surge: --surge x the offered QPS
//   window 4-5  hot-key storm: half of all reads hammer one key
//   window 6-7  recovery at steady load
//
// With defenses off, the retry path amplifies the collapse: every attempt
// abandoned by a client timeout still occupies the queue it timed out in —
// the classic metastable failure. Defenses on arms (1) CoDel-style
// admission control at the app tier (writes are never shed), (2)
// per-destination circuit breakers, (3) hedged requests against the p99
// tracker, and (4) a per-call deadline budget. Per window the bench
// reports p50/p99 (queueing included), goodput, shed/queue-timeout rates,
// breaker and hedge activity, and the retry-storm amplification factor;
// the summary prices the provisioning headroom (extra app nodes -> extra
// $) needed to hold the surge instead. Every cell is seeded from (--seed,
// cell index) alone, so output is byte-identical for any --jobs value.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/matrix.hpp"
#include "timeline.hpp"
#include "util/table_printer.hpp"
#include "workload/surge.hpp"

using namespace dcache;

namespace {

constexpr core::Architecture kArchs[] = {
    core::Architecture::kBase, core::Architecture::kRemote,
    core::Architecture::kLinked, core::Architecture::kLinkedVersion,
    core::Architecture::kDisaggregated};
constexpr std::size_t kNumArchs = std::size(kArchs);
constexpr const char* kPostureNames[] = {"bare", "defenses"};

constexpr std::size_t kWindows = 8;
constexpr const char* kPhases[kWindows] = {"steady", "steady", "surge",
                                           "surge",  "hotkey", "hotkey",
                                           "recover", "recover"};
/// Provisioning headroom the capacities are calibrated to: every tier can
/// absorb 2x its steady CPU demand before queueing starts.
constexpr double kHeadroomFactor = 2.0;
constexpr double kHotKeyFraction = 0.5;

struct Fig10Options {
  double surgeMultiplier = 10.0;
  bool shed = true;
  bool breakers = true;
  bool hedge = true;
};

/// fig10-specific flags (--surge X, --shed 0|1, --breaker 0|1, --hedge
/// 0|1); the shared flags were already consumed by parseBenchOptions.
Fig10Options parseFig10Options(int argc, char** argv) {
  Fig10Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--surge")) {
      options.surgeMultiplier = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--shed")) {
      options.shed = std::strtoull(v, nullptr, 10) != 0;
    } else if (const char* v = bench::flagValue(argc, argv, i, "--breaker")) {
      options.breakers = std::strtoull(v, nullptr, 10) != 0;
    } else if (const char* v = bench::flagValue(argc, argv, i, "--hedge")) {
      options.hedge = std::strtoull(v, nullptr, 10) != 0;
    }
  }
  return options;
}

struct OverloadCell : bench::TimelineCell {
  double appCapacityPerNode = 0.0;
  std::size_t appServers = 0;
};

OverloadCell runOverloadCell(std::size_t index, std::uint64_t rootSeed,
                             const Fig10Options& options,
                             const bench::OpBudget& budget) {
  const core::Architecture arch = kArchs[index % kNumArchs];
  const bool defenses = index >= kNumArchs;

  core::DeploymentConfig config;
  config.architecture = arch;
  config.faultSeed = core::cellSeed(rootSeed, index);
  bench::applyHeadroom(config.overload, bench::calibrateDemand(arch, budget),
                       kHeadroomFactor);
  if (defenses) {
    if (options.shed) {
      config.overload.shed.enabled = true;
      // Stabilize the queue below the RPC timeout cliff: start shedding at
      // half the timeout, ramp to the cap within another timeout's worth.
      config.overload.shed.targetDelayMicros =
          config.rpcPolicy.timeoutMicros * 0.5;
      config.overload.shed.graceMicros = config.rpcPolicy.timeoutMicros;
      config.overload.shed.rampMicros = config.rpcPolicy.timeoutMicros;
    }
    config.overload.breakersEnabled = options.breakers;
    config.overload.breaker.openMicros = 20000.0;
    config.overload.hedgingEnabled = options.hedge;
    // Satellite defense: a per-call budget stops a doomed call after ~2
    // timeouts' worth of waiting instead of burning the whole ladder.
    config.rpcPolicy.deadlineMicros = config.rpcPolicy.timeoutMicros * 2.5;
  }

  std::vector<workload::SurgePhase> phases;
  phases.push_back({budget.warmupOps, 1.0, 0.0, 0, "warmup"});
  for (std::size_t w = 0; w < kWindows; ++w) {
    workload::SurgePhase phase;
    phase.ops = budget.windowOps;
    phase.name = kPhases[w];
    if (w == 2 || w == 3) phase.qpsMultiplier = options.surgeMultiplier;
    if (w == 4 || w == 5) {
      phase.hotKeyFraction = kHotKeyFraction;
      phase.hotKey = 0;
    }
    phases.push_back(phase);
  }
  workload::SurgeWorkload workload{workload::SyntheticConfig{},
                                   std::move(phases),
                                   core::cellSeed(rootSeed, index + 100)};
  bench::Timeline timeline(bench::withBenchTrace(config), workload, budget);
  timeline.warmup();
  OverloadCell cell{timeline.measure(kWindows),
                    config.overload.appCapacityMicrosPerSec,
                    config.appServers};
  cell.posture = kPostureNames[defenses ? 1 : 0];
  return cell;
}

/// Fraction of the window's ops answered (not shed, not failed).
double goodput(const bench::TimelineWindow& window) {
  const core::ServeCounters& c = window.counters;
  const double ops = static_cast<double>(c.reads + c.writes);
  return (ops - static_cast<double>(c.sheddedRequests + c.failedOps)) / ops;
}

/// RPC attempts per op vs the no-retry floor.
double amplification(const bench::TimelineWindow& window) {
  const core::ServeCounters& c = window.counters;
  return 1.0 + static_cast<double>(c.retries) /
                   static_cast<double>(c.reads + c.writes);
}

void printCell(const OverloadCell& cell, const bench::OpBudget& budget) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us", "goodput",
                            "hit_ratio", "shed", "queue_to", "brk_open",
                            "brk_sc", "hedges", "hedge_wins", "retries",
                            "failed", "amp", "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const bench::TimelineWindow& row = cell.windows[w];
    const core::ServeCounters& c = row.counters;
    table.row(static_cast<unsigned long long>(w), kPhases[w], row.p50Micros,
              row.p99Micros, goodput(row), c.hitRatio(),
              static_cast<unsigned long long>(c.sheddedRequests),
              static_cast<unsigned long long>(c.queueTimeouts +
                                              c.queueRejections),
              static_cast<unsigned long long>(c.breakerOpens),
              static_cast<unsigned long long>(c.breakerShortCircuits),
              static_cast<unsigned long long>(c.hedgesSent),
              static_cast<unsigned long long>(c.hedgeWins),
              static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.failedOps),
              amplification(row), row.bill().str());
  }
  char title[160];
  std::snprintf(title, sizeof title,
                "\nFigure 10 [%s, defenses=%s]: overload timeline (%lluK-op "
                "windows, capacity=%.0fx steady)",
                cell.architecture.c_str(),
                cell.posture == kPostureNames[1] ? "on" : "off",
                static_cast<unsigned long long>(budget.windowOps / 1000),
                kHeadroomFactor);
  table.print(title);
}

/// Worst (highest) amplification across the overloaded windows 2-5.
double worstAmplification(const OverloadCell& cell) {
  double worst = 0.0;
  for (std::size_t w = 2; w <= 5 && w < cell.windows.size(); ++w) {
    worst = std::max(worst, amplification(cell.windows[w]));
  }
  return worst;
}

double worstP99(const OverloadCell& cell) {
  double worst = 0.0;
  for (std::size_t w = 2; w <= 5 && w < cell.windows.size(); ++w) {
    worst = std::max(worst, cell.windows[w].p99Micros);
  }
  return worst;
}

double worstGoodput(const OverloadCell& cell) {
  double worst = 1.0;
  for (std::size_t w = 2; w <= 5 && w < cell.windows.size(); ++w) {
    worst = std::min(worst, goodput(cell.windows[w]));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  const Fig10Options fig10 = parseFig10Options(argc, argv);
  const std::uint64_t rootSeed = benchOptions.matrix.rootSeed;
  const bench::OpBudget budget = bench::opBudget();

  const std::vector<OverloadCell> cells = bench::runCells(
      2 * kNumArchs, [rootSeed, &fig10, &budget](std::size_t i) {
        return runOverloadCell(i, rootSeed, fig10, budget);
      });

  for (const OverloadCell& cell : cells) printCell(cell, budget);

  // The metastability verdict: how much work the retry path multiplies the
  // surge into, with and without the defenses, and what the defenses keep.
  util::TablePrinter verdict({"architecture", "amp_off", "amp_on", "p99_off",
                              "p99_on", "goodput_off", "goodput_on"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const OverloadCell& off = cells[a];
    const OverloadCell& on = cells[a + kNumArchs];
    verdict.row(off.architecture, worstAmplification(off),
                worstAmplification(on), worstP99(off), worstP99(on),
                worstGoodput(off), worstGoodput(on));
  }
  char verdictTitle[160];
  std::snprintf(verdictTitle, sizeof verdictTitle,
                "\nFigure 10 summary: worst overloaded window (2-5) at "
                "%.0fx surge, defenses off vs on",
                fig10.surgeMultiplier);
  verdict.print(verdictTitle);

  // Provisioning headroom: the other way to survive the surge is to buy
  // enough app servers that the peak fits under capacity. Demand is
  // measured on the *bare* cells — without defenses the retry storm is
  // part of the load you must provision for.
  util::TablePrinter headroom({"architecture", "steady_cost", "peak_cost",
                               "peak_phase", "headroom_delta",
                               "extra_app_nodes", "extra_app_cost"});
  for (std::size_t a = 0; a < kNumArchs; ++a) {
    const OverloadCell& cell = cells[a];
    const util::Money steady = cell.windows.front().bill();
    util::Money peak = steady;
    std::size_t peakWindow = 0;
    double peakAppDemandPerSec = 0.0;
    for (std::size_t w = 0; w < cell.windows.size(); ++w) {
      const bench::TimelineWindow& window = cell.windows[w];
      if (window.bill().micros() > peak.micros()) {
        peak = window.bill();
        peakWindow = w;
      }
      if (window.seconds > 0.0) {
        peakAppDemandPerSec = std::max(
            peakAppDemandPerSec, window.appCpuMicros() / window.seconds);
      }
    }
    const double delta =
        steady.micros() > 0
            ? (static_cast<double>(peak.micros()) /
                   static_cast<double>(steady.micros()) -
               1.0) * 100.0
            : 0.0;
    // Nodes needed so the observed peak demand fits under the same
    // per-node capacity the steady tier was provisioned with.
    const std::size_t neededNodes = static_cast<std::size_t>(
        std::ceil(peakAppDemandPerSec / cell.appCapacityPerNode));
    const std::size_t extraNodes =
        neededNodes > cell.appServers ? neededNodes - cell.appServers : 0;
    const core::TierUsage* steadyApp =
        cell.windows.front().cost.tier(sim::TierKind::kAppServer);
    const double perNodeUsd =
        (steadyApp ? steadyApp->computeCost : util::Money{}).dollars() /
        static_cast<double>(cell.appServers);
    char deltaCell[32];
    std::snprintf(deltaCell, sizeof deltaCell, "+%.1f%%", delta);
    char extraCost[32];
    std::snprintf(extraCost, sizeof extraCost, "$%.2f/mo",
                  static_cast<double>(extraNodes) * perNodeUsd);
    headroom.row(cell.architecture, steady.str(), peak.str(),
                 kPhases[peakWindow], deltaCell,
                 static_cast<unsigned long long>(extraNodes), extraCost);
  }
  headroom.print("\nFigure 10 headroom: provisioning the surge away instead "
                 "(extra app nodes -> extra $)");

  bench::finishTimeline(
      "fig10", cells,
      [](obs::MetricsRegistry& registry, const std::string& prefix,
         const OverloadCell& cell) {
        for (std::size_t w = 0; w < cell.windows.size(); ++w) {
          const std::string base = bench::windowPrefix(prefix, w);
          registry.setGauge(base + "goodput", goodput(cell.windows[w]));
          registry.setGauge(base + "amplification",
                            amplification(cell.windows[w]));
        }
      });
  return 0;
}
