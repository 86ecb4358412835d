// Timeline harness for the windowed benches (fig9-12): one deployment per
// cell serves a warmup, then a run of equal measurement windows; each window
// is snapshotted (every ServeCounters field, p50/p99, its length and its
// priced bill) after clearMeters() opened it. A bench supplies only what
// makes it different — its phases, its config per posture, its fault or
// membership schedule, its table columns and its verdicts — and finishes
// with finishTimeline(), which prints the trace epilogue, writes the
// per-window --metrics-out keys (generated from the counter list) and the
// --bench-json sidecar with the real number of serve calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "core/deployment.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workload/surge.hpp"
#include "workload/synthetic.hpp"

namespace dcache::bench {

/// Op counts of one timeline run (and of its capacity calibration).
struct OpBudget {
  std::uint64_t warmupOps = 0;
  std::uint64_t windowOps = 0;
  std::uint64_t calibrateWarmOps = 0;
  std::uint64_t calibrateOps = 0;
};

/// The capacity-calibrated benches' budget, honoring DCACHE_GOLDEN_OPS.
[[nodiscard]] inline OpBudget opBudget() {
  if (const std::uint64_t cap = core::goldenOpsCap(); cap > 0) {
    return {cap * 4, cap, cap, cap};
  }
  return {120000, 30000, 60000, 30000};
}

/// Serve calls made by every Timeline in this process: the --bench-json
/// op count. A sum, so the total is the same for any --jobs.
[[nodiscard]] inline std::atomic<std::uint64_t>& timelineOps() {
  static std::atomic<std::uint64_t> ops{0};
  return ops;
}

/// One measured window.
struct TimelineWindow {
  core::ServeCounters counters;
  double p50Micros = 0.0;
  double p99Micros = 0.0;
  double seconds = 0.0;       // simulated length of the window
  core::CostBreakdown cost;   // the window's bill at the monthly rate

  [[nodiscard]] util::Money bill() const { return cost.totalCost; }
  /// App-tier CPU spent in the window.
  [[nodiscard]] double appCpuMicros() const {
    const core::TierUsage* app = cost.tier(sim::TierKind::kAppServer);
    return app ? app->cpuMicrosTotal : 0.0;
  }
};

/// One cell: an architecture under one posture, window by window.
struct TimelineCell {
  std::string architecture;
  std::string posture;  // empty for single-posture benches
  std::vector<TimelineWindow> windows;
  obs::TraceSummary trace;  // final window only (clearMeters resets it)

  /// "Linked", or "Linked.warm" when the bench has postures.
  [[nodiscard]] std::string label() const {
    return posture.empty() ? architecture : architecture + "." + posture;
  }
};

/// A deployment serving the synthetic workload on the arrival clock. The
/// clock is fixed at kSyntheticQps, except for a SurgeWorkload, whose
/// current phase multiplies the rate (open-loop arrivals: a surge
/// compresses inter-arrival time, it does not wait for the system).
class Timeline {
 public:
  Timeline(const core::DeploymentConfig& config, workload::Workload& workload,
           const OpBudget& budget)
      : deployment_(config), workload_(workload), budget_(budget) {
    deployment_.populateKv(workload_);
  }
  Timeline(const core::DeploymentConfig& config,
           workload::SurgeWorkload& workload, const OpBudget& budget)
      : Timeline(config, static_cast<workload::Workload&>(workload), budget) {
    surge_ = &workload;
  }

  [[nodiscard]] core::Deployment& deployment() noexcept { return deployment_; }

  /// Serve `ops` operations, advancing the clock before each.
  void serve(std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (surge_ != nullptr) {
        deployment_.setSimTimeMicros(static_cast<std::uint64_t>(simMicros_));
        simMicros_ += 1e6 / (kSyntheticQps *
                             surge_->currentPhase().qpsMultiplier);
      } else {
        deployment_.setSimTimeMicros(static_cast<std::uint64_t>(
            kMicrosPerOp * static_cast<double>(opIndex_)));
      }
      ++opIndex_;
      deployment_.serve(workload_.next());
    }
    timelineOps().fetch_add(ops, std::memory_order_relaxed);
  }

  void warmup() { serve(budget_.warmupOps); }

  /// Fixed-clock start of measurement window `window` (after the warmup).
  [[nodiscard]] std::uint64_t windowStartMicros(std::size_t window) const {
    return static_cast<std::uint64_t>(
        kMicrosPerOp * static_cast<double>(budget_.warmupOps +
                                           window * budget_.windowOps));
  }
  /// Fixed-clock length of one window.
  [[nodiscard]] std::uint64_t windowMicros() const {
    return static_cast<std::uint64_t>(
        kMicrosPerOp * static_cast<double>(budget_.windowOps));
  }

  /// Serve `windows` windows, each opened by clearMeters() and priced on
  /// its own; the trace summary covers the last one.
  [[nodiscard]] TimelineCell measure(std::size_t windows) {
    const core::ExperimentConfig experiment;  // pricing + utilization
    const core::CostModel model(experiment.pricing,
                                experiment.targetUtilization);
    TimelineCell cell;
    cell.architecture = std::string(
        core::architectureName(deployment_.config().architecture));
    for (std::size_t w = 0; w < windows; ++w) {
      deployment_.clearMeters();
      const double startMicros = simMicros_;
      serve(budget_.windowOps);
      TimelineWindow window;
      window.counters = deployment_.counters();
      window.p50Micros = deployment_.latencies().p50();
      window.p99Micros = deployment_.latencies().p99();
      window.seconds =
          surge_ != nullptr
              ? (simMicros_ - startMicros) * 1e-6
              : static_cast<double>(budget_.windowOps) / kSyntheticQps;
      window.cost = model.breakdown(deployment_.tiers(), window.seconds,
                                    deployment_.db().totalStoredBytes(),
                                    deployment_.config().replicationFactor);
      cell.windows.push_back(std::move(window));
    }
    if (const obs::Tracer* tracer = deployment_.tracer()) {
      cell.trace = tracer->summary();
    }
    return cell;
  }

 private:
  static constexpr double kMicrosPerOp = 1e6 / kSyntheticQps;

  core::Deployment deployment_;
  workload::Workload& workload_;
  workload::SurgeWorkload* surge_ = nullptr;
  OpBudget budget_;
  std::uint64_t opIndex_ = 0;
  double simMicros_ = 0.0;
};

/// Per-tier steady CPU demand, per node, in µs of CPU per simulated second:
/// the denominator the overload capacities are provisioned from.
struct TierDemand {
  double appMicrosPerSec = 0.0;
  double remoteMicrosPerSec = 0.0;
  double sqlMicrosPerSec = 0.0;
  double kvMicrosPerSec = 0.0;
};

/// Measure `arch`'s steady demand on an unconstrained default deployment.
[[nodiscard]] inline TierDemand calibrateDemand(core::Architecture arch,
                                                const OpBudget& budget) {
  core::DeploymentConfig config;
  config.architecture = arch;
  workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
  Timeline timeline(config, workload, budget);
  timeline.serve(budget.calibrateWarmOps);
  timeline.deployment().clearMeters();
  timeline.serve(budget.calibrateOps);

  const double seconds =
      static_cast<double>(budget.calibrateOps) / kSyntheticQps;
  TierDemand demand;
  for (const sim::Tier* tier : timeline.deployment().tiers()) {
    const double perNodeMicrosPerSec = tier->aggregateCpu().totalMicros() /
                                       seconds /
                                       static_cast<double>(tier->size());
    switch (tier->kind()) {
      case sim::TierKind::kAppServer:
        demand.appMicrosPerSec = perNodeMicrosPerSec;
        break;
      case sim::TierKind::kRemoteCache:
        demand.remoteMicrosPerSec = perNodeMicrosPerSec;
        break;
      case sim::TierKind::kSqlFrontend:
        demand.sqlMicrosPerSec = perNodeMicrosPerSec;
        break;
      case sim::TierKind::kKvStorage:
        demand.kvMicrosPerSec = perNodeMicrosPerSec;
        break;
      default:
        break;
    }
  }
  return demand;
}

/// Give every tier a finite capacity of `headroom` x its steady demand.
inline void applyHeadroom(core::OverloadConfig& overload,
                          const TierDemand& demand, double headroom) {
  overload.appCapacityMicrosPerSec = demand.appMicrosPerSec * headroom;
  overload.remoteCacheCapacityMicrosPerSec =
      demand.remoteMicrosPerSec * headroom;
  overload.sqlCapacityMicrosPerSec = demand.sqlMicrosPerSec * headroom;
  overload.kvCapacityMicrosPerSec = demand.kvMicrosPerSec * headroom;
}

/// Run cells 0..count-1 on the --jobs workers; results in index order.
template <typename Fn>
[[nodiscard]] auto runCells(std::size_t count, Fn fn) {
  util::ThreadPool pool(benchOptions().matrix.jobs);
  return util::mapOrdered(pool, count, std::move(fn));
}

/// Metric prefix of window `window` under a cell prefix.
[[nodiscard]] inline std::string windowPrefix(const std::string& cellPrefix,
                                              std::size_t window) {
  return cellPrefix + "window_" + std::to_string(window) + ".";
}

/// Shared timeline epilogue. With --trace-sample, print each cell's
/// final-window trace report; with --metrics-out, publish every window of
/// every cell under "<fig>.<label>.window_<w>." — the full counter set,
/// p50_us, p99_us and window_cost_usd — then let `extra` add the bench's
/// own keys under the cell prefix "<fig>.<label>."; with --bench-json,
/// write the sidecar with every serve call made.
template <typename Cell, typename Extra>
void finishTimeline(std::string_view fig, const std::vector<Cell>& cells,
                    Extra extra) {
  const BenchOptions& options = benchOptions();
  const std::string figPrefix = std::string(fig) + ".";
  if (options.trace.enabled()) {
    for (const TimelineCell& cell : cells) {
      core::ExperimentResult result;
      result.architecture = cell.label();
      result.trace = cell.trace;
      std::printf("\n%s", core::traceTreeReport(
                              result,
                              "trace " + figPrefix + result.architecture +
                                  " (final window)",
                              /*maxTraces=*/1)
                              .c_str());
    }
  }
  if (!options.metricsOut.empty()) {
    obs::MetricsRegistry registry;
    for (const Cell& cell : cells) {
      const std::string prefix = figPrefix + cell.label() + ".";
      for (std::size_t w = 0; w < cell.windows.size(); ++w) {
        const TimelineWindow& window = cell.windows[w];
        const std::string base = windowPrefix(prefix, w);
        core::exportServeCounters(registry, base, window.counters);
        registry.setGauge(base + "p50_us", window.p50Micros);
        registry.setGauge(base + "p99_us", window.p99Micros);
        registry.setGauge(base + "window_cost_usd", window.bill().dollars());
      }
      extra(registry, prefix, cell);
    }
    if (!registry.writeJsonFile(options.metricsOut)) {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   options.metricsOut.c_str());
    }
  }
  if (!options.benchJsonOut.empty()) {
    writeBenchJson(options, timelineOps().load(), cells.size());
  }
}

}  // namespace dcache::bench
