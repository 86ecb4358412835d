// Figure 6 — CPU usage breakdown at app server, remote cache and storage
// across value sizes, one panel per architecture (§5.3, §5.5):
//   (a) Base  (b) Remote  (c) Linked  (d) Linked+Version
// Reported per panel: relative CPU share per tier, the database-cycle
// decomposition (the paper: 40-65% of DB cycles on connection/query
// processing/planning), the Linked app-server decomposition (~60% request
// prep, ~31% client communication) and the memory share of total cost
// (6-22% for Linked, 1-5% for Base).
// All (architecture, value-size) points are experiment-matrix cells; the
// Linked@16KB point is computed once and shared by the panel, the app
// decomposition and the full breakdown table.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"
#include "workload/synthetic.hpp"

using namespace dcache;

namespace {

constexpr std::uint64_t kValueSizes[] = {1024, 16384, 262144, 1048576};

std::size_t addPoint(core::ExperimentMatrix& matrix, core::Architecture arch,
                     std::uint64_t valueSize, double readRatio = 0.93) {
  workload::SyntheticConfig workload;
  workload.readRatio = readRatio;
  workload.valueSize = valueSize;
  core::ExperimentConfig experiment;
  experiment.operations = 150000;
  experiment.warmupOperations = 150000;
  experiment.qps = bench::kSyntheticQps;
  return bench::addCell(matrix, arch, workload::SyntheticWorkload(workload),
                        core::DeploymentConfig{}, experiment);
}

void tierShares(core::Architecture arch,
                const std::vector<core::ExperimentResult>& results,
                std::size_t offset) {
  util::TablePrinter table({"value_size", "app%", "remote_cache%", "far_mem%",
                            "sql%", "kv%", "db_query_proc%", "mem_share%"});
  std::size_t cell = offset;
  for (const std::uint64_t valueSize : kValueSizes) {
    const auto& result = results[cell++];
    double total = 0.0;
    double app = 0.0;
    double remote = 0.0;
    double farMem = 0.0;
    double sql = 0.0;
    double kv = 0.0;
    for (const core::TierUsage& tier : result.cost.tiers) {
      total += tier.cpuMicrosTotal;
      switch (tier.kind) {
        case sim::TierKind::kAppServer: app += tier.cpuMicrosTotal; break;
        case sim::TierKind::kRemoteCache: remote += tier.cpuMicrosTotal; break;
        case sim::TierKind::kFarMemory: farMem += tier.cpuMicrosTotal; break;
        case sim::TierKind::kSqlFrontend: sql += tier.cpuMicrosTotal; break;
        case sim::TierKind::kKvStorage: kv += tier.cpuMicrosTotal; break;
        default: break;
      }
    }
    auto pct = [&](double x) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.1f", total > 0 ? 100.0 * x / total : 0);
      return std::string(buf);
    };
    char queryProc[16];
    std::snprintf(queryProc, sizeof queryProc, "%.1f",
                  100.0 * core::queryProcessingShare(result));
    char memShare[16];
    std::snprintf(memShare, sizeof memShare, "%.1f",
                  100.0 * core::memoryCostShare(result));
    table.row(util::Bytes::of(valueSize).str(), pct(app), pct(remote),
              pct(farMem), pct(sql), pct(kv), queryProc, memShare);
  }
  table.print(std::string("\nFigure 6 — ") +
              std::string(core::architectureName(arch)) +
              ": CPU share per tier vs value size");
}

void linkedAppDecomposition(const core::ExperimentResult& result,
                            std::uint64_t valueSize, double readRatio) {
  // §5.3: for Linked, preparing/issuing storage requests ≈60% of app
  // cycles, client communication ≈31%, the rest servicing requests. The
  // prep share is dominated by the ops that reach storage, so it peaks in
  // the write-heavy runs and shrinks as the hit ratio rises.
  const core::TierUsage* app = result.cost.tier(sim::TierKind::kAppServer);
  if (!app) return;
  auto share = [&](sim::CpuComponent c) {
    return 100.0 * app->cpuMicrosByComponent[static_cast<std::size_t>(c)] /
           app->cpuMicrosTotal;
  };
  // "Request prep" in the paper's sense covers preparing and issuing the
  // storage/cache requests: prep + the marshalling/framing of those hops.
  const double prep = share(sim::CpuComponent::kRequestPrep) +
                      share(sim::CpuComponent::kRpcFraming) +
                      share(sim::CpuComponent::kSerialization) +
                      share(sim::CpuComponent::kDeserialization);
  const double clientComm = share(sim::CpuComponent::kClientComm);
  const double serving = share(sim::CpuComponent::kCacheOp) +
                         share(sim::CpuComponent::kAppLogic);
  std::printf(
      "\nLinked app-server cycle decomposition at %s, r=%.2f (paper: "
      "~60%% request prep, ~31%% client comm):\n"
      "  storage/cache request prep+marshalling: %.1f%%\n"
      "  client communication:                   %.1f%%\n"
      "  request servicing (cache ops, logic):   %.1f%%\n",
      util::Bytes::of(valueSize).str().c_str(), readRatio, prep, clientComm,
      serving);
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentMatrix matrix(bench::parseBenchOptions(argc, argv).matrix);

  // One cell per (architecture, value size); panel rows index into this
  // block, and the Linked/Linked+Version @16KB cells double as the
  // decomposition and full-breakdown inputs.
  const std::span<const core::Architecture> archs = core::kAllArchitectures;
  std::vector<std::size_t> panelOffsets;
  std::size_t linked16k = 0;
  std::size_t linkedVersion16k = 0;
  for (const core::Architecture arch : archs) {
    panelOffsets.push_back(matrix.cellCount());
    for (const std::uint64_t valueSize : kValueSizes) {
      const std::size_t cell = addPoint(matrix, arch, valueSize);
      if (valueSize == 16384) {
        if (arch == core::Architecture::kLinked) linked16k = cell;
        if (arch == core::Architecture::kLinkedVersion) {
          linkedVersion16k = cell;
        }
      }
    }
  }
  const std::size_t linkedWriteHeavy =
      addPoint(matrix, core::Architecture::kLinked, 16384, 0.50);

  const std::vector<core::ExperimentResult> results = matrix.run();

  for (std::size_t i = 0; i < archs.size(); ++i) {
    tierShares(archs[i], results, panelOffsets[i]);
  }
  linkedAppDecomposition(results[linked16k], 16384, 0.93);
  linkedAppDecomposition(results[linkedWriteHeavy], 16384, 0.50);

  // Full component table for one representative panel each of Linked and
  // Linked+Version, making the §5.5 storage-load increase visible.
  std::fputs(core::cpuBreakdownTable(results[linked16k],
                                     "\nLinked @16KB — full CPU breakdown")
                 .c_str(),
             stdout);
  std::fputs(core::cpuBreakdownTable(
                 results[linkedVersion16k],
                 "\nLinked+Version @16KB — full CPU breakdown "
                 "(note the storage tier growth, §5.5)")
                 .c_str(),
             stdout);
  bench::finishBench(results);
  return 0;
}
