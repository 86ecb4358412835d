// Figure 5 — cost comparison on the key-value workloads (§5.3):
//   (a) Unity Catalog-KV: the UC trace served as single-row denormalized
//       lookups (23KB median objects, 93% reads, 40K QPS)
//   (b) Meta: CacheLib-style trace (~10B median values, 30% writes)
// Expected shape: significant savings for Remote and Linked over Base on
// both; Remote saves less than Linked (gRPC hop + (de)serialization);
// savings on (a) exceed (b) because larger objects amplify the
// serialization and byte-handling costs caches avoid.
// Both panels' cells run concurrently on the experiment matrix.
#include <vector>

#include "bench_common.hpp"
#include "workload/meta_trace.hpp"
#include "workload/uc_trace.hpp"

using namespace dcache;

namespace {

constexpr core::Architecture kArchs[] = {core::Architecture::kBase,
                                         core::Architecture::kRemote,
                                         core::Architecture::kLinked,
                                         core::Architecture::kDisaggregated};

template <typename WorkloadT>
void addPanel(core::ExperimentMatrix& matrix,
              std::span<const core::Architecture> archs,
              const WorkloadT& reference, double qps,
              std::uint64_t operations) {
  core::ExperimentConfig experiment;
  experiment.operations = operations;
  // Long warmup: production caches are warmed over hours; compulsory
  // misses must not dominate the measured window.
  experiment.warmupOperations = operations * 3;
  experiment.qps = qps;
  for (const core::Architecture arch : archs) {
    bench::addCell(matrix, arch, reference, core::DeploymentConfig{},
                   experiment);
  }
}

void printPanel(const std::vector<core::ExperimentResult>& results,
                std::size_t offset, std::size_t archCount,
                const char* title) {
  const std::vector<core::ExperimentResult> panel(
      results.begin() + static_cast<std::ptrdiff_t>(offset),
      results.begin() + static_cast<std::ptrdiff_t>(offset + archCount));
  std::fputs(core::costComparisonTable(panel, title).c_str(), stdout);
  std::fputs("\n", stdout);
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentMatrix matrix(bench::parseBenchOptions(argc, argv).matrix);
  const std::span<const core::Architecture> archs = kArchs;

  workload::UcTraceConfig ucConfig;  // paper shape: 23KB median, 93% reads
  addPanel(matrix, archs, workload::UcTraceWorkload(ucConfig), bench::kUcQps,
           200000);
  workload::MetaTraceConfig metaConfig;  // ~10B median, 30% writes
  addPanel(matrix, archs, workload::MetaTraceWorkload(metaConfig),
           bench::kSyntheticQps, 300000);

  const std::vector<core::ExperimentResult> results = matrix.run();
  printPanel(results, 0, archs.size(),
             "Figure 5a: Unity Catalog-KV (denormalized single-row reads, "
             "40K QPS)");
  printPanel(results, archs.size(), archs.size(),
             "Figure 5b: Meta key-value trace (10B median values, 30% "
             "writes, 120K QPS)");
  bench::finishBench(results);
  return 0;
}
