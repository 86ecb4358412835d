// Extension — beyond the paper's two workloads and its cost-only lens:
//   (a) a Twitter-style trace (median 230B, mixed read/write; Yang et al.
//       TOS'21, cited in §2.2) to check the cost conclusions generalize,
//   (b) the latency view the paper explicitly sets aside ("even without
//       considering their latency benefits"): mean and p99 request latency
//       per architecture, which favour caches even more strongly than cost,
//   (c) the trace-driven cache advisor applied to each workload: the
//       cost-optimal linked-cache size from the measured miss-ratio curve.
// The experiment cells run on the matrix; the advisor analyses fan out on
// the same worker pool settings.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/advisor.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/meta_trace.hpp"
#include "workload/synthetic.hpp"
#include "workload/twitter_trace.hpp"
#include "workload/uc_trace.hpp"

using namespace dcache;

namespace {

void addTwitterCells(core::ExperimentMatrix& matrix,
                     std::span<const core::Architecture> archs) {
  core::ExperimentConfig experiment;
  experiment.operations = 200000;
  experiment.warmupOperations = 400000;
  experiment.qps = bench::kSyntheticQps;
  for (const core::Architecture arch : archs) {
    bench::addCell(matrix, arch,
                   workload::TwitterTraceWorkload(
                       workload::TwitterTraceConfig{}),
                   core::DeploymentConfig{}, experiment);
  }
}

void addLatencyCells(core::ExperimentMatrix& matrix,
                     std::span<const core::Architecture> archs) {
  core::ExperimentConfig experiment;
  experiment.operations = 120000;
  experiment.warmupOperations = 120000;
  experiment.qps = bench::kSyntheticQps;
  workload::SyntheticConfig workload;
  workload.valueSize = 16384;
  workload.readRatio = 0.93;
  for (const core::Architecture arch : archs) {
    bench::addCell(matrix, arch, workload::SyntheticWorkload(workload),
                   core::DeploymentConfig{}, experiment);
  }
}

void twitterPanel(const std::vector<core::ExperimentResult>& results,
                  std::size_t archCount) {
  const std::vector<core::ExperimentResult> panel(
      results.begin(),
      results.begin() + static_cast<std::ptrdiff_t>(archCount));
  std::fputs(core::costComparisonTable(
                 panel, "Extension: Twitter-style trace (230B median, "
                        "r=0.8, 120K QPS)")
                 .c_str(),
             stdout);
}

void latencyPanel(const std::vector<core::ExperimentResult>& results,
                  std::size_t archCount) {
  util::TablePrinter table(
      {"architecture", "mean_us", "p99_us", "vs_Base_mean"});
  const std::vector<core::ExperimentResult> panel(
      results.begin() + static_cast<std::ptrdiff_t>(archCount),
      results.begin() + static_cast<std::ptrdiff_t>(2 * archCount));
  const double baseMean = panel.front().meanLatencyMicros;
  for (const auto& result : panel) {
    char speedup[16];
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  baseMean / result.meanLatencyMicros);
    table.addRow({result.architecture,
                  util::TablePrinter::toCell(result.meanLatencyMicros),
                  util::TablePrinter::toCell(result.p99LatencyMicros),
                  speedup});
  }
  table.print("\nExtension: the latency benefit the paper sets aside "
              "(16KB, r=0.93)");

  // Cross-cell aggregation via Histogram::merge: the latency distribution
  // of the whole panel as one population.
  const util::Histogram merged = core::mergedLatencies(panel);
  std::printf("\nAll-architecture merged latency distribution:\n%s",
              merged.summary("us").c_str());
}

void advisorPanel(std::size_t jobs) {
  std::puts("\nExtension: trace-driven cache sizing (Mattson MRC + GCP "
            "prices)\n");
  core::AdvisorConfig config;
  config.sampleOps = 150000;
  config.qps = bench::kSyntheticQps;

  util::ThreadPool pool(jobs);
  const auto summaries = util::mapOrdered(pool, 3, [&config](std::size_t i) {
    switch (i) {
      case 0: {
        workload::SyntheticWorkload workload(workload::SyntheticConfig{});
        return core::CacheAdvisor(config).advise(workload).summary();
      }
      case 1: {
        workload::MetaTraceWorkload workload(workload::MetaTraceConfig{});
        return core::CacheAdvisor(config).advise(workload).summary();
      }
      default: {
        core::AdvisorConfig ucConfig = config;
        ucConfig.qps = bench::kUcQps;
        workload::UcTraceWorkload workload(workload::UcTraceConfig{});
        return core::CacheAdvisor(ucConfig).advise(workload).summary();
      }
    }
  });
  std::printf("synthetic Zipf(1.2):\n%s\n", summaries[0].c_str());
  std::printf("meta trace:\n%s\n", summaries[1].c_str());
  std::printf("unity catalog:\n%s\n", summaries[2].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const core::MatrixOptions options =
      bench::parseBenchOptions(argc, argv).matrix;
  core::ExperimentMatrix matrix(options);
  const std::span<const core::Architecture> archs =
      core::kAllArchitectures;
  addTwitterCells(matrix, archs);
  addLatencyCells(matrix, archs);
  const std::vector<core::ExperimentResult> results = matrix.run();
  twitterPanel(results, archs.size());
  latencyPanel(results, archs.size());
  advisorPanel(options.jobs);
  bench::finishBench(results);
  return 0;
}
