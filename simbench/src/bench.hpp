// Simulator benchmark: named workloads, one trial (set up, warm up, drive a
// closed loop from one thread, price), the simulated outputs a trial must
// reproduce exactly, and the committed reference they are checked against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/deployment.hpp"
#include "spans.hpp"
#include "workload/workload.hpp"

namespace simbench {

struct WorkloadSpec {
  std::string_view name;
  dcache::core::Architecture architecture = dcache::core::Architecture::kBase;
  /// Simulated offered load; drives the simulated clock exactly as
  /// core::ExperimentRunner does.
  double qps = 0.0;
  /// UC-Object: serveObject() instead of serve().
  bool richObjects = false;
  /// The repository's default trace seed for this workload's trace.
  std::uint64_t defaultSeed = 0;
  std::uint64_t warmupOps = 0;
  std::uint64_t measuredOps = 0;
};

/// A second referenced seed, used by no workload while the benchmark was
/// tuned, so a later claim can be checked on a seed it was not tuned on.
inline constexpr std::uint64_t kHeldOutSeed = 2027;

[[nodiscard]] const std::vector<WorkloadSpec>& workloadSpecs();
[[nodiscard]] const WorkloadSpec* findWorkload(std::string_view name);

/// The workload's trace with `seed` fed into its config's seed field.
[[nodiscard]] std::unique_ptr<dcache::workload::Workload> makeWorkload(
    const WorkloadSpec& spec, std::uint64_t seed);
[[nodiscard]] dcache::core::DeploymentConfig deploymentConfigFor(
    const WorkloadSpec& spec);

/// The warmup and the measured window are each timed in this many slices of
/// equal op counts, so a run can keep each slice's least time over its
/// trials (see main.cpp).
inline constexpr std::size_t kSlices = 20;

/// First op of `slice` when `ops` ops are cut into kSlices equal slices.
[[nodiscard]] constexpr std::uint64_t sliceBegin(std::uint64_t ops,
                                                 std::size_t slice) {
  return ops * slice / kSlices;
}

/// Simulated outputs of one trial, in a fixed order: field -> exact text.
using SimOutputs = std::vector<std::pair<std::string, std::string>>;

struct TrialResult {
  SimOutputs outputs;
  dcache::core::ServeCounters counters;
  std::uint64_t ops = 0;           // measured ops
  std::uint64_t channelCalls = 0;  // rpc::Channel calls in the measured window
  double constructS = 0.0;
  double populateS = 0.0;
  double warmupS = 0.0;
  double measureS = 0.0;
  /// Host seconds per slice of the warmup, and (untraced trials only) of
  /// the measured window.
  std::vector<double> warmupSliceS;
  std::vector<double> windowSliceS;
  /// Traced trials only: summed host ns in next().
  double nextNsTotal = 0.0;
};

/// One trial on a fresh deployment. Fills `opNs` with the host ns of each
/// measured op: next() + serve() untraced, serve() alone when traced. With
/// `spans`, records a span around every phase and around each measured
/// op's next() and serve(). Callers reuse one `opNs` buffer across trials
/// so repeated trials do not fragment the heap and inflate peak RSS.
[[nodiscard]] TrialResult runTrial(const WorkloadSpec& spec,
                                   std::uint64_t seed, SpanLog* spans,
                                   std::vector<std::uint32_t>& opNs);

/// Committed simulated outputs, keyed by (workload, seed).
class Reference {
 public:
  /// Parse `workload seed field value` lines ('#' starts a comment).
  [[nodiscard]] static std::optional<Reference> load(const std::string& path);

  [[nodiscard]] const std::map<std::string, std::string>* find(
      std::string_view workload, std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<std::string, std::string>>
      entries_;
};

/// Human-readable differences between `got` and `want` (empty = equal).
[[nodiscard]] std::vector<std::string> diffOutputs(
    const SimOutputs& got, const std::map<std::string, std::string>& want);
[[nodiscard]] std::vector<std::string> diffOutputs(const SimOutputs& got,
                                                   const SimOutputs& want);

/// The reference-file lines for one trial's outputs.
[[nodiscard]] std::string referenceLines(std::string_view workload,
                                         std::uint64_t seed,
                                         const SimOutputs& outputs);

/// Peak resident set of this process (VmHWM), in MiB; 0 if unknown.
[[nodiscard]] double peakRssMb();

/// q-quantile (nearest rank) of `samples`; reorders them.
[[nodiscard]] double quantile(std::vector<std::uint32_t>& samples, double q);
[[nodiscard]] double median(std::vector<double> values);

}  // namespace simbench
