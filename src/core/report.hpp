// Report formatting shared by the figure benches and examples: cost
// comparison tables across architectures, per-tier CPU component breakdowns
// (Fig. 6) and savings factors.
#pragma once

#include <span>
#include <string>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"

namespace dcache::core {

/// One row per experiment: compute / memory / storage / total cost, hit
/// ratio, latency and the saving factor vs the first row (the baseline).
[[nodiscard]] std::string costComparisonTable(
    std::span<const ExperimentResult> results, const std::string& title);

/// Per-tier CPU share by component for one experiment (Fig. 6 panels).
[[nodiscard]] std::string cpuBreakdownTable(const ExperimentResult& result,
                                            const std::string& title);

/// Fraction of total cost spent on memory (§5.3: 6-22% Linked, 1-5% Base).
[[nodiscard]] double memoryCostShare(const ExperimentResult& result);

/// Savings factor baseline/result (>1 means `result` is cheaper).
[[nodiscard]] double savingsVs(const ExperimentResult& baseline,
                               const ExperimentResult& result);

/// Share of a tier's CPU attributable to "query processing" (connection
/// management + parse + plan) — the §5.3 40-65% claim for storage.
[[nodiscard]] double queryProcessingShare(const ExperimentResult& result);

/// Per-request cost-breakdown report: sampling aggregates (traced CPU per
/// tier, span outcome counts) followed by up to `maxTraces` sampled span
/// trees rendered as flamegraph-style component ladders — each span line
/// carries its subtree/self CPU and bytes, and each trace closes with its
/// CPU split by component. Empty string when the result carries no trace
/// (trace.sampleEvery == 0). Output is deterministic: it depends only on
/// the trace summary, never on threads or timing.
[[nodiscard]] std::string traceTreeReport(const ExperimentResult& result,
                                          const std::string& title,
                                          std::size_t maxTraces = 2);

/// Adapter: publish every ServeCounters field under `prefix` + its
/// snake_case name (integers as counters, doubles as gauges), generated from
/// DCACHE_SERVE_COUNTERS, plus the derived `hit_ratio` gauge.
void exportServeCounters(obs::MetricsRegistry& registry,
                         std::string_view prefix, const ServeCounters& c);

/// Adapter: publish one experiment cell's results — serve counters, cost,
/// latency summary, per-tier CPU/memory usage, and trace aggregates when
/// present — into the unified registry under `prefix` (e.g. "fig4.Linked.").
void exportExperimentMetrics(obs::MetricsRegistry& registry,
                             std::string_view prefix,
                             const ExperimentResult& result);

}  // namespace dcache::core
