// Unified metrics registry: a named, typed, insertion-ordered collection of
// counters, gauges and histogram summaries with a stable JSON export. The
// hand-rolled counter structs (core::ServeCounters and the tier meters)
// stay as the hot-path storage; thin adapters re-publish them here by
// name, so every figure bench can emit one machine-readable
// metrics file (--metrics-out) alongside its human-readable tables.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/tier.hpp"
#include "util/histogram.hpp"
#include "util/thread_annotations.hpp"

namespace dcache::obs {

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  /// Histogram summaries are exported by value, not by bucket: the JSON is
  /// for dashboards/regression diffing, not for re-aggregation.
  struct HistogramSummary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    HistogramSummary histogram{};
  };

  /// Set (insert or overwrite) a monotonically-counted value.
  void setCounter(std::string_view name, std::uint64_t value)
      EXCLUDES(mutex_);
  /// Set (insert or overwrite) a point-in-time value.
  void setGauge(std::string_view name, double value) EXCLUDES(mutex_);
  /// Record a distribution's summary.
  void setHistogram(std::string_view name, const util::Histogram& histogram)
      EXCLUDES(mutex_);

  /// Add `delta` to a counter, creating it at zero first if absent.
  void addToCounter(std::string_view name, std::uint64_t delta)
      EXCLUDES(mutex_);

  [[nodiscard]] const Metric* find(std::string_view name) const noexcept
      EXCLUDES(mutex_);
  /// Borrowed read surface for the export adapters: valid only while no
  /// other thread publishes, i.e. the single-owner phase after a cell's
  /// run — hence the local opt-out from the static analysis.
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept
      NO_THREAD_SAFETY_ANALYSIS {
    return metrics_;
  }
  [[nodiscard]] std::size_t size() const noexcept NO_THREAD_SAFETY_ANALYSIS {
    return metrics_.size();
  }

  /// Stable JSON document (insertion order, fixed field order):
  /// {"schema":"dcache.metrics.v1","metrics":[{"name":...,"type":...},...]}
  [[nodiscard]] std::string toJson() const EXCLUDES(mutex_);
  /// Write toJson() to `path`; returns false on I/O failure.
  bool writeJsonFile(const std::string& path) const;

  void clear() EXCLUDES(mutex_);

 private:
  Metric& upsert(std::string_view name, Kind kind) REQUIRES(mutex_);
  [[nodiscard]] const Metric* findLocked(std::string_view name) const noexcept
      REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<Metric> metrics_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::size_t> index_ GUARDED_BY(mutex_);
};

/// Adapter: publish one tier's aggregate meters (total + per-component CPU
/// micros, provisioned/peak memory, node count) under `prefix`.
void exportTierMetrics(MetricsRegistry& registry, std::string_view prefix,
                       const sim::Tier& tier);

}  // namespace dcache::obs
