// MetricsRegistry: typed upserts, insertion-ordered stable JSON, the tier
// adapter, and the file export the benches use for --metrics-out.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/deployment.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "util/histogram.hpp"

namespace dcache {
namespace {

/// The metric-key convention, written out independently of the exporter.
std::string snakeCase(std::string_view camel) {
  std::string out;
  for (const char c : camel) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      out += '_';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out;
}

/// One counter of the list, set alone to `value`: the export must publish it
/// under its snake_case key with that value (a counter for integers, a
/// gauge for doubles), and the equality helper must name it and only it.
template <typename T>
void checkListedCounter(std::string_view name, T core::ServeCounters::*field,
                        T value) {
  SCOPED_TRACE(std::string(name));
  core::ExperimentResult result;
  result.counters.*field = value;
  obs::MetricsRegistry registry;
  core::exportExperimentMetrics(registry, "cell.", result);
  const obs::MetricsRegistry::Metric* metric =
      registry.find("cell." + snakeCase(name));
  ASSERT_NE(metric, nullptr);
  if constexpr (std::is_same_v<T, double>) {
    EXPECT_EQ(metric->kind, obs::MetricsRegistry::Kind::kGauge);
    EXPECT_EQ(metric->gauge, value);
  } else {
    EXPECT_EQ(metric->kind, obs::MetricsRegistry::Kind::kCounter);
    EXPECT_EQ(metric->counter, value);
  }
  EXPECT_EQ(core::differingCounters(core::ServeCounters{}, result.counters),
            std::vector<std::string_view>{name});
}

TEST(MetricsRegistry, UpsertsByNameAndKeepsInsertionOrder) {
  obs::MetricsRegistry registry;
  registry.setCounter("b.reads", 10);
  registry.setGauge("a.hit_ratio", 0.5);
  registry.setCounter("b.reads", 12);  // overwrite, not duplicate

  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.metrics()[0].name, "b.reads");  // insertion order wins
  EXPECT_EQ(registry.metrics()[1].name, "a.hit_ratio");

  const obs::MetricsRegistry::Metric* reads = registry.find("b.reads");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->kind, obs::MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(reads->counter, 12u);

  registry.addToCounter("b.reads", 3);
  EXPECT_EQ(registry.find("b.reads")->counter, 15u);
  registry.addToCounter("fresh", 4);  // created at zero first
  EXPECT_EQ(registry.find("fresh")->counter, 4u);

  EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(MetricsRegistry, HistogramsExportSummaryStatistics) {
  util::Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.record(static_cast<double>(i));

  obs::MetricsRegistry registry;
  registry.setHistogram("latency_us", histogram);
  const obs::MetricsRegistry::Metric* metric = registry.find("latency_us");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::MetricsRegistry::Kind::kHistogram);
  EXPECT_EQ(metric->histogram.count, 100u);
  EXPECT_NEAR(metric->histogram.mean, 50.5, 1.0);
  EXPECT_GE(metric->histogram.p99, metric->histogram.p50);
  EXPECT_GE(metric->histogram.max, metric->histogram.p99);
}

TEST(MetricsRegistry, JsonIsStableAndCarriesTheSchemaTag) {
  obs::MetricsRegistry registry;
  registry.setCounter("reads", 7);
  registry.setGauge("ratio", 0.25);

  const std::string json = registry.toJson();
  EXPECT_NE(json.find("\"schema\":\"dcache.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"reads\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  // Deterministic: same registry, same document.
  EXPECT_EQ(json, registry.toJson());
  // Counters appear before gauges here because insertion order is the
  // export order.
  EXPECT_LT(json.find("\"reads\""), json.find("\"ratio\""));
}

TEST(MetricsRegistry, WritesTheJsonDocumentToAFile) {
  obs::MetricsRegistry registry;
  registry.setCounter("x", 1);

  const std::string path = ::testing::TempDir() + "dcache_metrics_test.json";
  ASSERT_TRUE(registry.writeJsonFile(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), registry.toJson());
  std::remove(path.c_str());

  EXPECT_FALSE(registry.writeJsonFile("/nonexistent-dir/metrics.json"));
}

TEST(MetricsRegistry, TierAdapterPublishesMetersUnderThePrefix) {
  sim::Tier tier("kv", sim::TierKind::kKvStorage, 2);
  tier.node(0).charge(sim::CpuComponent::kKvExecution, 120.0);
  tier.node(1).charge(sim::CpuComponent::kSerialization, 30.0);

  obs::MetricsRegistry registry;
  obs::exportTierMetrics(registry, "tier.", tier);  // names: tier.<name>.*

  const auto* nodes = registry.find("tier.kv.nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->counter, 2u);
  const auto* total = registry.find("tier.kv.cpu_micros_total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->gauge, 150.0);
}

TEST(MetricsRegistry, ClearEmptiesTheRegistry) {
  obs::MetricsRegistry registry;
  registry.setCounter("x", 1);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.find("x"), nullptr);
  registry.setCounter("y", 2);  // reusable after clear
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ServeCounterList, EveryCounterIsExportedAndCompared) {
  // Each counter gets a distinct value; doubles get a fractional one.
  std::size_t listed = 0;
  std::size_t listedBytes = 0;
#define DCACHE_CHECK(type, name)                              \
  ++listed;                                                   \
  listedBytes += sizeof(type);                                \
  checkListedCounter<type>(#name, &core::ServeCounters::name, \
                           static_cast<type>(listed) + type{1} / 2);
  DCACHE_SERVE_COUNTERS(DCACHE_CHECK)
#undef DCACHE_CHECK
  // No data member lives outside the list.
  EXPECT_EQ(listedBytes, sizeof(core::ServeCounters));
  EXPECT_TRUE(
      core::differingCounters(core::ServeCounters{}, core::ServeCounters{})
          .empty());
}

}  // namespace
}  // namespace dcache
