#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/cost_model.hpp"
#include "core/pricing.hpp"
#include "workload/meta_trace.hpp"
#include "workload/uc_trace.hpp"

namespace simbench {

using dcache::core::Architecture;
namespace core = dcache::core;
namespace workload = dcache::workload;

namespace {

// Op counts are fixed per workload, so every trial of a seed computes the
// same dollars. Each measured window takes about half a second to a second
// of host time, so a run holds many trials.
const std::vector<WorkloadSpec> kSpecs = {
    // UC-Object on Base: SQL parse/plan/exec, the KV engine's prefix scans
    // and object assembly do the work; there is no cache tier at all.
    {"uc_object_base", Architecture::kBase, 40000.0, true, 11, 10000, 40000},
    // Meta KV on Linked: the in-process cache is probed on every op over a
    // table far larger than the host's last-level cache; no SQL runs.
    {"meta_kv_linked", Architecture::kLinked, 120000.0, false, 7, 300000,
     500000},
};

/// fig7's catalog size: the normalized catalog stays in host memory.
constexpr std::uint64_t kObjectTables = 20000;

double seconds(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string exact(std::uint64_t value) { return std::to_string(value); }
std::string exact(std::int64_t value) { return std::to_string(value); }

SimOutputs simulatedOutputs(const WorkloadSpec& spec,
                            core::Deployment& deployment, std::uint64_t ops) {
  // Priced exactly as core::ExperimentRunner prices its measured window.
  const double simulatedSeconds = static_cast<double>(ops) / spec.qps;
  const core::CostModel model(core::Pricing::gcp(), 0.7);
  const core::CostBreakdown cost = model.breakdown(
      deployment.tiers(), simulatedSeconds,
      deployment.db().totalStoredBytes(),
      deployment.config().replicationFactor);
  SimOutputs out;
  for (const core::TierUsage& tier : cost.tiers) {
    out.emplace_back("cost." + tier.name + ".compute_uusd",
                     exact(tier.computeCost.micros()));
    out.emplace_back("cost." + tier.name + ".memory_uusd",
                     exact(tier.memoryCost.micros()));
  }
  out.emplace_back("cost.compute_uusd", exact(cost.computeCost.micros()));
  out.emplace_back("cost.memory_uusd", exact(cost.memoryCost.micros()));
  out.emplace_back("cost.storage_uusd", exact(cost.storageCost.micros()));
  out.emplace_back("cost.total_uusd", exact(cost.totalCost.micros()));
  // Prices are per month of provisioning for the offered load; a month is
  // billed as 730 hours, so a month serves qps * 730 * 3600 ops.
  out.emplace_back("cost.usd_per_op",
                   exact(cost.totalCost.dollars() / (spec.qps * 730.0 * 3600.0)));
  const core::ServeCounters& c = deployment.counters();
  out.emplace_back("counters.reads", exact(c.reads));
  out.emplace_back("counters.writes", exact(c.writes));
  out.emplace_back("counters.cache_hits", exact(c.cacheHits));
  out.emplace_back("counters.cache_misses", exact(c.cacheMisses));
  out.emplace_back("counters.statements_issued", exact(c.statementsIssued));
  out.emplace_back("counters.storage_reads", exact(c.storageReads));
  out.emplace_back("counters.failed_ops", exact(c.failedOps));
  out.emplace_back("counters.shedded_requests", exact(c.sheddedRequests));
  out.emplace_back("latency.sim_p99_us", exact(deployment.latencies().p99()));
  return out;
}

/// populateKv / populateCatalog, whichever the workload is served by.
void populate(const WorkloadSpec& spec, core::Deployment& deployment,
              const workload::Workload& workload) {
  if (spec.richObjects) {
    deployment.populateCatalog(
        static_cast<const workload::UcTraceWorkload&>(workload));
  } else {
    deployment.populateKv(workload);
  }
}

}  // namespace

const std::vector<WorkloadSpec>& workloadSpecs() { return kSpecs; }

const WorkloadSpec* findWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<workload::Workload> makeWorkload(const WorkloadSpec& spec,
                                                 std::uint64_t seed) {
  if (spec.name == "meta_kv_linked") {
    workload::MetaTraceConfig config;
    config.seed = seed;
    return std::make_unique<workload::MetaTraceWorkload>(config);
  }
  workload::UcTraceConfig config;
  if (spec.richObjects) config.numTables = kObjectTables;
  config.seed = seed;
  return std::make_unique<workload::UcTraceWorkload>(config);
}

core::DeploymentConfig deploymentConfigFor(const WorkloadSpec& spec) {
  core::DeploymentConfig config;
  config.architecture = spec.architecture;
  return config;
}

TrialResult runTrial(const WorkloadSpec& spec, std::uint64_t seed,
                     SpanLog* spans, std::vector<std::uint32_t>& opNs) {
  TrialResult result;
  const std::unique_ptr<workload::Workload> trace = makeWorkload(spec, seed);
  workload::Workload& wl = *trace;

  std::uint32_t trialSpan = SpanLog::kNoParent;
  if (spans) trialSpan = spans->open(spans->intern("trial"), SpanLog::kNoParent);
  const auto phase = [&](const char* name, std::int64_t from, std::int64_t to) {
    if (spans) spans->add(spans->intern(name), trialSpan, SpanLog::kNoRequest,
                          from, to);
  };

  const std::int64_t t0 = nowNs();
  core::Deployment deployment(deploymentConfigFor(spec));
  const std::int64_t t1 = nowNs();
  populate(spec, deployment, wl);
  const std::int64_t t2 = nowNs();
  phase("core.construct", t0, t1);
  phase("core.populate", t1, t2);

  // Simulated time advances from the offered load exactly as in
  // core::ExperimentRunner::run, continuing from warmup into the window.
  const double microsPerOp = 1e6 / spec.qps;
  std::uint64_t opIndex = 0;
  const auto advanceClock = [&] {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(
        microsPerOp * static_cast<double>(opIndex)));
    ++opIndex;
  };
  const auto serve = [&](const workload::Op& op) {
    if (spec.richObjects) {
      deployment.serveObject(op);
    } else {
      deployment.serve(op);
    }
  };

  result.warmupSliceS.resize(kSlices);
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const std::int64_t sliceStart = nowNs();
    for (std::uint64_t i = sliceBegin(spec.warmupOps, slice);
         i < sliceBegin(spec.warmupOps, slice + 1); ++i) {
      advanceClock();
      serve(wl.next());
    }
    result.warmupSliceS[slice] = seconds(sliceStart, nowNs());
  }
  const std::int64_t t3 = nowNs();
  phase("core.warmup", t2, t3);
  deployment.clearMeters();
  const std::uint64_t callsBefore = deployment.channel().callCount();

  const std::uint64_t n = spec.measuredOps;
  constexpr std::int64_t kMaxSample = std::numeric_limits<std::uint32_t>::max();
  std::int64_t t4 = 0;
  if (!spans) {
    opNs.resize(n);
    std::int64_t prev = nowNs();
    const std::int64_t start = prev;
    for (std::uint64_t i = 0; i < n; ++i) {
      advanceClock();
      serve(wl.next());
      const std::int64_t now = nowNs();
      opNs[i] = static_cast<std::uint32_t>(std::min(now - prev, kMaxSample));
      prev = now;
    }
    result.measureS = seconds(start, prev);
    t4 = prev;
    result.windowSliceS.resize(kSlices);
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      std::int64_t ns = 0;
      for (std::uint64_t i = sliceBegin(n, slice); i < sliceBegin(n, slice + 1);
           ++i) {
        ns += opNs[i];
      }
      result.windowSliceS[slice] = static_cast<double>(ns) * 1e-9;
    }
  } else {
    const std::uint32_t nextName = spans->intern("workload.next");
    const std::uint32_t serveName = spans->intern("core.serve");
    spans->reserve(spans->spans().size() + 2 * n + 16);
    opNs.resize(n);
    const std::uint32_t window = spans->open(spans->intern("measure"), trialSpan);
    const std::int64_t start = spans->spans()[window].startNs;
    std::int64_t nextTotal = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      advanceClock();
      const std::int64_t a = nowNs();
      const workload::Op op = wl.next();
      const std::int64_t b = nowNs();
      serve(op);
      const std::int64_t c = nowNs();
      spans->add(nextName, window, i, a, b);
      spans->add(serveName, window, i, b, c);
      nextTotal += b - a;
      opNs[i] = static_cast<std::uint32_t>(std::min(c - b, kMaxSample));
    }
    spans->close(window);
    t4 = spans->spans()[window].endNs;
    result.measureS = seconds(start, t4);
    result.nextNsTotal = static_cast<double>(nextTotal);
  }

  result.ops = n;
  result.channelCalls = deployment.channel().callCount() - callsBefore;
  result.counters = deployment.counters();
  result.outputs = simulatedOutputs(spec, deployment, n);
  result.constructS = seconds(t0, t1);
  result.populateS = seconds(t1, t2);
  result.warmupS = seconds(t2, t3);
  if (spans) spans->close(trialSpan);
  return result;
}

std::optional<Reference> Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workloadName, field, value;
    std::uint64_t seed = 0;
    if (!(fields >> workloadName >> seed >> field >> value)) return std::nullopt;
    ref.entries_[{workloadName, seed}][field] = value;
  }
  return ref;
}

const std::map<std::string, std::string>* Reference::find(
    std::string_view workloadName, std::uint64_t seed) const {
  const auto it = entries_.find({std::string(workloadName), seed});
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> diffOutputs(
    const SimOutputs& got, const std::map<std::string, std::string>& want) {
  std::vector<std::string> diffs;
  std::size_t matched = 0;
  for (const auto& [field, value] : got) {
    const auto it = want.find(field);
    if (it == want.end()) {
      diffs.push_back(field + ": got " + value + ", reference has no value");
    } else {
      ++matched;
      if (it->second != value) {
        diffs.push_back(field + ": got " + value + ", reference " + it->second);
      }
    }
  }
  if (matched != want.size()) {
    for (const auto& [field, value] : want) {
      const bool present =
          std::any_of(got.begin(), got.end(),
                      [&](const auto& kv) { return kv.first == field; });
      if (!present) {
        diffs.push_back(field + ": missing, reference " + value);
      }
    }
  }
  return diffs;
}

std::vector<std::string> diffOutputs(const SimOutputs& got,
                                     const SimOutputs& want) {
  return diffOutputs(got, std::map<std::string, std::string>(want.begin(),
                                                             want.end()));
}

std::string referenceLines(std::string_view workloadName, std::uint64_t seed,
                           const SimOutputs& outputs) {
  std::string out;
  for (const auto& [field, value] : outputs) {
    out.append(workloadName);
    out += ' ';
    out += std::to_string(seed);
    out += ' ';
    out += field;
    out += ' ';
    out += value;
    out += '\n';
  }
  return out;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace simbench
