// simbench: the simulator's benchmark. For one named workload it builds a
// core::Deployment, populates and warms it, then drives the workload as a
// closed loop from one thread (next() then serve() per op), repeating whole
// trials until --seconds have been measured. Every trial's simulated
// outputs (dollars per tier, counters, simulated p99) must equal the
// committed reference and each other. The last stdout line is the JSON
// result; --trace 1 adds a traced trial plus per-layer replays and reports
// per-layer metrics instead of end-to-end ones.
//
//   simbench --workload meta_kv_linked --seed 7 --seconds 10 --trace 0
//   simbench --record-reference > simbench/reference.txt
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"
#include "spans.hpp"

using namespace simbench;

namespace {

/// Trials per run at least: set-up time is reported as a median.
constexpr std::size_t kMinTrials = 3;
/// Safety cap on trials per run, whatever --seconds says.
constexpr std::size_t kMaxTrials = 60;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seedGiven = false;
  double seconds = 10.0;
  bool trace = false;
  std::string reference = "simbench/reference.txt";
  std::string spansOut;
  bool recordReference = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference FILE] "
               "[--spans FILE]\n       simbench --record-reference\n",
               message);
  std::exit(2);
}

bool parseUnsigned(const char* text, std::uint64_t& out) {
  if (!text || !*text) return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end && *end == '\0';
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    std::string value;
    bool hasValue = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      hasValue = true;
    }
    if (name == "--record-reference") {
      args.recordReference = true;
      continue;
    }
    if (!hasValue) {
      if (i + 1 >= argc) usage(("missing value for " + name).c_str());
      value = argv[++i];
    }
    std::uint64_t number = 0;
    if (name == "--workload") {
      args.workload = value;
    } else if (name == "--seed") {
      if (!parseUnsigned(value.c_str(), number)) usage("bad --seed");
      args.seed = number;
      args.seedGiven = true;
    } else if (name == "--seconds") {
      if (!parseUnsigned(value.c_str(), number) || number == 0 ||
          number > 3600) {
        usage("--seconds must be a whole number from 1 to 3600");
      }
      args.seconds = static_cast<double>(number);
    } else if (name == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (name == "--reference") {
      args.reference = value;
    } else if (name == "--spans") {
      args.spansOut = value;
    } else {
      usage(("unknown argument " + name).c_str());
    }
  }
  return args;
}

int recordReference() {
  std::printf(
      "# simbench reference: simulated outputs of one trial per workload on\n"
      "# its default seed and on the held-out seed. Fields are exact (money\n"
      "# in micro-dollars). Regenerate only for an intended model change:\n"
      "#   simbench --record-reference > simbench/reference.txt\n");
  std::vector<std::uint32_t> opNs;
  for (const WorkloadSpec& spec : workloadSpecs()) {
    for (const std::uint64_t seed : {spec.defaultSeed, kHeldOutSeed}) {
      const TrialResult trial = runTrial(spec, seed, nullptr, opNs);
      std::fputs(referenceLines(spec.name, seed, trial.outputs).c_str(),
                 stdout);
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string jsonResult(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[48];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double perOp(double total, std::uint64_t ops) {
  return ops ? total / static_cast<double>(ops) : 0.0;
}

void printPercentRow(const char* name, double part, double whole) {
  std::printf("  %-24s %10.4f s  %6.2f%%\n", name, part,
              whole > 0.0 ? 100.0 * part / whole : 0.0);
}

/// The run's trials and the checks of their simulated outputs.
struct RunLog {
  std::vector<TrialResult> trials;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failedOps = 0;

  /// Check and log one trial; `opP99Us` is the p99 of its op samples.
  void add(TrialResult trial, const std::map<std::string, std::string>* ref,
           const char* label, double opP99Us) {
    attempted += trial.ops;
    failedOps += trial.counters.failedOps + trial.counters.sheddedRequests;
    const auto note = [&](const std::vector<std::string>& diffs,
                          const char* against) {
      for (const std::string& d : diffs) {
        problems.push_back(std::string(label) + " vs " + against + ": " + d);
      }
    };
    if (ref) note(diffOutputs(trial.outputs, *ref), "reference");
    if (!trials.empty()) {
      note(diffOutputs(trial.outputs, trials.front().outputs), "first trial");
    }
    std::printf("  %-8s construct %.4f s  populate %.4f s  warmup %.4f s  "
                "window %.4f s  %.0f ops/s  p99 %.3f us  peak rss %.1f MB\n",
                label, trial.constructS, trial.populateS, trial.warmupS,
                trial.measureS, static_cast<double>(trial.ops) / trial.measureS,
                opP99Us, peakRssMb());
    std::fflush(stdout);
    trials.push_back(std::move(trial));
  }

  /// One value per trial, in trial order.
  template <class F>
  [[nodiscard]] std::vector<double> each(F&& value) const {
    std::vector<double> values;
    for (const TrialResult& t : trials) values.push_back(value(t));
    return values;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.recordReference) return recordReference();
  const WorkloadSpec* spec = findWorkload(args.workload);
  if (!spec) usage(("unknown workload '" + args.workload + "'").c_str());
  const std::uint64_t seed = args.seedGiven ? args.seed : spec->defaultSeed;
  const std::optional<Reference> reference = Reference::load(args.reference);
  if (!reference) {
    std::fprintf(stderr, "simbench: cannot read reference %s\n",
                 args.reference.c_str());
    return 2;
  }

  std::printf("simbench %s seed %llu: %.0f s measured, tracing %s\n",
              std::string(spec->name).c_str(),
              static_cast<unsigned long long>(seed), args.seconds,
              args.trace ? "on (per-layer run)" : "off");
  RunLog run;
  // One op-sample buffer for the whole run, allocated before any deployment.
  std::vector<std::uint32_t> opNs;
  opNs.reserve(spec->measuredOps);

  const auto* seedRef = reference->find(spec->name, seed);

  // Untraced trials until the time budget (half of it when tracing: the
  // traced trial and the replays take the rest).
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t minTrials = args.trace ? 2 : kMinTrials;
  // Interference from other tenants of a shared host only ever slows work,
  // in bursts and in phases that drift over minutes. Every trial serves the
  // same ops, so the run keeps, for each slice of the window and of the
  // warmup, the least time any trial took on it, and the window slices' op
  // samples from that trial. Throughput, warmup and the op p99 are read from
  // this quietest composite: over a long run cut into 30 s windows it varied
  // far less between windows than the best or the median trial.
  std::vector<std::uint32_t> quietOpNs(spec->measuredOps);
  std::vector<double> quietWindowS(kSlices, HUGE_VAL);
  std::vector<double> quietWarmupS(kSlices, HUGE_VAL);
  double firstTrialRssMb = 0.0;
  const std::int64_t loopStart = nowNs();
  while (true) {
    TrialResult trial = runTrial(*spec, seed, nullptr, opNs);
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      quietWarmupS[slice] = std::min(quietWarmupS[slice],
                                     trial.warmupSliceS[slice]);
      if (trial.windowSliceS[slice] < quietWindowS[slice]) {
        quietWindowS[slice] = trial.windowSliceS[slice];
        const auto begin = static_cast<std::ptrdiff_t>(
            sliceBegin(spec->measuredOps, slice));
        const auto end = static_cast<std::ptrdiff_t>(
            sliceBegin(spec->measuredOps, slice + 1));
        std::copy(opNs.begin() + begin, opNs.begin() + end,
                  quietOpNs.begin() + begin);
      }
    }
    run.add(std::move(trial), seedRef,
            ("trial " + std::to_string(run.trials.size() + 1)).c_str(),
            quantile(opNs, 0.99) * 1e-3);
    // Later trials reuse a heap their predecessors fragmented, so peak
    // memory is read once, after the first trial of this fresh process.
    if (run.trials.size() == 1) firstTrialRssMb = peakRssMb();
    const double elapsed = static_cast<double>(nowNs() - loopStart) * 1e-9;
    const double perTrial = elapsed / static_cast<double>(run.trials.size());
    if (run.trials.size() >= kMaxTrials) break;
    if (run.trials.size() >= minTrials && elapsed + perTrial > budget) break;
  }
  const std::size_t untraced = run.trials.size();

  // Every run checks the simulated outputs against the committed reference:
  // directly when its seed is referenced, else by one extra trial on the
  // workload's default seed (not counted in any metric). It runs after the
  // measured trials so that the first of those runs in a fresh process.
  if (!seedRef) {
    const auto* defaultRef = reference->find(spec->name, spec->defaultSeed);
    RunLog check;
    TrialResult trial = runTrial(*spec, spec->defaultSeed, nullptr, opNs);
    check.add(std::move(trial), defaultRef, "check",
              quantile(opNs, 0.99) * 1e-3);
    if (!defaultRef) check.problems.push_back("no reference for default seed");
    for (const std::string& p : check.problems) run.problems.push_back(p);
    std::printf("  reference check on default seed %llu: %s\n",
                static_cast<unsigned long long>(spec->defaultSeed),
                check.problems.empty() ? "match" : "MISMATCH");
  }
  const std::vector<double> rates = run.each([](const TrialResult& t) {
    return static_cast<double>(t.ops) / t.measureS;
  });

  SpanLog spans;
  LayerStats layers;
  if (args.trace) {
    TrialResult trial = runTrial(*spec, seed, &spans, opNs);
    run.add(std::move(trial), seedRef, "traced", quantile(opNs, 0.99) * 1e-3);
    layers = replayLayers(*spec, seed, spans);
    if (!args.spansOut.empty()) {
      if (spans.write(args.spansOut)) {
        std::printf("  %zu spans written to %s\n", spans.spans().size(),
                    args.spansOut.c_str());
      } else {
        std::fprintf(stderr, "simbench: cannot write spans to %s\n",
                     args.spansOut.c_str());
        return 2;
      }
    }
  }

  const TrialResult& first = run.trials.front();
  std::printf("\nsimulated outputs (%llu measured ops per trial):\n",
              static_cast<unsigned long long>(first.ops));
  for (const auto& [field, value] : first.outputs) {
    std::printf("  %-34s %s\n", field.c_str(), value.c_str());
  }
  if (run.problems.empty()) {
    std::printf("outputs check: every trial matches %s\n",
                seedRef ? "the reference for this seed"
                        : "the first trial (reference checked on the "
                          "default seed)");
  } else {
    std::printf("outputs check: %zu MISMATCHES, all ops counted failed\n",
                run.problems.size());
    for (const std::string& p : run.problems) std::printf("  %s\n", p.c_str());
  }
  const bool correct = run.problems.empty();
  const std::uint64_t failed = correct ? run.failedOps : run.attempted;
  std::printf("ops attempted %llu, failed %llu (failedOps + sheddedRequests "
              "%llu)\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(run.failedOps));

  const auto medianOf = [&](double TrialResult::*field) {
    return median(run.each([&](const TrialResult& t) { return t.*field; }));
  };
  const double construct = medianOf(&TrialResult::constructS);
  const double populate = medianOf(&TrialResult::populateS);
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double warmup = medianOf(&TrialResult::warmupS);
    const double window = medianOf(&TrialResult::measureS);
    const double total = construct + populate + warmup + window;
    std::printf("\nwall time of the median trial (%zu trials):\n", untraced);
    printPercentRow("construct", construct, total);
    printPercentRow("populate", populate, total);
    printPercentRow("warmup", warmup, total);
    printPercentRow("ops (next + serve)", window, total);
    const auto sum = [](const std::vector<double>& v) {
      return std::accumulate(v.begin(), v.end(), 0.0);
    };
    std::printf("sim_ops_per_s and warmup_s: quietest composite of %zu "
                "trials, %zu slices each (median trial: %.0f ops/s, warmup "
                "%.4f s)\n",
                untraced, kSlices, median(rates), warmup);
    metrics = {
        {"sim_ops_per_s",
         static_cast<double>(spec->measuredOps) / sum(quietWindowS), "1/s"},
        {"setup_s", median(run.each([](const TrialResult& t) {
           return t.constructS + t.populateS;
         })),
         "s"},
        {"warmup_s", sum(quietWarmupS), "s"},
        {"peak_rss_mb", firstTrialRssMb, "MB"},
    };
  } else {
    const TrialResult& traced = run.trials.back();
    const std::uint64_t ops = traced.ops;
    const double windowNs = traced.measureS * 1e9;
    double serveTotal = 0.0;
    for (const std::uint32_t ns : opNs) serveTotal += ns;  // traced: serve ns
    const double serveMean = perOp(serveTotal, ops);
    const double serveP50 = quantile(opNs, 0.50);
    const double serveP99 = quantile(opNs, 0.99);
    const dcache::core::ServeCounters& c = traced.counters;
    const double tracedRate = static_cast<double>(ops) / traced.measureS;

    std::printf("\nwall time of the traced trial:\n");
    const double total = traced.constructS + traced.populateS +
                         traced.warmupS + traced.measureS;
    printPercentRow("construct", traced.constructS, total);
    printPercentRow("populate", traced.populateS, total);
    printPercentRow("warmup", traced.warmupS, total);
    printPercentRow("workload.next", traced.nextNsTotal * 1e-9, total);
    printPercentRow("core.serve", serveTotal * 1e-9, total);

    // Which layer ate core.serve: replayed ns per call x the deployment's
    // calls per op, over the mean serve ns. Shares nest (storage.exec runs
    // inside richobject.get_table), so they do not sum to 100%.
    std::printf("\nreplayed layer time per op, as a share of core.serve "
                "(mean %.1f ns/op):\n", serveMean);
    const auto share = [&](const char* name, const LayerStats::Calls& calls,
                           double callsPerOp) {
      if (!calls.count) {
        std::printf("  %-24s idle\n", name);
        return;
      }
      const double nsPerOp = calls.meanNs() * callsPerOp;
      std::printf("  %-24s %10.1f ns x %7.4f/op = %8.1f ns  %6.2f%%\n", name,
                  calls.meanNs(), callsPerOp, nsPerOp,
                  serveMean > 0.0 ? 100.0 * nsPerOp / serveMean : 0.0);
    };
    const double dOps = static_cast<double>(ops);
    share("cache.get", layers.cacheGet, static_cast<double>(c.reads) / dOps);
    share("cache.fill", layers.cacheFill,
          static_cast<double>(c.cacheMisses + c.writes) / dOps);
    share("rpc.call", layers.rpcCall,
          static_cast<double>(traced.channelCalls) / dOps);
    share("storage.read_value", layers.readValue,
          static_cast<double>(c.storageReads) / dOps);
    share("storage.write_value", layers.writeValue,
          spec->richObjects ? 0.0 : static_cast<double>(c.writes) / dOps);
    share("storage.exec", layers.exec,
          static_cast<double>(c.statementsIssued) / dOps);
    share("richobject.get_table", layers.getTable,
          static_cast<double>(c.reads) / dOps);
    share("richobject.update_table", layers.updateTable,
          static_cast<double>(c.writes) / dOps);
    if (layers.scanPrefix.count) {
      std::printf("  %-24s %10.1f ns per call (inside storage.exec)\n",
                  "storage.scan_prefix", layers.scanPrefix.meanNs());
    }

    std::printf("op_us_p99: next + serve at p99 over the quietest composite "
                "of the %zu untraced trials (%zu op samples)\n",
                untraced, quietOpNs.size());
    const std::uint64_t cacheCalls =
        layers.cacheGet.count + layers.cacheFill.count;
    metrics = {
        // Host time per op at p99 is a per-layer metric: across runs it
        // spread more than the end-to-end bound allows a third of.
        {"op_us_p99", quantile(quietOpNs, 0.99) * 1e-3, "us"},
        {"workload.next_ns", perOp(traced.nextNsTotal, ops), "ns"},
        {"workload.next_share", traced.nextNsTotal / windowNs, "fraction"},
        {"core.serve_ns_p50", serveP50, "ns"},
        {"core.serve_ns_p99", serveP99, "ns"},
        {"core.serve_share", serveTotal / windowNs, "fraction"},
        {"core.construct_s", construct, "s"},
        {"core.populate_s", populate, "s"},
        {"core.hit_ratio", c.hitRatio(), "fraction"},
        {"core.storage_reads_per_op",
         perOp(static_cast<double>(c.storageReads), ops), "1/op"},
        {"core.statements_per_op",
         perOp(static_cast<double>(c.statementsIssued), ops), "1/op"},
        {"cache.get_ns", layers.cacheGet.meanNs(), "ns"},
        {"cache.fill_ns", layers.cacheFill.meanNs(), "ns"},
        {"cache.hit_ratio",
         perOp(static_cast<double>(layers.cacheHits), layers.cacheGet.count),
         "fraction"},
        {"cache.calls", perOp(static_cast<double>(cacheCalls), layers.ops),
         "1/op"},
        {"rpc.call_ns", layers.rpcCall.meanNs(), "ns"},
        {"rpc.calls", perOp(static_cast<double>(traced.channelCalls), ops),
         "1/op"},
        {"storage.read_value_ns", layers.readValue.meanNs(), "ns"},
        {"storage.write_value_ns", layers.writeValue.meanNs(), "ns"},
        {"storage.exec_ns", layers.exec.meanNs(), "ns"},
        {"storage.scan_prefix_ns", layers.scanPrefix.meanNs(), "ns"},
        {"richobject.get_table_ns", layers.getTable.meanNs(), "ns"},
        {"richobject.update_table_ns", layers.updateTable.meanNs(), "ns"},
        {"richobject.statements_per_get",
         perOp(static_cast<double>(layers.getTableStatements),
               layers.getTable.count),
         "1/op"},
        {"trace.overhead_frac", median(rates) / tracedRate - 1.0, "fraction"},
    };
  }

  std::printf("\nmetrics:\n");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%s\n",
              jsonResult(correct, run.attempted, failed, metrics).c_str());
  return 0;
}
