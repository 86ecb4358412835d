// Figure 2 — theoretical model (§4).
//   (a) Cost saving vs Zipf alpha: Linked (s_A = 8GB, s_D = 1GB) vs Base
//       (1GB of in-storage cache).
//   (b) Cost saving vs number of cache replicas N_r, at memory price
//       multipliers 1x / 10x / 40x.
// Plus the §4 takeaways: |dT/ds_A| > |dT/ds_D| across skews, and the
// optimal linked-cache allocation where the marginal benefit meets the
// memory price.
// Each sweep row is an independent model evaluation, fanned out over the
// worker pool (--jobs N / DCACHE_JOBS); rows print in submission order.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/matrix.hpp"
#include "core/model.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

using namespace dcache;

namespace {

constexpr double kAlphas2a[] = {0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4};
constexpr double kReplicas2b[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
constexpr double kMultipliers2b[] = {1.0, 10.0, 40.0};
constexpr double kAlphasTakeaway[] = {0.8, 1.0, 1.2, 1.4};

core::ModelParams baseParams() {
  core::ModelParams params;  // measured c_A/c_D, 100K keys, 23KB objects
  return params;
}

void figure2a(util::ThreadPool& pool) {
  const auto rows =
      util::mapOrdered(pool, std::size(kAlphas2a), [](std::size_t i) {
        core::ModelParams params = baseParams();
        params.alpha = kAlphas2a[i];
        const core::TheoreticalModel model(params);
        const auto sA = util::Bytes::gb(8);
        const auto sD = util::Bytes::gb(1);
        const auto base = model.totalCost(util::Bytes::of(0), sD);
        const auto linked = model.totalCost(sA, sD);
        char saving[16];
        std::snprintf(saving, sizeof saving, "%.2fx", base / linked);
        return std::vector<std::string>{
            util::TablePrinter::toCell(params.alpha),
            util::TablePrinter::toCell(model.missRatio(sA)),
            util::TablePrinter::toCell(model.missRatio(sD)),
            base.str(), linked.str(), saving};
      });
  util::TablePrinter table(
      {"alpha", "MR(8GB)", "MR(1GB)", "T_base", "T_linked", "saving"});
  for (auto row : rows) table.addRow(std::move(row));
  table.print(
      "Figure 2a: cost saving vs Zipf alpha — Linked(sA=8GB,sD=1GB) vs "
      "Base(1GB in-storage)");
}

void figure2b(util::ThreadPool& pool) {
  const auto rows =
      util::mapOrdered(pool, std::size(kReplicas2b), [](std::size_t i) {
        const double replicas = kReplicas2b[i];
        std::vector<std::string> row{util::TablePrinter::toCell(replicas)};
        for (const double multiplier : kMultipliers2b) {
          core::ModelParams params = baseParams();
          params.replicas = replicas;
          params.pricing =
              core::Pricing::gcp().withMemoryMultiplier(multiplier);
          const core::TheoreticalModel model(params);
          // At steep memory prices the operator would shrink the cache; use
          // the optimal allocation per configuration, as the paper's
          // takeaway ("adding caches still saves cost") is about the best
          // achievable.
          const auto best =
              model.optimalAppCache(util::Bytes::gb(1), util::Bytes::gb(16));
          const double saving = model.savingVsBase(best, util::Bytes::gb(1),
                                                   util::Bytes::gb(1));
          char buf[24];
          std::snprintf(buf, sizeof buf, "%.2fx (sA=%s)", saving,
                        best.str().c_str());
          row.emplace_back(buf);
        }
        return row;
      });
  util::TablePrinter table({"N_r", "saving@1x", "saving@10x", "saving@40x"});
  for (auto row : rows) table.addRow(std::move(row));
  table.print(
      "\nFigure 2b: cost saving vs replicas N_r at DRAM price 1x/10x/40x "
      "(optimal sA per cell)");
}

void takeaways(util::ThreadPool& pool) {
  const auto rows =
      util::mapOrdered(pool, std::size(kAlphasTakeaway), [](std::size_t i) {
        core::ModelParams params = baseParams();
        params.alpha = kAlphasTakeaway[i];
        const core::TheoreticalModel model(params);
        const auto sA = util::Bytes::mb(256);
        const auto sD = util::Bytes::mb(256);
        const double dA = model.dTdAppCache(sA, sD);
        const double dD = model.dTdStorageCache(sA, sD);
        return std::vector<std::string>{
            util::TablePrinter::toCell(params.alpha),
            util::TablePrinter::toCell(dA), util::TablePrinter::toCell(dD),
            std::abs(dA) > std::abs(dD) ? "yes" : "NO"};
      });
  util::TablePrinter table(
      {"alpha", "dT/dsA ($/GB)", "dT/dsD ($/GB)", "|dT/dsA|>|dT/dsD|"});
  for (auto row : rows) table.addRow(std::move(row));
  table.print("\nSection 4 takeaway: marginal value of app cache vs storage "
              "cache (at sA=sD=256MB)");

  const core::TheoreticalModel model(baseParams());
  const auto best =
      model.optimalAppCache(util::Bytes::gb(1), util::Bytes::gb(32));
  std::printf(
      "\nOptimal linked-cache allocation (sD=1GB): sA*=%s, total cost %s "
      "(gradient %.3f $/GB)\n",
      best.str().c_str(),
      model.totalCost(best, util::Bytes::gb(1)).str().c_str(),
      model.dTdAppCache(best, util::Bytes::gb(1)));
}

void disaggPanel(util::ThreadPool& pool) {
  // Fifth-architecture extension: a 512MB DRAM hot cache per replica set
  // backed by a 16GB far-memory pool at the far $/GB rate, against the
  // Fig. 2a Linked allocation. The crossover the simulation reproduces:
  // heavy skew keeps the hot cache hitting (disagg wins on memory price);
  // flat skew makes every read pay the one-sided fixed cost (Linked wins).
  const auto rows =
      util::mapOrdered(pool, std::size(kAlphas2a), [](std::size_t i) {
        core::ModelParams params = baseParams();
        params.alpha = kAlphas2a[i];
        const core::TheoreticalModel model(params);
        const auto sHot = util::Bytes::mb(512);
        const auto sFar = util::Bytes::gb(16);
        const auto sD = util::Bytes::gb(1);
        const auto linked = model.totalCost(util::Bytes::gb(8), sD);
        const auto disagg = model.totalCostDisagg(sHot, sFar, sD);
        char vsLinked[16];
        std::snprintf(vsLinked, sizeof vsLinked, "%.2fx", linked / disagg);
        return std::vector<std::string>{
            util::TablePrinter::toCell(params.alpha),
            util::TablePrinter::toCell(model.missRatio(sHot)),
            util::TablePrinter::toCell(model.missRatio(sHot + sFar)),
            disagg.str(), linked.str(), vsLinked};
      });
  util::TablePrinter table({"alpha", "MR(hot)", "MR(hot+far)", "T_disagg",
                            "T_linked", "linked/disagg"});
  for (auto row : rows) table.addRow(std::move(row));
  table.print(
      "\nFigure 2c: disaggregated (hot=512MB, far=16GB @ far-memory rate) "
      "vs Linked(sA=8GB) — >1x means disagg is cheaper");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  util::ThreadPool pool(benchOptions.matrix.jobs);
  figure2a(pool);
  figure2b(pool);
  takeaways(pool);
  disaggPanel(pool);
  if (!benchOptions.metricsOut.empty()) {
    // Analytic bench: no deployments, so export the model's headline
    // numbers (per-alpha savings) directly.
    obs::MetricsRegistry registry;
    for (const double alpha : kAlphas2a) {
      core::ModelParams params = baseParams();
      params.alpha = alpha;
      const core::TheoreticalModel model(params);
      const auto base =
          model.totalCost(util::Bytes::of(0), util::Bytes::gb(1));
      const auto linked =
          model.totalCost(util::Bytes::gb(8), util::Bytes::gb(1));
      char name[48];
      std::snprintf(name, sizeof name, "fig2a.alpha_%.1f.saving", alpha);
      registry.setGauge(name, base / linked);
    }
    if (!registry.writeJsonFile(benchOptions.metricsOut)) {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   benchOptions.metricsOut.c_str());
    }
  }
  if (!benchOptions.benchJsonOut.empty()) {
    bench::writeBenchJson(benchOptions, {});
  }
  return 0;
}
