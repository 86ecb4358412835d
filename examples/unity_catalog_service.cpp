// A working catalog service on top of the library: builds the normalized
// Unity-Catalog-style schema inside the SQL substrate, serves getTable as a
// real rich object (assembled from up to 8 SQL statements), runs the
// application-level permission check with downward inheritance, and shows
// what a linked object cache does to the bill.
//
//   $ ./build/examples/unity_catalog_service
#include <cstdio>
#include <iostream>

#include "core/deployment.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "richobject/object_codec.hpp"
#include "workload/uc_trace.hpp"

using namespace dcache;

namespace {

void inspectOneObject(core::Deployment& deployment) {
  // Assemble one rich object through the real SQL path and poke at it the
  // way application code would.
  richobject::Assembler assembler(*deployment.catalogStore());
  sim::Node& app = deployment.appTier().node(0);
  const auto result = assembler.getTable(app, 7);
  if (!result.ok) {
    std::puts("getTable(7) failed");
    return;
  }
  const richobject::RichTableObject& object = *result.object;
  std::printf(
      "getTable(7) -> %s.%s.%s (format=%s, owner=%s)\n"
      "  assembled from %zu SQL statements, %llu bytes read\n"
      "  %zu privileges, %zu constraints, %zu lineage edges, %zu "
      "properties\n",
      object.catalog.name.c_str(), object.schema.name.c_str(),
      object.table.name.c_str(), object.table.format.c_str(),
      object.table.owner.c_str(), result.statementsIssued,
      static_cast<unsigned long long>(result.bytesRead),
      object.privileges.size(), object.constraints.size(),
      object.lineage.size(), object.properties.size());

  // Application logic: permission checks resolve against the whole chain.
  for (const char* principal : {object.table.owner.c_str(), "user3",
                                "mallory"}) {
    std::printf("  allowed(%s, SELECT) = %s\n", principal,
                object.allowed(principal, "SELECT") ? "yes" : "no");
  }

  // What a remote cache would ship per hit (and a linked cache would not):
  std::printf("  encoded object size: %s\n",
              util::Bytes::of(richobject::encodedObjectSize(object))
                  .str()
                  .c_str());
}

}  // namespace

int main() {
  workload::UcTraceConfig traceConfig;
  traceConfig.numTables = 20000;  // scaled-down catalog, same shape
  workload::UcTraceWorkload trace(traceConfig);

  std::puts("== Building the catalog (normalized schema + data) ==");
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  core::Deployment linked(config);
  linked.populateCatalog(trace);
  std::printf("catalog populated: %s of table/satellite data in storage\n\n",
              linked.db().totalStoredBytes().str().c_str());

  std::puts("== One rich object, up close ==");
  inspectOneObject(linked);

  std::puts("\n== Serving the production-shaped trace (40K QPS) ==");
  core::ExperimentConfig experiment;
  experiment.operations = 40000;
  experiment.warmupOperations = 120000;
  experiment.qps = 40000;
  experiment.richObjects = true;

  core::ExperimentRunner runner(experiment);
  workload::UcTraceWorkload linkedTrace(traceConfig);
  const auto linkedResult = runner.run(linked, linkedTrace);

  core::DeploymentConfig baseConfig;
  baseConfig.architecture = core::Architecture::kBase;
  core::Deployment base(baseConfig);
  workload::UcTraceWorkload baseTrace(traceConfig);
  base.populateCatalog(baseTrace);
  workload::UcTraceWorkload baseRun(traceConfig);
  const auto baseResult = runner.run(base, baseRun);

  const core::ExperimentResult results[] = {baseResult, linkedResult};
  std::cout << core::costComparisonTable(
      results, "Unity Catalog service: assemble-per-read vs linked object "
               "cache");
  std::printf("\nlinked object cache hit ratio: %.1f%%; statements avoided "
              "per hit: up to 8\n",
              100.0 * linkedResult.counters.hitRatio());
  return 0;
}
