// Per-layer replay for the traced run. The workload's seeded op stream is
// replayed into standalone instances of each layer, built from the layers'
// public constructors with the deployment's configuration; every call is
// timed from outside and recorded as a span. Nothing here touches the
// measured deployment.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "spans.hpp"

namespace simbench {

/// Replays cover at most this many ops of the measured window (after the
/// warmup ops, which only the cache replay applies), which bounds the
/// traced run's time and span memory.
inline constexpr std::uint64_t kReplayOps = 200000;

/// Summed host ns and call counts per replayed call. A layer the workload
/// never exercises keeps zero calls.
struct LayerStats {
  struct Calls {
    std::uint64_t count = 0;
    double ns = 0.0;
    [[nodiscard]] double meanNs() const {
      return count ? ns / static_cast<double>(count) : 0.0;
    }
  };
  std::uint64_t ops = 0;  // replayed ops of the measured window

  Calls cacheGet;   // LinkedCache::get
  Calls cacheFill;  // miss fill + write-through update
  std::uint64_t cacheHits = 0;

  Calls rpcCall;  // rpc::Channel::call with the op's client-leg wire sizes

  Calls readValue;   // storage::Database::readValue
  Calls writeValue;  // storage::Database::writeValue
  Calls exec;        // Database::exec: the point select on `tables`
  Calls scanPrefix;  // Database::engineScanPrefix over a table's privileges

  Calls getTable;     // richobject::Assembler::getTable
  Calls updateTable;  // richobject::Assembler::updateTable
  std::uint64_t getTableStatements = 0;  // statements issued by getTable
};

[[nodiscard]] LayerStats replayLayers(const WorkloadSpec& spec,
                                      std::uint64_t seed, SpanLog& spans);

}  // namespace simbench
