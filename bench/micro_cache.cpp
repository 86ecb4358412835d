// dcache-lint: allow-file(bench-hygiene, Google-Benchmark microbench — stdout carries wall-clock timings and can never be byte-deterministic, so it is excluded from the determinism diff and golden gates)
// Micro-benchmarks for the cache library: per-operation costs of the
// eviction policies, consistent hashing, Zipf sampling and the
// Mattson profiler — the structures every simulated request crosses.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/hash_ring.hpp"
#include "cache/kv_cache.hpp"
#include "cache/mrc.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace dcache;

std::vector<std::string> makeKeys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(workload::keyName(i));
  return keys;
}

std::string backendLabel(cache::EvictionPolicy policy,
                         cache::CacheBackend backend) {
  std::string label(cache::evictionPolicyName(policy));
  label += '/';
  label += cache::cacheBackendName(backend);
  return label;
}

// Each policy benchmark runs as a node/flat pair interleaved in one process,
// so the backend comparison is immune to machine-load drift between runs.
void BM_PolicyGetHit(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  const auto backend = static_cast<cache::CacheBackend>(state.range(1));
  auto cache = cache::makeCache(policy, util::Bytes::mb(64), backend);
  const auto keys = makeKeys(10000);
  for (const auto& key : keys) {
    cache->put(key, cache::CacheEntry::sized(100));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->get(keys[i]));
    i = (i + 7919) % keys.size();
  }
  state.SetLabel(backendLabel(policy, backend));
}
BENCHMARK(BM_PolicyGetHit)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2}});  // policy x {kNode, kFlat}

void BM_PolicyPutWithEviction(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  const auto backend = static_cast<cache::CacheBackend>(state.range(1));
  // Capacity for ~1000 entries; inserts from a 10x keyspace force evictions.
  auto cache = cache::makeCache(policy, util::Bytes::of(1000 * 200), backend);
  const auto keys = makeKeys(10000);
  std::size_t i = 0;
  for (auto _ : state) {
    cache->put(keys[i], cache::CacheEntry::sized(100));
    i = (i + 7919) % keys.size();
  }
  state.SetLabel(backendLabel(policy, backend));
}
BENCHMARK(BM_PolicyPutWithEviction)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2}});

// Cold fill: construct a cache and insert 10k distinct entries per
// iteration. This is the allocation-dominated path the slab/arena storage
// targets — the node backends pay three heap allocations per insert, the
// flat backend bump-allocates from chunked slabs. Millisecond-scale
// iterations also make this the most machine-noise-immune cache benchmark
// in the suite.
void BM_PolicyColdFill(benchmark::State& state) {
  const auto policy = static_cast<cache::EvictionPolicy>(state.range(0));
  const auto backend = static_cast<cache::CacheBackend>(state.range(1));
  const auto keys = makeKeys(10000);
  for (auto _ : state) {
    auto cache = cache::makeCache(policy, util::Bytes::mb(64), backend);
    for (const auto& key : keys) {
      cache->put(key, cache::CacheEntry::sized(100));
    }
    benchmark::DoNotOptimize(cache->itemCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
  state.SetLabel(backendLabel(policy, backend));
}
BENCHMARK(BM_PolicyColdFill)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2}});

void BM_HashRingOwner(benchmark::State& state) {
  cache::HashRing ring;
  for (std::size_t m = 0; m < 16; ++m) ring.addMember(m);
  std::uint64_t h = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.ownerOf(h));
    h = h * 6364136223846793005ULL + 1;
  }
}
BENCHMARK(BM_HashRingOwner);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfianGenerator zipf(
      static_cast<std::uint64_t>(state.range(0)), 1.2);
  util::Pcg32 rng(1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.nextKey(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(100000)->Arg(10000000);

void BM_MattsonAccess(benchmark::State& state) {
  cache::MattsonProfiler profiler;
  workload::ZipfianGenerator zipf(100000, 1.0);
  util::Pcg32 rng(2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiler.access(workload::keyName(zipf.nextKey(rng))));
  }
}
BENCHMARK(BM_MattsonAccess);

}  // namespace
