// Fixture ServeCounters: reads/hits come from the X-macro list; ghostReads
// is declared by hand after the list invocation, outside the list.
#pragma once
#include <cstdint>

#define DCACHE_COUNTER_FIELD(type, name) type name = 0;
#define DCACHE_SERVE_COUNTERS(X) \
  X(uint64_t, reads)             \
  X(uint64_t, hits)

namespace core {

struct ServeCounters {
  DCACHE_SERVE_COUNTERS(DCACHE_COUNTER_FIELD)
  uint64_t ghostReads = 0;

  [[nodiscard]] uint64_t total() const noexcept { return reads + hits; }
};

}  // namespace core
