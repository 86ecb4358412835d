// Host-time spans for the traced benchmark run. The benchmark records one
// span around every call it makes into the simulator (set-up, warmup, each
// op's next() and serve(), and every call of the per-layer replays). Spans
// stay in memory and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simbench {

/// Monotonic host time in nanoseconds.
[[nodiscard]] inline std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;    // index into the log's name table
  std::uint32_t parent = 0;  // index of the enclosing span, or kNoParent
  std::uint64_t request = 0;  // op index the span served, or kNoRequest
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  static constexpr std::uint64_t kNoRequest = UINT64_MAX;

  /// Id of `name` in the name table (added on first use).
  std::uint32_t intern(std::string_view name);

  /// Record a finished span; returns its index (a parent for later spans).
  std::uint32_t add(std::uint32_t name, std::uint32_t parent,
                    std::uint64_t request, std::int64_t startNs,
                    std::int64_t endNs) {
    spans_.push_back(Span{name, parent, request, startNs, endNs});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Open a span now; close() stamps its end. For spans that enclose others.
  std::uint32_t open(std::uint32_t name, std::uint32_t parent) {
    return add(name, parent, kNoRequest, nowNs(), 0);
  }
  void close(std::uint32_t span) noexcept { spans_[span].endNs = nowNs(); }

  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Write every span as a tab-separated line
  /// `parent request name start_ns dur_ns` after a header line. A span's id
  /// is its line number counting from 0 after the header; start times are
  /// relative to the first span; parent and request are -1 when absent.
  /// Returns false on I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace simbench
