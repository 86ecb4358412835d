// Test-only oracle for cache::HashRing: the std::map ring (point -> member)
// it replaced, as inline definitions. tests/test_sharded_ring.cpp drives
// both rings in lockstep; ordered map iteration is the reference for the
// clockwise walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/hash.hpp"

namespace dcache::cache::oracle {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodesPerMember = 128) noexcept
      : vnodes_(vnodesPerMember == 0 ? 1 : vnodesPerMember) {}

  void addMember(std::size_t member) {
    if (contains(member)) return;
    members_.push_back(member);
    for (std::size_t v = 0; v < vnodes_; ++v) {
      const std::uint64_t point =
          util::hashCombine(util::hashU64(member), util::hashU64(v));
      ring_.emplace(point, member);
    }
  }

  bool removeMember(std::size_t member) {
    const auto it = std::find(members_.begin(), members_.end(), member);
    if (it == members_.end()) return false;
    members_.erase(it);
    for (auto ringIt = ring_.begin(); ringIt != ring_.end();) {
      if (ringIt->second == member) {
        ringIt = ring_.erase(ringIt);
      } else {
        ++ringIt;
      }
    }
    return true;
  }

  [[nodiscard]] std::optional<std::size_t> ownerOf(
      std::uint64_t keyHash) const noexcept {
    if (ring_.empty()) return std::nullopt;
    auto it = ring_.lower_bound(keyHash);
    if (it == ring_.end()) it = ring_.begin();  // wrap around
    return it->second;
  }

  [[nodiscard]] std::vector<std::size_t> replicasOf(std::uint64_t keyHash,
                                                    std::size_t n) const {
    std::vector<std::size_t> out;
    if (ring_.empty() || n == 0) return out;
    const std::size_t want = std::min(n, members_.size());
    out.reserve(want);
    auto it = ring_.lower_bound(keyHash);
    if (it == ring_.end()) it = ring_.begin();  // wrap around
    const auto start = it;
    do {
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
        if (out.size() == want) break;
      }
      ++it;
      if (it == ring_.end()) it = ring_.begin();
    } while (it != start);
    return out;
  }

  [[nodiscard]] std::size_t memberCount() const noexcept {
    return members_.size();
  }
  [[nodiscard]] bool contains(std::size_t member) const noexcept {
    return std::find(members_.begin(), members_.end(), member) !=
           members_.end();
  }

  /// Every vnode point on the ring, ascending (the lower_bound equality
  /// edge the differential test probes).
  [[nodiscard]] std::vector<std::uint64_t> points() const {
    std::vector<std::uint64_t> out;
    out.reserve(ring_.size());
    for (const auto& [point, member] : ring_) out.push_back(point);
    return out;
  }

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::size_t> ring_;  // point -> member
  std::vector<std::size_t> members_;
};

}  // namespace dcache::cache::oracle
