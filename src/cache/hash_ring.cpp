#include "cache/hash_ring.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace dcache::cache {

void HashRing::addMember(std::size_t member) {
  if (contains(member)) return;
  members_.push_back(member);
  const auto oldSize = static_cast<std::ptrdiff_t>(ring_.size());
  for (std::size_t v = 0; v < vnodes_; ++v) {
    ring_.push_back(
        {util::hashCombine(util::hashU64(member), util::hashU64(v)), member});
  }
  const auto byPoint = [](const VNode& a, const VNode& b) {
    return a.point < b.point;
  };
  std::sort(ring_.begin() + oldSize, ring_.end(), byPoint);
  // The merge is stable, so a point some member already claimed sorts
  // ahead of the new claim, and unique() keeps the first of each run: the
  // first member to claim a point keeps it.
  std::inplace_merge(ring_.begin(), ring_.begin() + oldSize, ring_.end(),
                     byPoint);
  ring_.erase(std::unique(ring_.begin(), ring_.end(),
                          [](const VNode& a, const VNode& b) {
                            return a.point == b.point;
                          }),
              ring_.end());
}

bool HashRing::removeMember(std::size_t member) {
  const auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return false;
  members_.erase(it);
  std::erase_if(ring_, [member](const VNode& v) { return v.member == member; });
  return true;
}

std::size_t HashRing::firstAtOrAfter(std::uint64_t keyHash) const noexcept {
  // Branch-free lower_bound: the halving step is arithmetic on the
  // comparison, so a lookup pays no mispredicted branches on random hashes.
  const VNode* base = ring_.data();
  std::size_t len = ring_.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    base += static_cast<std::size_t>(base[half - 1].point < keyHash) * half;
    len -= half;
  }
  const auto pos =
      static_cast<std::size_t>(base - ring_.data()) + (base->point < keyHash);
  return pos == ring_.size() ? 0 : pos;  // wrap around
}

std::optional<std::size_t> HashRing::ownerOf(
    std::uint64_t keyHash) const noexcept {
  if (ring_.empty()) return std::nullopt;
  return ring_[firstAtOrAfter(keyHash)].member;
}

std::vector<std::size_t> HashRing::replicasOf(std::uint64_t keyHash,
                                              std::size_t n) const {
  std::vector<std::size_t> out;
  if (ring_.empty() || n == 0) return out;
  const std::size_t want = std::min(n, members_.size());
  out.reserve(want);
  const std::size_t start = firstAtOrAfter(keyHash);
  std::size_t i = start;
  do {
    // Linear membership scan: `want` is a replication factor (2–3), not a
    // fleet size, so this beats a set.
    if (std::find(out.begin(), out.end(), ring_[i].member) == out.end()) {
      out.push_back(ring_[i].member);
      if (out.size() == want) break;
    }
    if (++i == ring_.size()) i = 0;  // wrap around
  } while (i != start);
  return out;
}

bool HashRing::contains(std::size_t member) const noexcept {
  return std::find(members_.begin(), members_.end(), member) !=
         members_.end();
}

std::vector<double> HashRing::ownershipShares(std::size_t sampleKeys) const {
  std::size_t maxMember = 0;
  for (const std::size_t m : members_) maxMember = std::max(maxMember, m);
  std::vector<double> shares(members_.empty() ? 0 : maxMember + 1, 0.0);
  if (ring_.empty() || sampleKeys == 0) return shares;
  for (std::size_t i = 0; i < sampleKeys; ++i) {
    const auto owner = ownerOf(util::hashU64(i));
    if (owner) shares[*owner] += 1.0;
  }
  for (double& s : shares) s /= static_cast<double>(sampleKeys);
  return shares;
}

}  // namespace dcache::cache
