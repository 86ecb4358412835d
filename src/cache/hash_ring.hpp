// Consistent-hash ring with virtual nodes (Slicer-style auto-sharding).
// Maps key hashes to member indices so that adding or removing a member
// moves only ~1/N of the keyspace — the property the linked cache relies on
// for resharding, and the trigger for the delayed-writes anomaly (Fig. 8)
// when ownership moves while a write is in flight.
//
// The ring is one sorted vector of {point, member}: a lookup is a binary
// search over contiguous memory, with no per-point node to chase.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace dcache::cache {

class HashRing {
 public:
  /// `vnodesPerMember` controls balance quality: more vnodes, tighter load.
  explicit HashRing(std::size_t vnodesPerMember = 128) noexcept
      : vnodes_(vnodesPerMember == 0 ? 1 : vnodesPerMember) {}

  void addMember(std::size_t member);
  bool removeMember(std::size_t member);

  /// Owner of the given key hash; nullopt if the ring is empty.
  [[nodiscard]] std::optional<std::size_t> ownerOf(
      std::uint64_t keyHash) const noexcept;

  /// The key's replica set (DistCache-style): the first `n` *distinct*
  /// members met walking the ring clockwise from `keyHash`. Element 0 is
  /// ownerOf(keyHash); interleaved vnodes of members already collected are
  /// skipped, so the result never contains a duplicate and holds at most
  /// min(n, memberCount()) entries. Successor-walk placement is what makes
  /// replica sets stable under churn: adding or removing one member
  /// perturbs only the sets that straddle its vnode points.
  [[nodiscard]] std::vector<std::size_t> replicasOf(std::uint64_t keyHash,
                                                    std::size_t n) const;

  [[nodiscard]] std::size_t memberCount() const noexcept {
    return members_.size();
  }
  [[nodiscard]] bool contains(std::size_t member) const noexcept;

  /// Fraction of a sampled keyspace owned by each member (for balance
  /// tests and reshard-impact analysis).
  [[nodiscard]] std::vector<double> ownershipShares(
      std::size_t sampleKeys = 100000) const;

 private:
  struct VNode {
    std::uint64_t point = 0;
    std::size_t member = 0;
  };

  /// Position of the first vnode at or clockwise past `keyHash`, wrapping
  /// to 0 past the last point. The ring must not be empty.
  [[nodiscard]] std::size_t firstAtOrAfter(
      std::uint64_t keyHash) const noexcept;

  std::size_t vnodes_;
  /// Sorted by point, each point at most once (the first member to claim a
  /// point keeps it).
  std::vector<VNode> ring_;
  std::vector<std::size_t> members_;
};

}  // namespace dcache::cache
