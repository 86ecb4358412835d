// Consistent-hash ring tests: routing stability, load balance, minimal
// disruption on membership change, and the remote/linked cache front-ends'
// accounting.
#include <gtest/gtest.h>

#include <set>

#include "cache/hash_ring.hpp"
#include "cache/linked_cache.hpp"
#include "cache/remote_cache.hpp"
#include "util/hash.hpp"

namespace dcache::cache {
namespace {

TEST(HashRing, OwnerStableAcrossQueries) {
  HashRing ring;
  for (std::size_t m = 0; m < 5; ++m) ring.addMember(m);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto owner = ring.ownerOf(util::hashU64(k));
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(ring.ownerOf(util::hashU64(k)), owner);
  }
}

TEST(HashRing, EmptyRingHasNoOwner) {
  const HashRing ring;
  EXPECT_FALSE(ring.ownerOf(123).has_value());
}

TEST(HashRing, BalancedOwnership) {
  HashRing ring(160);
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  const auto shares = ring.ownershipShares(50000);
  ASSERT_EQ(shares.size(), 4u);
  for (const double share : shares) {
    EXPECT_NEAR(share, 0.25, 0.08);
  }
}

TEST(HashRing, RemovalMovesOnlyVictimKeys) {
  HashRing ring;
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  std::vector<std::size_t> before(10000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = *ring.ownerOf(util::hashU64(k));
  }
  ASSERT_TRUE(ring.removeMember(2));
  EXPECT_FALSE(ring.removeMember(2));
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    const std::size_t after = *ring.ownerOf(util::hashU64(k));
    EXPECT_NE(after, 2u);
    if (before[k] != 2 && after != before[k]) ++moved;
  }
  // Consistent hashing: keys not owned by the removed member must not move.
  EXPECT_EQ(moved, 0u);
}

TEST(HashRing, DuplicateAddIgnored) {
  HashRing ring;
  ring.addMember(1);
  ring.addMember(1);
  EXPECT_EQ(ring.memberCount(), 1u);
}

TEST(HashRing, ReplicasAreDistinctAndLedByTheOwner) {
  HashRing ring;
  for (std::size_t m = 0; m < 5; ++m) ring.addMember(m);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto replicas = ring.replicasOf(util::hashU64(k), 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], *ring.ownerOf(util::hashU64(k)));
    const std::set<std::size_t> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size());
  }
}

TEST(HashRing, ReplicaCountSaturatesAtMembership) {
  HashRing ring;
  EXPECT_TRUE(ring.replicasOf(42, 3).empty());  // empty ring: no owners
  ring.addMember(0);
  ring.addMember(1);
  // Asking for more replicas than members returns every member once.
  const auto replicas = ring.replicasOf(42, 5);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
  // n = 0 is a valid request for nothing.
  EXPECT_TRUE(ring.replicasOf(42, 0).empty());
}

TEST(HashRing, ChurnRestoresExactReplicaSets) {
  // Replica placement, like ownership, depends only on the membership
  // set — a removal and re-add of the same member must restore every
  // key's replica list exactly (vnode positions are index-derived).
  HashRing ring;
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  std::vector<std::vector<std::size_t>> before(2000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = ring.replicasOf(util::hashU64(k), 2);
  }

  ASSERT_TRUE(ring.removeMember(2));
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    const auto during = ring.replicasOf(util::hashU64(k), 2);
    ASSERT_EQ(during.size(), 2u);
    // The removed member never appears...
    EXPECT_NE(during[0], 2u);
    EXPECT_NE(during[1], 2u);
    // ...and keys it served neither of keep their exact replica set.
    if (before[k][0] != 2 && before[k][1] != 2) {
      EXPECT_EQ(during, before[k]);
    }
  }

  ring.addMember(2);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(ring.replicasOf(util::hashU64(k), 2), before[k]);
  }
}

// ---- Remote / linked cache front-ends over the sim fabric ----

class CacheFrontends : public ::testing::Test {
 protected:
  CacheFrontends()
      : appTier_("app", sim::TierKind::kAppServer, 3),
        cacheTier_("cache", sim::TierKind::kRemoteCache, 3),
        channel_(network_, rpc::SerializationModel{}) {}

  sim::NetworkModel network_;
  sim::Tier appTier_;
  sim::Tier cacheTier_;
  rpc::Channel channel_;
};

TEST_F(CacheFrontends, RemoteCacheMissThenHit) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  sim::Node& app = appTier_.node(0);

  auto miss = remote.get(app, "k");
  EXPECT_FALSE(miss.hit);
  remote.put(app, "k", 4096, 3);
  auto hit = remote.get(app, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.size, 4096u);
  EXPECT_EQ(hit.version, 3u);
  EXPECT_GT(hit.latencyMicros, 0.0);

  // RPC + value serialization must have charged the app server.
  EXPECT_GT(app.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
  EXPECT_GT(app.cpu().micros(sim::CpuComponent::kDeserialization), 0.0);
  // And the owning cache node paid for the probe.
  const CacheStats agg = remote.aggregateStats();
  EXPECT_EQ(agg.hits, 1u);
  EXPECT_EQ(agg.misses, 1u);
}

TEST_F(CacheFrontends, RemoteInvalidateRemoves) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  sim::Node& app = appTier_.node(0);
  remote.put(app, "k", 100, 1);
  remote.invalidate(app, "k");
  EXPECT_FALSE(remote.get(app, "k").hit);
}

TEST_F(CacheFrontends, LinkedLocalHitPaysNoRpcOrMarshalling) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  linked.fill("k", 4096, 9);
  const std::size_t owner = linked.ownerOf("k");

  // Snapshot app CPU, probe from the owner itself.
  const double framingBefore =
      appTier_.node(owner).cpu().micros(sim::CpuComponent::kRpcFraming);
  const auto hit = linked.get(owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.local);
  EXPECT_EQ(hit.version, 9u);
  EXPECT_DOUBLE_EQ(hit.latencyMicros, 0.0);
  EXPECT_DOUBLE_EQ(
      appTier_.node(owner).cpu().micros(sim::CpuComponent::kRpcFraming),
      framingBefore);
}

TEST_F(CacheFrontends, LinkedForwardedProbePaysRpc) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  linked.fill("k", 4096, 1);
  const std::size_t owner = linked.ownerOf("k");
  const std::size_t other = (owner + 1) % appTier_.size();

  const auto hit = linked.get(other, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.local);
  EXPECT_GT(hit.latencyMicros, 0.0);
  EXPECT_GT(appTier_.node(other).cpu().micros(sim::CpuComponent::kRpcFraming),
            0.0);
}

TEST_F(CacheFrontends, LinkedRemoveServerDropsShard) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  linked.fill("k", 100, 1);
  const std::size_t owner = linked.ownerOf("k");
  linked.removeServer(owner);
  const std::size_t newOwner = linked.ownerOf("k");
  EXPECT_NE(newOwner, owner);
  EXPECT_FALSE(linked.get(newOwner, "k").hit);  // shard content was dropped
}

TEST_F(CacheFrontends, LinkedCrashRestartChurnRestoresExactOwnership) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  constexpr int kKeys = 2000;
  std::vector<std::size_t> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[k] = linked.ownerOf("key" + std::to_string(k));
  }

  const std::size_t victim = 1;
  linked.removeServer(victim);
  EXPECT_FALSE(linked.hasServer(victim));
  for (int k = 0; k < kKeys; ++k) {
    const std::size_t after = linked.ownerOf("key" + std::to_string(k));
    // Routing never targets the removed member, and consistent hashing
    // moves only the victim's keys.
    EXPECT_NE(after, victim);
    if (before[k] != victim) EXPECT_EQ(after, before[k]);
  }

  // Restart: vnode points depend only on the member index, so ownership
  // returns to exactly the pre-crash partition.
  linked.addServer(victim);
  EXPECT_TRUE(linked.hasServer(victim));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(linked.ownerOf("key" + std::to_string(k)), before[k]);
  }
}

TEST_F(CacheFrontends, LinkedRemoveServerSparesSurvivorShards) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  // Fill until every server owns at least one key we can name.
  std::vector<std::string> keyOwnedBy(appTier_.size());
  for (int k = 0; keyOwnedBy[0].empty() || keyOwnedBy[1].empty() ||
                  keyOwnedBy[2].empty();
       ++k) {
    const std::string key = "key" + std::to_string(k);
    keyOwnedBy[linked.ownerOf(key)] = key;
    linked.fill(key, 128, 1);
  }

  const std::size_t victim = linked.ownerOf(keyOwnedBy[0]);
  linked.removeServer(victim);
  // Only the victim's shard was dropped: survivors still serve their keys.
  for (std::size_t s = 0; s < appTier_.size(); ++s) {
    if (s == victim) continue;
    const auto hit = linked.get(s, keyOwnedBy[s]);
    EXPECT_TRUE(hit.hit) << "survivor " << s << " lost its shard";
  }
  EXPECT_FALSE(linked.get((victim + 1) % appTier_.size(),
                          keyOwnedBy[victim])
                   .hit);
}

TEST_F(CacheFrontends, LinkedAddServerComesBackColdAndIdempotent) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  linked.fill("k", 256, 7);
  const std::size_t owner = linked.ownerOf("k");

  // addServer on a current member is a no-op: the warm shard survives.
  linked.addServer(owner);
  EXPECT_TRUE(linked.get(owner, "k").hit);

  linked.removeServer(owner);
  linked.addServer(owner);
  // A genuine restart rejoins cold.
  EXPECT_EQ(linked.shard(owner).itemCount(), 0u);
  EXPECT_FALSE(linked.get(owner, "k").hit);
}

TEST_F(CacheFrontends, LinkedDoubleRemoveSparesDrainingShard) {
  // Regression: a replayed cold remove must not double-apply. During a
  // warm drain the server is out of the ring but its shard still holds
  // the keys the handoff window is migrating — an unguarded second
  // removeServer would clear them mid-transfer.
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  linked.fill("k", 256, 1);
  const std::size_t owner = linked.ownerOf("k");

  linked.drainServer(owner);
  EXPECT_FALSE(linked.hasServer(owner));
  EXPECT_NE(linked.ownerOf("k"), owner);  // ownership moved immediately
  ASSERT_NE(linked.shard(owner).peek("k"), nullptr);  // contents kept

  linked.drainServer(owner);   // replayed drain: no-op
  linked.removeServer(owner);  // replayed cold remove: non-member, no-op
  EXPECT_NE(linked.shard(owner).peek("k"), nullptr);

  // Window closes: whatever was not migrated is retired with the process.
  linked.dropShard(owner);
  EXPECT_EQ(linked.shard(owner).itemCount(), 0u);
}

TEST_F(CacheFrontends, RemoteMembershipJoinLeaveIdempotent) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  sim::Node& app = appTier_.node(0);
  remote.enableMembership();
  ASSERT_EQ(remote.memberCount(), cacheTier_.size());

  remote.put(app, "k", 4096, 1);
  const std::size_t owner = remote.ownerOf("k");

  // Double join of a member: no-op, the warm shard survives.
  remote.joinNode(owner);
  EXPECT_TRUE(remote.get(app, "k").hit);

  // Leave moves ownership but keeps the pod's contents for the handoff
  // window; a replayed leave is a no-op.
  remote.leaveNode(owner);
  remote.leaveNode(owner);
  EXPECT_FALSE(remote.isMember(owner));
  EXPECT_EQ(remote.memberCount(), cacheTier_.size() - 1);
  EXPECT_NE(remote.ownerOf("k"), owner);
  EXPECT_NE(remote.shardForNode(owner).peek("k"), nullptr);

  // Rejoin restores the exact pre-leave partition (vnode points depend
  // only on the member index), so the key routes home again.
  remote.joinNode(owner);
  EXPECT_EQ(remote.memberCount(), cacheTier_.size());
  EXPECT_EQ(remote.ownerOf("k"), owner);
}

TEST_F(CacheFrontends, LinkedUpdateAndInvalidate) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const std::size_t owner = linked.ownerOf("k");
  const std::size_t writer = (owner + 1) % appTier_.size();

  linked.update(writer, "k", 256, 2);
  auto hit = linked.get(owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.version, 2u);

  linked.invalidate(writer, "k");
  EXPECT_FALSE(linked.get(owner, "k").hit);
}

TEST_F(CacheFrontends, RemoteReplicationPlacesDistinctCopies) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  EXPECT_TRUE(remote.replicasForKey("k").empty());  // off by default
  remote.enableReplication(2);
  const auto replicas = remote.replicasForKey("k");
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
  EXPECT_EQ(remote.replicasForKey("k"), replicas);  // placement is stable

  sim::Node& app = appTier_.node(0);
  remote.putAt(app, replicas[0], "k", 4096, 3);
  remote.putAt(app, replicas[1], "k", 4096, 3);
  // Each copy is independently probeable; the primary going down does not
  // take the replica's copy with it.
  EXPECT_TRUE(remote.getAt(app, replicas[1], "k").hit);
  cacheTier_.node(replicas[0]).setUp(false);
  EXPECT_FALSE(remote.nodeUp(replicas[0]));
  EXPECT_TRUE(remote.getAt(app, replicas[1], "k").hit);
}

TEST_F(CacheFrontends, LinkedReplicaFillsAreIndependentCopies) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const auto replicas = linked.replicasOf("k", 2);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], linked.ownerOf("k"));
  EXPECT_NE(replicas[0], replicas[1]);

  linked.fillAt(replicas[0], "k", 256, 4);
  linked.updateAt(replicas[1], replicas[1], "k", 256, 4);
  // A local probe at the fallback shard hits without touching the owner.
  const auto hit = linked.getAt(replicas[1], replicas[1], "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.local);
  EXPECT_EQ(hit.version, 4u);
  // Invalidating one copy leaves the other (the deployment fans out).
  linked.invalidateAt(replicas[0], replicas[0], "k");
  EXPECT_FALSE(linked.getAt(replicas[0], replicas[0], "k").hit);
  EXPECT_TRUE(linked.getAt(replicas[1], replicas[1], "k").hit);
}

}  // namespace
}  // namespace dcache::cache
