// Cluster::CheckConsistency, the end-of-run ownership audit: each
// Corruption it can return, on dense tables and on lazy (virtual-base)
// tables whose rows exist only arithmetically.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>

#include "src/sim/simulator.h"

namespace soap::cluster {
namespace {

storage::Tuple Row(storage::TupleKey key) {
  storage::Tuple t;
  t.key = key;
  t.content = static_cast<int64_t>(key);
  return t;
}

ClusterConfig Config(uint64_t keys, uint32_t nodes, bool lazy) {
  ClusterConfig c;
  c.num_keys = keys;
  c.num_nodes = nodes;
  c.lazy_tables = lazy;
  return c;
}

void ExpectCorruption(const Status& s, const std::string& text) {
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find(text), std::string::npos) << s.ToString();
}

class DenseConsistencyTest : public ::testing::Test {
 protected:
  DenseConsistencyTest() : cluster_(&sim_, Config(20, 5, false)) {
    for (storage::TupleKey k = 0; k < 20; ++k) {
      EXPECT_TRUE(cluster_.LoadTuple(Row(k), k % 5).ok());
    }
  }
  sim::Simulator sim_;
  Cluster cluster_;
};

TEST_F(DenseConsistencyTest, LoadedClusterIsConsistent) {
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(DenseConsistencyTest, StoredKeyTheRoutingTableDoesNotPlace) {
  cluster_.storage(0).BulkLoad(Row(6));  // key 6 is placed on partition 1
  ExpectCorruption(cluster_.CheckConsistency(),
                   "partition 0 stores unrouted key 6");
}

TEST_F(DenseConsistencyTest, PlacedKeyThePartitionDoesNotStore) {
  cluster_.storage(2).BulkEvict(7);
  ExpectCorruption(cluster_.CheckConsistency(),
                   "partition 2 stores 3 tuples but routing places 4 there");
}

TEST_F(DenseConsistencyTest, ReplicaCopiesCountOnTheirPartition) {
  cluster_.storage(0).BulkLoad(Row(6));
  ASSERT_TRUE(cluster_.routing_table().AddReplica(6, 0).ok());
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
  ASSERT_TRUE(cluster_.routing_table().AddReplica(7, 0).ok());  // no copy
  ExpectCorruption(cluster_.CheckConsistency(),
                   "partition 0 stores 5 tuples but routing places 6 there");
}

TEST_F(DenseConsistencyTest, PlacementOnAnUnknownPartition) {
  // Key 4 moves to partition 9 of a 5-node cluster and its copy leaves
  // partition 4: every known partition still balances, only the counter
  // of the unknown partition shows the placement.
  ASSERT_TRUE(cluster_.routing_table().SetPrimary(4, 9).ok());
  cluster_.storage(4).BulkEvict(4);
  ExpectCorruption(cluster_.CheckConsistency(),
                   "routing places 1 copies on partition 9 of a 5-node "
                   "cluster");
}

class LazyConsistencyTest : public ::testing::Test {
 protected:
  LazyConsistencyTest() : cluster_(&sim_, Config(40, 4, true)) {
    EXPECT_TRUE(cluster_.routing_table().AssignRoundRobin(0, 40, 4).ok());
  }
  sim::Simulator sim_;
  Cluster cluster_;
};

TEST_F(LazyConsistencyTest, VirtualBaseIsConsistent) {
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(LazyConsistencyTest, OverriddenKeysAreConsistent) {
  // The lazy bulk load's override path: evict from the arithmetic home,
  // land on the assigned partition.
  cluster_.storage(1).BulkEvict(5);
  ASSERT_TRUE(cluster_.LoadTuple(Row(5), 2).ok());
  cluster_.storage(3).BulkEvict(11);
  ASSERT_TRUE(cluster_.LoadTuple(Row(11), 0).ok());
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(LazyConsistencyTest, VirtualRowWhosePrimaryMovedAway) {
  // Key 5's primary moves from partition 1 to 2 and a copy lands there,
  // but partition 1 keeps its virtual row and no replica is left behind.
  ASSERT_TRUE(cluster_.LoadTuple(Row(5), 2).ok());
  ExpectCorruption(cluster_.CheckConsistency(),
                   "partition 1 stores unrouted key 5");
  // Listing the leftover copy as a replica makes it placed again.
  ASSERT_TRUE(cluster_.routing_table().AddReplica(5, 1).ok());
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(LazyConsistencyTest, MaterializedRowMovedAway) {
  // A written (materialised) base row behaves like a virtual one.
  ASSERT_TRUE(cluster_.storage(1).ApplyUpdate(1, 9, 90).ok());
  ASSERT_TRUE(cluster_.LoadTuple(Row(9), 3).ok());
  ExpectCorruption(cluster_.CheckConsistency(),
                   "partition 1 stores unrouted key 9");
}

TEST_F(LazyConsistencyTest, BaseRangeThatDoesNotMatchTheLazyLayout) {
  // A block range over keys the lazy bases hold round-robin: partition 0
  // virtually stores 0, 4, 8, ... which routing places on partition 3.
  sim::Simulator sim;
  Cluster cluster(&sim, Config(40, 4, true));
  ASSERT_TRUE(cluster.routing_table().AssignRange(0, 40, 3).ok());
  ExpectCorruption(cluster.CheckConsistency(),
                   "partition 0 stores unrouted key 0");
}

TEST_F(LazyConsistencyTest, KeysNoRangeCovers) {
  // Only [0, 20) is routed; partition 2's virtual rows 22, 26, ... are
  // stored but unplaced.
  sim::Simulator sim;
  Cluster cluster(&sim, Config(40, 4, true));
  ASSERT_TRUE(cluster.routing_table().AssignRoundRobin(0, 20, 4).ok());
  ExpectCorruption(cluster.CheckConsistency(),
                   "partition 0 stores unrouted key 20");
}

}  // namespace
}  // namespace soap::cluster
