// The online invariant engine against a small, deliberately corrupted
// Cluster: one test per rule (and per ownership message) asserting that
// exactly that rule fires, so every Violate() path is known to work.

#include "src/check/invariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"
#include "src/obs/audit_log.h"
#include "src/sim/simulator.h"

namespace soap::check {
namespace {

constexpr uint64_t kKeys = 20;
constexpr uint32_t kNodes = 5;

class InvariantsTest : public ::testing::Test {
 protected:
  InvariantsTest() : cluster_(&sim_, Config()) {
    for (storage::TupleKey k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(cluster_.LoadTuple(Row(k, static_cast<int64_t>(k)),
                                     static_cast<uint32_t>(k % kNodes))
                      .ok());
    }
    cluster_.CheckpointAll();
  }

  static cluster::ClusterConfig Config() {
    cluster::ClusterConfig c;
    c.num_nodes = kNodes;
    c.num_keys = kKeys;
    return c;
  }

  static storage::Tuple Row(storage::TupleKey key, int64_t content) {
    storage::Tuple t;
    t.key = key;
    t.content = content;
    return t;
  }

  /// Copies `key` onto `partition` and lists it there as a replica.
  void AddReplica(storage::TupleKey key, uint32_t partition,
                  int64_t content) {
    cluster_.storage(partition).BulkLoad(Row(key, content));
    ASSERT_TRUE(cluster_.routing_table().AddReplica(key, partition).ok());
  }

  /// Sweeps and returns the violations; every storage corruption above
  /// goes through BulkLoad/BulkEvict, so checkpoint first to keep the WAL
  /// replay (wal_idempotent) clean.
  const std::vector<Violation>& Sweep(const HistoryRecorder* history) {
    cluster_.CheckpointAll();
    engine_ = std::make_unique<InvariantEngine>(&cluster_, history);
    engine_->SweepQuiescent(/*now=*/77);
    return engine_->violations();
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<InvariantEngine> engine_;
};

/// Asserts exactly one violation of `check` whose detail contains `text`.
void ExpectOnly(const std::vector<Violation>& violations,
                const std::string& check, const std::string& text,
                SimTime at = 77) {
  std::string fired;
  for (const Violation& v : violations) {
    fired += v.check + ": " + v.detail + "\n";
  }
  ASSERT_EQ(violations.size(), 1u) << fired;
  EXPECT_EQ(violations[0].check, check);
  EXPECT_NE(violations[0].detail.find(text), std::string::npos)
      << violations[0].detail;
  EXPECT_EQ(violations[0].at, at);
}

TEST_F(InvariantsTest, CleanClusterPassesEverySweep) {
  HistoryRecorder history;
  EXPECT_TRUE(Sweep(&history).empty());
  // ownership x2, lock table, WAL, replica coherence, final state.
  EXPECT_EQ(engine_->checks_run(), 6u);
  EXPECT_TRUE(Sweep(nullptr).empty());
  EXPECT_EQ(engine_->checks_run(), 5u);
}

TEST_F(InvariantsTest, OwnershipPlacedTwice) {
  // Key 3 (primary 3) gains a replica on 1, then its primary is retargeted
  // onto 1 without absorbing the replica entry: partition 1 is listed
  // twice. The stranded copy on 3 is cleaned up so only that fires.
  AddReplica(3, 1, 3);
  ASSERT_TRUE(cluster_.routing_table().SetPrimary(3, 1).ok());
  cluster_.storage(3).BulkEvict(3);
  ExpectOnly(Sweep(nullptr), "ownership", "key 3 placed twice on partition 1");
}

TEST_F(InvariantsTest, OwnershipUnknownPartition) {
  ASSERT_TRUE(cluster_.routing_table().SetPrimary(4, 9).ok());
  cluster_.storage(4).BulkEvict(4);
  ExpectOnly(Sweep(nullptr), "ownership",
             "key 4 placed on unknown partition 9");
}

TEST_F(InvariantsTest, OwnershipRoutedButNotStored) {
  cluster_.storage(2).BulkEvict(7);
  ExpectOnly(Sweep(nullptr), "ownership",
             "key 7 routed to partition 2 but not stored there");
}

TEST_F(InvariantsTest, OwnershipStoredButNotPlaced) {
  cluster_.storage(0).BulkLoad(Row(6, 6));  // key 6 lives on partition 1
  ExpectOnly(Sweep(nullptr), "ownership",
             "partition 0 stores key 6 the routing table does not place "
             "there");
}

TEST_F(InvariantsTest, OwnershipViolationsAreKeyAscending) {
  // Orphans on one partition are named in ascending key order, whatever
  // order the table holds them in.
  for (storage::TupleKey k : {16u, 1u, 11u, 6u}) {
    cluster_.storage(0).BulkLoad(Row(k, 0));
  }
  const std::vector<Violation>& v = Sweep(nullptr);
  ASSERT_EQ(v.size(), 4u);
  const char* want[] = {"key 1 ", "key 6 ", "key 11 ", "key 16 "};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NE(v[i].detail.find(want[i]), std::string::npos) << v[i].detail;
  }
}

TEST_F(InvariantsTest, LockTableEmpty) {
  cluster_.lock_manager().Acquire(42, 5, txn::LockMode::kExclusive, nullptr);
  ExpectOnly(Sweep(nullptr), "lock_table_empty",
             "1 keys still locked after drain");
}

TEST_F(InvariantsTest, WalIdempotent) {
  // Content changed behind the WAL's back after the last checkpoint.
  cluster_.CheckpointAll();
  engine_ = std::make_unique<InvariantEngine>(&cluster_, nullptr);
  cluster_.storage(2).BulkLoad(Row(12, 999));
  engine_->SweepQuiescent(77);
  ExpectOnly(engine_->violations(), "wal_idempotent", "node 2");
}

TEST_F(InvariantsTest, ReplicaCoherence) {
  AddReplica(8, 0, /*content=*/-1);  // primary 3 holds 8
  ExpectOnly(Sweep(nullptr), "replica_coherence",
             "key 8 replica on partition 0 holds -1 while primary partition "
             "3 holds 8");
}

TEST_F(InvariantsTest, ReplicaCoherenceSkipsStaleNodes) {
  AddReplica(8, 0, /*content=*/-1);
  cluster_.CheckpointAll();
  InvariantEngine engine(&cluster_, nullptr);
  engine.set_stale_probe([](uint32_t node) { return node == 0; });
  engine.SweepQuiescent(77);
  EXPECT_TRUE(engine.ok());
}

TEST_F(InvariantsTest, FinalState) {
  HistoryRecorder history;
  txn::Transaction t;
  t.id = 5;
  txn::Operation op;
  op.kind = txn::OpKind::kWrite;
  op.key = 13;
  op.write_value = 1300;  // committed, but the primary still holds 13
  t.ops.push_back(op);
  history.OnCommit(t, 10);
  ExpectOnly(Sweep(&history), "final_state",
             "key 13 primary partition 3 stores 13 but the committed chain "
             "tail is 1300");
}

TEST_F(InvariantsTest, ViolationsAreMirroredIntoTheAuditLog) {
  obs::AuditLog audit;
  cluster_.storage(2).BulkEvict(7);
  cluster_.CheckpointAll();
  InvariantEngine engine(&cluster_, nullptr);
  engine.set_audit(&audit);
  engine.SweepQuiescent(77);
  ASSERT_EQ(engine.violations().size(), 1u);
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_NE(audit.lines()[0].find("\"check\":\"ownership\""),
            std::string::npos)
      << audit.lines()[0];
}

TEST_F(InvariantsTest, PromotionEpochMustAdvance) {
  cluster_.routing_table().EnableEpochTracking();
  AddReplica(9, 0, 9);
  InvariantEngine engine(&cluster_, nullptr);
  ASSERT_TRUE(cluster_.routing_table().Promote(9, 0).ok());
  engine.OnPromotion(9, 0, 10);
  EXPECT_TRUE(engine.ok());
  engine.OnPromotion(9, 0, 11);  // no new mutation: epoch did not advance
  ExpectOnly(engine.violations(), "epoch_monotonic",
             "key 9 promoted with epoch", 11);
}

TEST_F(InvariantsTest, PromotionOntoACopylessPartition) {
  InvariantEngine engine(&cluster_, nullptr);
  engine.OnPromotion(9, 1, 10);  // partition 1 stores no copy of key 9
  ExpectOnly(engine.violations(), "promotion", "which stores no copy", 10);
}

TEST_F(InvariantsTest, LeaderShiftHalfApplied) {
  // The kDoublePrimary corruption: the target keeps its replica entry.
  AddReplica(3, 1, 3);
  ASSERT_TRUE(cluster_.routing_table().SetPrimary(3, 1).ok());
  InvariantEngine engine(&cluster_, nullptr);
  engine.OnLeaderShift(3, 1, 10);
  ExpectOnly(engine.violations(), "double_primary",
             "key 3 lists partition 1 twice after a leader shift", 10);
}

TEST_F(InvariantsTest, NodeRecoveredWithDivergentImage) {
  InvariantEngine engine(&cluster_, nullptr);
  engine.OnNodeRecovered(2, 10);
  EXPECT_TRUE(engine.ok());
  cluster_.storage(2).BulkLoad(Row(12, 999));
  engine.OnNodeRecovered(2, 11);
  ExpectOnly(engine.violations(), "wal_idempotent", "after recovery", 11);
}

}  // namespace
}  // namespace soap::check
