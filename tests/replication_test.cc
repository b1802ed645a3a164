// Tests for the replica planner and the end-to-end HA replication path:
// plans through the repartitioner, replica-aware routing, synchronous write
// shipping, and multi-round repartitioning (FinishRound).

#include "src/repartition/replication.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/basic_schedulers.h"
#include "src/core/repartitioner.h"

namespace soap {
namespace {

using repartition::PlacementKind;
using repartition::ReplicaPlanner;

class ReplicationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 100;

  ReplicationTest() : ReplicationTest(Config()) {}

  explicit ReplicationTest(const cluster::ClusterConfig& config)
      : cluster_(&sim_, config),
        tm_(&cluster_),
        catalog_(Spec(), cluster_.num_nodes()),
        history_(Spec().num_templates, 5),
        planner_(cluster_.num_nodes()) {
    for (storage::TupleKey k = 0; k < kKeys; ++k) {
      storage::Tuple t;
      t.key = k;
      t.content = static_cast<int64_t>(k);
      EXPECT_TRUE(cluster_.LoadTuple(t, catalog_.InitialPartitionOf(k)).ok());
    }
  }

  static cluster::ClusterConfig Config() {
    cluster::ClusterConfig c;
    c.num_keys = kKeys;
    c.network.jitter = 0;
    return c;
  }

  static workload::WorkloadSpec Spec() {
    workload::WorkloadSpec s;
    s.num_templates = 10;
    s.num_keys = kKeys;
    s.alpha = 0.0;  // already collocated; replication is the only work
    s.seed = 4;
    return s;
  }

  core::Repartitioner MakeRepartitioner() {
    core::Repartitioner rp(&cluster_, &tm_, &catalog_, &history_,
                           std::make_unique<core::ApplyAllScheduler>());
    return rp;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::TransactionManager tm_;
  workload::TemplateCatalog catalog_;
  workload::WorkloadHistory history_;
  ReplicaPlanner planner_;
};

TEST_F(ReplicationTest, PlanCreatesMissingCopies) {
  auto plan = planner_.PlanReplication(cluster_.routing_table(),
                                       {0, 1, 2}, /*factor=*/3);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->size(), 6u);  // 2 new copies per key
  for (const auto& op : plan->ops) {
    EXPECT_EQ(op.kind, PlacementKind::kReplicaCreate);
    EXPECT_NE(op.target_partition,
              *cluster_.routing_table().GetPrimary(op.key));
  }
}

TEST_F(ReplicationTest, PlanTargetsDistinctPartitionsPerKey) {
  auto plan = planner_.PlanReplication(cluster_.routing_table(), {7},
                                       /*factor=*/5);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->size(), 4u);
  std::set<uint32_t> targets;
  for (const auto& op : plan->ops) targets.insert(op.target_partition);
  EXPECT_EQ(targets.size(), 4u);
}

TEST_F(ReplicationTest, FactorBeyondPartitionsRejected) {
  EXPECT_FALSE(
      planner_.PlanReplication(cluster_.routing_table(), {0}, 6).ok());
  EXPECT_FALSE(
      planner_.PlanDereplication(cluster_.routing_table(), {0}, 0).ok());
}

TEST_F(ReplicationTest, UnknownKeyRejected) {
  EXPECT_FALSE(
      planner_.PlanReplication(cluster_.routing_table(), {9999}, 2).ok());
}

TEST_F(ReplicationTest, EndToEndReplicationThroughScheduler) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto plan = planner_.PlanReplication(cluster_.routing_table(),
                                       {0, 1, 2, 3}, /*factor=*/2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  sim_.Run();
  EXPECT_TRUE(rp.Finished());
  for (storage::TupleKey k : {0ULL, 1ULL, 2ULL, 3ULL}) {
    EXPECT_EQ(cluster_.routing_table().GetPlacement(k)->copy_count(), 2u);
  }
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(ReplicationTest, WritesKeepReplicasIdentical) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto plan =
      planner_.PlanReplication(cluster_.routing_table(), {0}, /*factor=*/3);
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  sim_.Run();

  auto writer = std::make_unique<txn::Transaction>();
  txn::Operation w;
  w.kind = txn::OpKind::kWrite;
  w.key = 0;
  w.write_value = 4242;
  writer->ops = {w};
  tm_.Submit(std::move(writer));
  sim_.Run();

  Result<router::Placement> placement =
      cluster_.routing_table().GetPlacement(0);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(cluster_.storage(placement->primary).Read(0)->content, 4242);
  for (uint32_t rep : placement->replicas) {
    EXPECT_EQ(cluster_.storage(rep).Read(0)->content, 4242);
  }
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(ReplicationTest, WriteShipsToCopyHolderThroughTwoPhaseCommit) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto plan =
      planner_.PlanReplication(cluster_.routing_table(), {0}, /*factor=*/2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  sim_.Run();
  Result<router::Placement> placement =
      cluster_.routing_table().GetPlacement(0);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->replicas.size(), 1u);
  const uint32_t holder = placement->replicas[0];

  // A single-key write is collocated on the primary, yet the copy holder
  // must vote in 2PC and hold the value by the time the writer completes.
  std::set<uint32_t> voters;
  tm_.set_vote_abort_injector([&voters](const txn::Transaction&, uint32_t p) {
    voters.insert(p);
    return false;
  });
  int64_t copy_at_completion = -1;
  tm_.set_completion_callback([&](const txn::Transaction& t) {
    EXPECT_TRUE(t.committed());
    copy_at_completion = cluster_.storage(holder).Read(0)->content;
  });
  const txn::TpcStats before = cluster_.tpc().stats();
  auto writer = std::make_unique<txn::Transaction>();
  txn::Operation w;
  w.kind = txn::OpKind::kWrite;
  w.key = 0;
  w.write_value = 4242;
  writer->ops = {w};
  tm_.Submit(std::move(writer));
  sim_.Run();

  EXPECT_EQ(cluster_.tpc().stats().protocols_run, before.protocols_run + 1);
  EXPECT_EQ(cluster_.tpc().stats().committed, before.committed + 1);
  EXPECT_EQ(voters, (std::set<uint32_t>{placement->primary, holder}));
  EXPECT_EQ(copy_at_completion, 4242);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(ReplicationTest, DereplicationTrimsBackDown) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto up =
      planner_.PlanReplication(cluster_.routing_table(), {0, 1}, 3);
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*up));
  sim_.Run();
  ASSERT_TRUE(rp.FinishRound());

  auto down =
      planner_.PlanDereplication(cluster_.routing_table(), {0, 1}, 1);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->size(), 4u);
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*down));
  sim_.Run();
  EXPECT_TRUE(rp.Finished());
  for (storage::TupleKey k : {0ULL, 1ULL}) {
    EXPECT_EQ(cluster_.routing_table().GetPlacement(k)->copy_count(), 1u);
  }
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(ReplicationTest, FinishRoundGatesOnCompletion) {
  core::Repartitioner rp = MakeRepartitioner();
  EXPECT_FALSE(rp.FinishRound());  // nothing active
  auto plan =
      planner_.PlanReplication(cluster_.routing_table(), {0}, 2);
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  EXPECT_FALSE(rp.FinishRound());  // still in flight
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  // The ApplyAll scheduler already submitted before the callback was
  // registered; re-run via a fresh round instead: drain, then mark done.
  sim_.Run();
  // Completion events were missed (no callback at submit time), so drive
  // the registry directly for this gating test.
  rp.mutable_registry().MarkDone(1);
  EXPECT_TRUE(rp.FinishRound());
  EXPECT_FALSE(rp.active());
}

TEST_F(ReplicationTest, ReplicationBalancesAcrossPartitions) {
  std::vector<storage::TupleKey> keys;
  for (storage::TupleKey k = 0; k < 50; ++k) keys.push_back(k);
  auto plan =
      planner_.PlanReplication(cluster_.routing_table(), keys, 2);
  ASSERT_TRUE(plan.ok());
  uint64_t per_partition[5] = {0, 0, 0, 0, 0};
  for (const auto& op : plan->ops) per_partition[op.target_partition]++;
  for (uint64_t c : per_partition) EXPECT_LE(c, 20u);  // no pile-up
}

// cc-mode matrix: replication correctness holds under MVCC too. Write
// fan-out keeps replicas identical, and snapshots taken before or after a
// kReplicaCreate read the same values — replica creation copies state, it
// never installs a version.
class MvccReplicationTest : public ReplicationTest {
 protected:
  MvccReplicationTest() : ReplicationTest(MvccConfig()) {}

  static cluster::ClusterConfig MvccConfig() {
    cluster::ClusterConfig c = Config();
    c.isolation = cluster::IsolationLevel::kSerializable;
    c.cc = mvcc::ConcurrencyControl::kMvcc;
    return c;
  }
};

TEST_F(MvccReplicationTest, WritesKeepReplicasIdenticalUnderMvcc) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto plan =
      planner_.PlanReplication(cluster_.routing_table(), {0}, /*factor=*/3);
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  sim_.Run();
  // Replica creation copies the tuple; it is not a transactional write, so
  // no version chain appears for key 0.
  EXPECT_EQ(cluster_.versions().ChainLength(0), 0u);
  const SimTime before_write = sim_.Now();

  auto writer = std::make_unique<txn::Transaction>();
  txn::Operation w;
  w.kind = txn::OpKind::kWrite;
  w.key = 0;
  w.write_value = 4242;
  writer->ops = {w};
  tm_.Submit(std::move(writer));
  sim_.Run();

  Result<router::Placement> placement =
      cluster_.routing_table().GetPlacement(0);
  ASSERT_TRUE(placement.ok());
  ASSERT_EQ(placement->copy_count(), 3u);
  EXPECT_EQ(cluster_.storage(placement->primary).Read(0)->content, 4242);
  for (uint32_t rep : placement->replicas) {
    EXPECT_EQ(cluster_.storage(rep).Read(0)->content, 4242);
  }
  // The committed write installed exactly one version; a snapshot from
  // before the write still reads the base, one from after reads 4242.
  EXPECT_EQ(cluster_.versions().ChainLength(0), 1u);
  EXPECT_EQ(cluster_.versions().ReadAsOf(0, before_write).writer, 0u);
  EXPECT_EQ(cluster_.versions().ReadAsOf(0, sim_.Now() + 1).value, 4242);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(MvccReplicationTest, EndToEndReplicationStaysConsistentUnderMvcc) {
  core::Repartitioner rp = MakeRepartitioner();
  tm_.set_completion_callback(
      [&rp](const txn::Transaction& t) { rp.OnTxnComplete(t); });
  auto plan = planner_.PlanReplication(cluster_.routing_table(),
                                       {0, 1, 2, 3}, /*factor=*/2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(rp.StartRepartitioningWithPlan(*plan));
  sim_.Run();
  EXPECT_TRUE(rp.Finished());
  for (storage::TupleKey k : {0ULL, 1ULL, 2ULL, 3ULL}) {
    EXPECT_EQ(cluster_.routing_table().GetPlacement(k)->copy_count(), 2u);
  }
  // Repartition transactions hold no snapshots once drained.
  EXPECT_EQ(cluster_.snapshots().active_count(), 0u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

}  // namespace
}  // namespace soap
