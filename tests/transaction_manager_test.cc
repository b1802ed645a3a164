#include "src/cluster/transaction_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"

namespace soap::cluster {
namespace {

using txn::OpKind;
using txn::Operation;
using txn::Transaction;

class TmTest : public ::testing::Test {
 protected:
  TmTest() : cluster_(&sim_, MakeConfig()), tm_(&cluster_) {
    // 30 tuples spread over 3 partitions: key k on partition k % 3.
    for (storage::TupleKey k = 0; k < 30; ++k) {
      storage::Tuple t;
      t.key = k;
      t.content = static_cast<int64_t>(k) * 10;
      EXPECT_TRUE(cluster_.LoadTuple(t, k % 3).ok());
    }
    tm_.set_completion_callback(
        [this](const Transaction& t) { completed_.push_back(t); });
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig c;
    c.num_nodes = 3;
    c.workers_per_node = 2;
    c.num_keys = 30;
    c.network.jitter = 0;
    return c;
  }

  std::unique_ptr<Transaction> MakeTxn(std::vector<Operation> ops) {
    auto t = std::make_unique<Transaction>();
    t->ops = std::move(ops);
    return t;
  }

  static Operation Read(storage::TupleKey key) {
    Operation op;
    op.kind = OpKind::kRead;
    op.key = key;
    return op;
  }
  static Operation Write(storage::TupleKey key, int64_t value) {
    Operation op;
    op.kind = OpKind::kWrite;
    op.key = key;
    op.write_value = value;
    return op;
  }
  static Operation Migrate(OpKind half, storage::TupleKey key, uint32_t from,
                           uint32_t to, uint64_t rep_id) {
    Operation op;
    op.kind = half;
    op.key = key;
    op.source_partition = from;
    op.target_partition = to;
    op.repartition_op_id = rep_id;
    return op;
  }

  sim::Simulator sim_;
  Cluster cluster_;
  TransactionManager tm_;
  std::vector<Transaction> completed_;
};

TEST_F(TmTest, SinglePartitionCommit) {
  tm_.Submit(MakeTxn({Read(0), Write(3, 99)}));  // keys 0,3 on partition 0
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(cluster_.storage(0).Read(3)->content, 99);
  EXPECT_EQ(tm_.counters().committed_normal, 1u);
  // Collocated: no 2PC protocol, no network messages.
  EXPECT_EQ(cluster_.tpc().stats().protocols_run, 0u);
}

TEST_F(TmTest, DistributedCommitUses2pc) {
  tm_.Submit(MakeTxn({Write(0, 1), Write(1, 2)}));  // partitions 0 and 1
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(cluster_.storage(0).Read(0)->content, 1);
  EXPECT_EQ(cluster_.storage(1).Read(1)->content, 2);
  EXPECT_EQ(cluster_.tpc().stats().protocols_run, 1u);
  EXPECT_GT(cluster_.network().messages_sent(), 0u);
}

TEST_F(TmTest, DistributedCostsMoreThanCollocated) {
  tm_.Submit(MakeTxn({Read(0), Read(3), Read(6), Read(9), Read(12)}));
  sim_.Run();
  const Duration collocated = cluster_.TotalBusyTime(WorkCategory::kNormal);
  const Duration collocated_latency = completed_[0].Latency();

  tm_.Submit(MakeTxn({Read(0), Read(3), Read(6), Read(9), Read(1)}));
  sim_.Run();
  const Duration distributed =
      cluster_.TotalBusyTime(WorkCategory::kNormal) - collocated;
  const Duration distributed_latency = completed_[1].Latency();

  // The paper's cost model: a distributed transaction costs ~2x (§3.1).
  const double ratio = static_cast<double>(distributed) /
                       static_cast<double>(collocated);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
  EXPECT_GT(distributed_latency, collocated_latency);
}

TEST_F(TmTest, WritesInvisibleUntilCommit) {
  // Buffered writes: a value is applied only at commit.
  bool checked_mid_flight = false;
  tm_.Submit(MakeTxn({Write(0, 42), Read(3)}));
  sim_.At(Millis(2), [&] {
    // Transaction started (begin=1ms) but is still executing.
    EXPECT_EQ(cluster_.storage(0).Read(0)->content, 0);
    checked_mid_flight = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked_mid_flight);
  EXPECT_EQ(cluster_.storage(0).Read(0)->content, 42);
}

TEST_F(TmTest, MigrationMovesTupleAndRetargetsRouting) {
  auto t = MakeTxn({Migrate(OpKind::kMigrateInsert, 0, 0, 1, 1),
                    Migrate(OpKind::kMigrateDelete, 0, 0, 1, 1)});
  t->is_repartition = true;
  tm_.Submit(std::move(t));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_FALSE(cluster_.storage(0).Contains(0));
  EXPECT_TRUE(cluster_.storage(1).Contains(0));
  EXPECT_EQ(cluster_.storage(1).Read(0)->content, 0);
  EXPECT_EQ(*cluster_.routing_table().GetPrimary(0), 1u);
  EXPECT_EQ(tm_.counters().repartition_ops_applied, 1u);
  EXPECT_EQ(tm_.counters().committed_repartition, 1u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(TmTest, StaleMigrationSkipped) {
  // The tuple already lives on partition 1: the plan unit is stale.
  ASSERT_TRUE(cluster_.routing_table().Migrate(0, 0, 1).ok());
  cluster_.storage(1).BulkLoad(*cluster_.storage(0).Read(0));
  ASSERT_TRUE(cluster_.storage(0).table().Get(0).ok());
  storage::Tuple moved = *cluster_.storage(0).Read(0);
  (void)moved;
  // Remove from 0 to complete the manual migration.
  ASSERT_TRUE(cluster_.storage(0).ApplyErase(99, 0).ok());

  auto t = MakeTxn({Migrate(OpKind::kMigrateInsert, 0, 0, 1, 1),
                    Migrate(OpKind::kMigrateDelete, 0, 0, 1, 1)});
  t->is_repartition = true;
  tm_.Submit(std::move(t));
  sim_.Run();
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(tm_.counters().repartition_ops_applied, 0u);  // skipped
  EXPECT_TRUE(cluster_.storage(1).Contains(0));
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(TmTest, SelfMigrationIsANoOp) {
  // A malformed plan unit migrating a tuple onto its own partition must
  // not destroy the only copy.
  auto t = MakeTxn({Migrate(OpKind::kMigrateInsert, 0, 0, 0, 1),
                    Migrate(OpKind::kMigrateDelete, 0, 0, 0, 1)});
  t->is_repartition = true;
  tm_.Submit(std::move(t));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(tm_.counters().repartition_ops_applied, 0u);  // skipped
  EXPECT_TRUE(cluster_.storage(0).Contains(0));
  EXPECT_EQ(*cluster_.routing_table().GetPrimary(0), 0u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(TmTest, PiggybackedMigrationAppliedWithCarrier) {
  auto t = MakeTxn({Read(3), Write(6, 5)});
  t->piggyback_ops = {Migrate(OpKind::kMigrateInsert, 0, 0, 2, 7),
                      Migrate(OpKind::kMigrateDelete, 0, 0, 2, 7)};
  t->piggyback_source = 1;
  tm_.Submit(std::move(t));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(*cluster_.routing_table().GetPrimary(0), 2u);
  EXPECT_EQ(tm_.counters().piggybacked_ops_applied, 1u);
  EXPECT_EQ(tm_.counters().repartition_ops_applied, 1u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(TmTest, VoteAbortRollsBack) {
  tm_.set_vote_abort_injector(
      [](const Transaction&, uint32_t partition) { return partition == 1; });
  tm_.Submit(MakeTxn({Write(0, 1), Write(1, 2)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].aborted());
  EXPECT_EQ(completed_[0].abort_reason, txn::AbortReason::kVoteAbort);
  // No effects applied.
  EXPECT_EQ(cluster_.storage(0).Read(0)->content, 0);
  EXPECT_EQ(cluster_.storage(1).Read(1)->content, 10);
  EXPECT_EQ(tm_.counters().aborted_normal, 1u);
}

TEST_F(TmTest, QueueTimeoutFailsStaleTransactions) {
  // Saturate admission so a later transaction rots in the queue.
  ClusterConfig tiny = MakeConfig();
  tiny.max_inflight = 1;
  tiny.costs.txn_timeout = Seconds(1);
  sim::Simulator sim;
  Cluster cluster(&sim, tiny);
  for (storage::TupleKey k = 0; k < 30; ++k) {
    storage::Tuple t;
    t.key = k;
    ASSERT_TRUE(cluster.LoadTuple(t, k % 3).ok());
  }
  TransactionManager tm(&cluster);
  std::vector<Transaction> done;
  tm.set_completion_callback(
      [&](const Transaction& t) { done.push_back(t); });

  // First transaction holds the only slot for 2 virtual seconds by having
  // many queries... simpler: submit a long chain of transactions; the
  // tail waits > 1s behind the single slot.
  for (int i = 0; i < 300; ++i) {
    auto t = std::make_unique<Transaction>();
    t->ops = {Read(0), Read(3), Read(6)};
    tm.Submit(std::move(t));
  }
  sim.Run();
  EXPECT_EQ(done.size(), 300u);
  EXPECT_GT(tm.counters().aborts_queue_timeout, 0u);
  EXPECT_EQ(tm.counters().committed_normal + tm.counters().aborted_normal,
            300u);
}

TEST_F(TmTest, QueueExpiredTransactionsReachTheHistory) {
  // The saturation above, with a history recorder attached: a transaction
  // that expires in the queue is reported as an abort like any other.
  ClusterConfig tiny = MakeConfig();
  tiny.max_inflight = 1;
  tiny.costs.txn_timeout = Seconds(1);
  sim::Simulator sim;
  Cluster cluster(&sim, tiny);
  for (storage::TupleKey k = 0; k < 30; ++k) {
    storage::Tuple t;
    t.key = k;
    ASSERT_TRUE(cluster.LoadTuple(t, k % 3).ok());
  }
  TransactionManager tm(&cluster);
  check::HistoryRecorder history;
  tm.set_history(&history);
  std::vector<txn::TxnId> expired;
  tm.set_completion_callback([&](const Transaction& t) {
    if (t.abort_reason == txn::AbortReason::kQueueTimeout) {
      expired.push_back(t.id);
    }
  });
  for (int i = 0; i < 300; ++i) {
    auto t = std::make_unique<Transaction>();
    t->ops = {Read(0), Read(3), Read(6)};
    tm.Submit(std::move(t));
  }
  sim.Run();
  ASSERT_FALSE(expired.empty());
  for (txn::TxnId id : expired) EXPECT_TRUE(history.IsAborted(id));
  EXPECT_EQ(history.aborted_count(), tm.counters().aborted_normal);
}

TEST_F(TmTest, WriteConflictSerializesNotAborts) {
  // Two writers to the same key commit in some order; both succeed and
  // the committed value is one of theirs.
  tm_.Submit(MakeTxn({Write(0, 111)}));
  tm_.Submit(MakeTxn({Write(0, 222)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_TRUE(completed_[1].committed());
  const int64_t v = cluster_.storage(0).Read(0)->content;
  EXPECT_TRUE(v == 111 || v == 222);
  EXPECT_EQ(cluster_.storage(0).Read(0)->version, 2u);
}

TEST_F(TmTest, MigrationBlocksConcurrentWriterUntilCommit) {
  // A migration holds X on key 0; a writer must wait and then commit to
  // the NEW location.
  auto mig = MakeTxn({Migrate(OpKind::kMigrateInsert, 0, 0, 1, 1),
                      Migrate(OpKind::kMigrateDelete, 0, 0, 1, 1)});
  mig->is_repartition = true;
  tm_.Submit(std::move(mig));
  tm_.Submit(MakeTxn({Write(0, 777)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_TRUE(completed_[1].committed());
  EXPECT_EQ(*cluster_.routing_table().GetPrimary(0), 1u);
  EXPECT_EQ(cluster_.storage(1).Read(0)->content, 777);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(TmTest, LowPriorityWaitsForIdle) {
  // Keep the system busy with normal work, then submit a low-priority
  // repartition transaction: it must only run once the normal work has
  // fully drained (the AfterAll idle rule, §3.2).
  for (int i = 0; i < 5; ++i) {
    tm_.Submit(MakeTxn({Read(0), Read(3), Read(6)}));
  }
  auto low = MakeTxn({Read(9)});
  low->priority = txn::TxnPriority::kLow;
  low->is_repartition = true;
  tm_.Submit(std::move(low));
  EXPECT_FALSE(tm_.IdleForLowPriority());
  sim_.Run();
  ASSERT_EQ(completed_.size(), 6u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(completed_[i].is_repartition);
  EXPECT_TRUE(completed_[5].is_repartition);
}

TEST_F(TmTest, ReadOfVanishedTupleStillCommits) {
  // UPDATE/SELECT affecting 0 rows is legal SQL, not an error.
  ASSERT_TRUE(cluster_.storage(0).ApplyErase(99, 0).ok());
  // Leave routing stale on purpose: the read routes to partition 0 and
  // finds nothing.
  tm_.Submit(MakeTxn({Read(0)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
}

TEST_F(TmTest, EmptyTransactionCommits) {
  tm_.Submit(MakeTxn({}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
}

TEST_F(TmTest, CountersTrackSubmissions) {
  tm_.Submit(MakeTxn({Read(0)}));
  auto rep = MakeTxn({Migrate(OpKind::kMigrateInsert, 1, 1, 0, 1),
                      Migrate(OpKind::kMigrateDelete, 1, 1, 0, 1)});
  rep->is_repartition = true;
  tm_.Submit(std::move(rep));
  sim_.Run();
  EXPECT_EQ(tm_.counters().submitted_normal, 1u);
  EXPECT_EQ(tm_.counters().submitted_repartition, 1u);
  EXPECT_EQ(tm_.counters().total_submitted(), 2u);
}

TEST_F(TmTest, LatencyIsPositiveAndOrdered) {
  tm_.Submit(MakeTxn({Read(0), Read(3)}));
  sim_.Run();
  const Transaction& t = completed_[0];
  EXPECT_GT(t.Latency(), 0);
  EXPECT_GE(t.start_time, t.submit_time);
  EXPECT_GT(t.finish_time, t.start_time);
}

TEST_F(TmTest, PromoteQueuedChangesPriority) {
  ClusterConfig cfg = MakeConfig();
  cfg.max_inflight = 1;
  sim::Simulator sim;
  Cluster cluster(&sim, cfg);
  for (storage::TupleKey k = 0; k < 30; ++k) {
    storage::Tuple t;
    t.key = k;
    ASSERT_TRUE(cluster.LoadTuple(t, k % 3).ok());
  }
  TransactionManager tm(&cluster);
  std::vector<Transaction> done;
  tm.set_completion_callback([&](const Transaction& t) { done.push_back(t); });

  tm.Submit([&] {
    auto t = std::make_unique<Transaction>();
    t->ops = {Read(0)};
    return t;
  }());  // occupies the only slot
  auto low = std::make_unique<Transaction>();
  low->ops = {Read(1)};
  low->priority = txn::TxnPriority::kLow;
  low->is_repartition = true;
  const txn::TxnId low_id = tm.Submit(std::move(low));
  auto normal = std::make_unique<Transaction>();
  normal->ops = {Read(2)};
  tm.Submit(std::move(normal));

  // Promote the low transaction to high: it should now run before the
  // queued normal one.
  EXPECT_TRUE(tm.PromoteQueued(low_id, txn::TxnPriority::kHigh));
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[1].id, low_id);
  EXPECT_FALSE(tm.PromoteQueued(low_id, txn::TxnPriority::kHigh));
}

// cc-mode matrix: the core commit paths hold under either concurrency
// control engine. 2PL is the seed behavior; under MVCC reads come off
// snapshots (no shared locks) while writers still lock and 2PC still
// coordinates distributed commits.
Operation CcRead(storage::TupleKey key) {
  Operation op;
  op.kind = OpKind::kRead;
  op.key = key;
  return op;
}
Operation CcWrite(storage::TupleKey key, int64_t value) {
  Operation op;
  op.kind = OpKind::kWrite;
  op.key = key;
  op.write_value = value;
  return op;
}

class CcMatrixTest
    : public ::testing::TestWithParam<mvcc::ConcurrencyControl> {
 protected:
  void SetUp() override {
    ClusterConfig c;
    c.num_nodes = 3;
    c.workers_per_node = 2;
    c.num_keys = 30;
    c.network.jitter = 0;
    c.isolation = IsolationLevel::kSerializable;
    c.cc = GetParam();
    cluster_ = std::make_unique<Cluster>(&sim_, c);
    tm_ = std::make_unique<TransactionManager>(cluster_.get());
    for (storage::TupleKey k = 0; k < 30; ++k) {
      storage::Tuple t;
      t.key = k;
      t.content = static_cast<int64_t>(k) * 10;
      ASSERT_TRUE(cluster_->LoadTuple(t, k % 3).ok());
    }
    tm_->set_completion_callback(
        [this](const Transaction& t) { completed_.push_back(t); });
  }

  bool Mvcc() const { return GetParam() == mvcc::ConcurrencyControl::kMvcc; }

  std::unique_ptr<Transaction> MakeTxn(std::vector<Operation> ops) {
    auto t = std::make_unique<Transaction>();
    t->ops = std::move(ops);
    return t;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<TransactionManager> tm_;
  std::vector<Transaction> completed_;
};

TEST_P(CcMatrixTest, SinglePartitionCommitAppliesTheWrite) {
  tm_->Submit(MakeTxn({CcRead(0), CcWrite(3, 99)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(cluster_->storage(0).Read(3)->content, 99);
  EXPECT_EQ(cluster_->tpc().stats().protocols_run, 0u);
  if (Mvcc()) {
    // The commit also installed a version readable by later snapshots.
    EXPECT_EQ(cluster_->versions().ChainLength(3), 1u);
    EXPECT_EQ(cluster_->versions().ReadAsOf(3, sim_.Now() + 1).value, 99);
  } else {
    EXPECT_FALSE(cluster_->mvcc_enabled());  // no version store exists
  }
}

TEST_P(CcMatrixTest, DistributedCommitUses2pcUnderEitherEngine) {
  tm_->Submit(MakeTxn({CcWrite(0, 1), CcWrite(1, 2)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_EQ(cluster_->storage(0).Read(0)->content, 1);
  EXPECT_EQ(cluster_->storage(1).Read(1)->content, 2);
  EXPECT_EQ(cluster_->tpc().stats().protocols_run, 1u);
}

TEST_P(CcMatrixTest, ReadOnlyTxnLocksOnlyUnder2pl) {
  tm_->Submit(MakeTxn({CcRead(0), CcRead(1), CcRead(5)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  const uint64_t acquires = cluster_->lock_manager().stats().acquires;
  if (Mvcc()) {
    EXPECT_EQ(acquires, 0u);  // snapshot reads are lock-free
    EXPECT_EQ(cluster_->snapshots().active_count(), 0u);  // and released
  } else {
    EXPECT_GT(acquires, 0u);  // serializable 2PL takes shared read locks
  }
}

INSTANTIATE_TEST_SUITE_P(
    CcModes, CcMatrixTest,
    ::testing::Values(mvcc::ConcurrencyControl::k2PL,
                      mvcc::ConcurrencyControl::kMvcc),
    [](const ::testing::TestParamInfo<mvcc::ConcurrencyControl>& info) {
      return info.param == mvcc::ConcurrencyControl::kMvcc ? "Mvcc" : "TwoPl";
    });

}  // namespace
}  // namespace soap::cluster
