// MVCC transaction-manager contract (--cc=mvcc): reads never touch the
// lock manager, snapshot observations are consistent with the reader's
// begin timestamp, write-write conflicts abort under first-updater-wins,
// the stale_snapshot break is provably detected by the checker, and the
// engine-level zero-lock / SI-clean properties hold end to end.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/check/checker.h"
#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"
#include "src/cluster/transaction_manager.h"
#include "src/engine/experiment.h"
#include "src/mvcc/version_store.h"
#include "src/obs/metrics.h"

namespace soap::cluster {
namespace {

using txn::AbortReason;
using txn::OpKind;
using txn::Operation;
using txn::Transaction;

class MvccTmTest : public ::testing::Test {
 protected:
  MvccTmTest() : cluster_(&sim_, MakeConfig()), tm_(&cluster_) {
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
    c.isolation = IsolationLevel::kSerializable;
    c.cc = mvcc::ConcurrencyControl::kMvcc;
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

  sim::Simulator sim_;
  Cluster cluster_;
  TransactionManager tm_;
  std::vector<Transaction> completed_;
};

TEST_F(MvccTmTest, SerializableReadsAcquireZeroLocks) {
  // The tentpole property: under 2PL these same serializable reads take
  // shared locks; under MVCC the lock manager never hears about them.
  tm_.Submit(MakeTxn({Read(0), Read(3), Read(6)}));    // collocated
  tm_.Submit(MakeTxn({Read(1), Read(2), Read(9)}));    // distributed
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_TRUE(completed_[1].committed());
  EXPECT_EQ(cluster_.lock_manager().stats().acquires, 0u);
}

TEST_F(MvccTmTest, WritersStillLockAndInstallVersions) {
  tm_.Submit(MakeTxn({Read(0), Write(3, 99)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_TRUE(completed_[0].committed());
  // The write took its commit-time exclusive lock...
  EXPECT_GT(cluster_.lock_manager().stats().acquires, 0u);
  // ...applied to storage...
  EXPECT_EQ(cluster_.storage(0).Read(3)->content, 99);
  // ...and installed a version stamped with the commit time.
  EXPECT_EQ(cluster_.versions().ChainLength(3), 1u);
  const mvcc::VersionRead after =
      cluster_.versions().ReadAsOf(3, sim_.Now() + 1);
  EXPECT_EQ(after.writer, completed_[0].id);
  EXPECT_EQ(after.value, 99);
  // A snapshot from before the commit still reads the base.
  EXPECT_EQ(cluster_.versions().ReadAsOf(3, 0).writer, 0u);
}

TEST_F(MvccTmTest, FirstUpdaterWinsAbortsTheSecondWriter) {
  // Both transactions snapshot at t=0 and write key 3; whichever commits
  // first installs a version at-or-after the other's begin timestamp, so
  // the second must abort with kWriteConflict — not wait, as 2PL would.
  tm_.Submit(MakeTxn({Write(3, 111)}));
  tm_.Submit(MakeTxn({Write(3, 222)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  int committed = 0;
  int conflicted = 0;
  for (const Transaction& t : completed_) {
    if (t.committed()) committed++;
    if (t.abort_reason == AbortReason::kWriteConflict) conflicted++;
  }
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(conflicted, 1);
  EXPECT_EQ(tm_.counters().aborts_write_conflict, 1u);
  EXPECT_EQ(cluster_.versions().ChainLength(3), 1u);
}

TEST_F(MvccTmTest, NonOverlappingWritersBothCommit) {
  tm_.Submit(MakeTxn({Write(3, 111)}));
  tm_.Submit(MakeTxn({Write(4, 222)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  EXPECT_TRUE(completed_[0].committed());
  EXPECT_TRUE(completed_[1].committed());
  EXPECT_EQ(tm_.counters().aborts_write_conflict, 0u);
}

TEST_F(MvccTmTest, SequentialWriterThenReaderYieldsWrEdgeAndCleanSi) {
  // A real reads-from dependency: the writer commits, then a reader's
  // snapshot (begun after the commit) observes the writer's version. The
  // SI checker must verify the observation and derive the wr edge.
  check::HistoryRecorder recorder;
  recorder.set_clock([this]() { return sim_.Now(); });
  for (uint32_t p = 0; p < 3; ++p) {
    cluster_.storage(p).set_observer(&recorder);
  }
  tm_.set_history(&recorder);

  tm_.Submit(MakeTxn({Write(3, 99)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 1u);
  ASSERT_TRUE(completed_[0].committed());
  const uint64_t writer_id = completed_[0].id;

  // Begin the reader strictly after the writer's commit timestamp: a
  // snapshot at exactly the commit instant would (correctly, strict
  // visibility) still read the base.
  sim_.At(sim_.Now() + Millis(1),
          [this] { tm_.Submit(MakeTxn({Read(3), Read(6)})); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 2u);
  ASSERT_TRUE(completed_[1].committed());

  ASSERT_EQ(recorder.snapshot_reads().size(), 2u);
  EXPECT_EQ(recorder.snapshot_reads()[0].observed_writer, writer_id);
  EXPECT_EQ(recorder.snapshot_reads()[1].observed_writer, 0u);

  const check::CheckReport report =
      check::CheckHistory(recorder, /*serializable=*/true, /*mvcc=*/true);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.mvcc_checked);
  EXPECT_EQ(report.snapshot_reads_checked, 2u);
  EXPECT_EQ(report.wr_edges, 1u);
}

TEST_F(MvccTmTest, StaleSnapshotBreakIsDetectedByTheChecker) {
  check::HistoryRecorder recorder;
  recorder.set_clock([this]() { return sim_.Now(); });
  for (uint32_t p = 0; p < 3; ++p) {
    cluster_.storage(p).set_observer(&recorder);
  }
  tm_.set_history(&recorder);
  tm_.set_check_break(check::BreakMode::kStaleSnapshot);

  // A read on a chainless key must NOT consume the break: a misreport
  // there would be indistinguishable from a correct base read.
  tm_.Submit(MakeTxn({Read(6)}));
  sim_.Run();
  EXPECT_EQ(tm_.check_breaks_fired(), 0u);

  // Build committed history on key 3, then read it: the break fires and
  // misreports the observation.
  tm_.Submit(MakeTxn({Write(3, 99)}));
  sim_.Run();
  tm_.Submit(MakeTxn({Read(3)}));
  sim_.Run();
  EXPECT_EQ(tm_.check_breaks_fired(), 1u);

  // The corrupted observation must be the only thing the checker flags
  // (SequentialWriterThenReaderYieldsWrEdgeAndCleanSi shows the same
  // traffic is clean without the break — the detection is not vacuous).
  const check::CheckReport report =
      check::CheckHistory(recorder, /*serializable=*/true, /*mvcc=*/true);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_EQ(report.violations.front().check, "stale_snapshot_read")
      << report.ToString();
}

TEST_F(MvccTmTest, SnapshotsAreReleasedOnCompletion) {
  tm_.Submit(MakeTxn({Read(0), Write(3, 1)}));
  tm_.Submit(MakeTxn({Write(3, 2)}));  // one of the two will conflict-abort
  tm_.Submit(MakeTxn({Read(6)}));
  sim_.Run();
  ASSERT_EQ(completed_.size(), 3u);
  // Commit, abort and read-only paths all end their snapshots, so GC is
  // never pinned by finished transactions.
  EXPECT_EQ(cluster_.snapshots().active_count(), 0u);
  EXPECT_EQ(cluster_.snapshots().OldestActive(),
            mvcc::SnapshotManager::kNone);
}

TEST_F(MvccTmTest, WalReplayRebuildsEquivalentChains) {
  // Recovery equivalence: WAL records carry commit timestamps, so a store
  // rebuilt from every partition's log answers ReadAsOf exactly like the
  // live one — and replaying again changes nothing (idempotent).
  tm_.Submit(MakeTxn({Write(3, 11)}));           // partition 0
  tm_.Submit(MakeTxn({Write(4, 22), Write(5, 33)}));  // distributed: 1 and 2
  sim_.Run();
  // Strictly later begin: at the exact commit instant first-updater-wins
  // would (correctly) refuse the overwrite of key 3.
  sim_.At(sim_.Now() + Millis(1),
          [this] { tm_.Submit(MakeTxn({Write(3, 44)})); });
  sim_.Run();
  ASSERT_EQ(completed_.size(), 3u);
  for (const Transaction& t : completed_) EXPECT_TRUE(t.committed());

  mvcc::VersionStore rebuilt(nullptr);
  for (uint32_t p = 0; p < 3; ++p) {
    rebuilt.RebuildFromWal(cluster_.storage(p).wal());
  }
  EXPECT_EQ(rebuilt.ChainLength(3), 2u);
  const SimTime now = sim_.Now() + 1;
  for (storage::TupleKey key : {3ULL, 4ULL, 5ULL}) {
    EXPECT_EQ(rebuilt.ReadAsOf(key, now).writer,
              cluster_.versions().ReadAsOf(key, now).writer);
    EXPECT_EQ(rebuilt.ReadAsOf(key, now).value,
              cluster_.versions().ReadAsOf(key, now).value);
  }
  EXPECT_EQ(rebuilt.ReadAsOf(3, now).value, 44);

  const uint64_t live = rebuilt.versions_live();
  for (uint32_t p = 0; p < 3; ++p) {
    rebuilt.RebuildFromWal(cluster_.storage(p).wal());
  }
  EXPECT_EQ(rebuilt.versions_live(), live);
}

// --- Engine-level properties (full experiment stack). ---

engine::ExperimentConfig SmallConfig(uint64_t seed) {
  engine::ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 80;
  config.workload_options.spec.num_keys = 2'000;
  config.workload_options.utilization = workload::kHighLoadUtilization;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.warmup_intervals = 1;
  config.measured_intervals = 4;
  config.seed = seed;
  config.cluster.isolation = IsolationLevel::kSerializable;
  config.cluster.cc = mvcc::ConcurrencyControl::kMvcc;
  return config;
}

TEST(MvccEngineTest, ReadOnlyWorkloadAcquiresZeroLocksUnderMvcc) {
  // The acceptance assertion: a serializable read-only workload under
  // --cc=mvcc drives the whole stack (routing, 2PC-free commits, metrics)
  // with literally zero lock-manager calls.
  engine::ExperimentConfig config = SmallConfig(11);
  config.workload_options.spec.write_fraction = 0.0;
  // alpha=0: the workload is already collocated, so the optimizer plan is
  // empty and no repartition transactions (which do lock) run either.
  config.workload_options.spec.alpha = 0.0;
  config.obs.collect_metrics = true;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_GT(r.counters.committed_normal, 0u);
  EXPECT_EQ(r.lock_stats.acquires, 0u);
  EXPECT_TRUE(r.mvcc_enabled);

  // Same workload under 2PL: every serializable read locks.
  config.cluster.cc = mvcc::ConcurrencyControl::k2PL;
  engine::ExperimentResult two_pl = engine::Experiment(config).Run();
  EXPECT_GT(two_pl.lock_stats.acquires, 0u);
  EXPECT_FALSE(two_pl.mvcc_enabled);
}

TEST(MvccEngineTest, CheckedMvccRunIsCleanAndCountsWriteConflicts) {
  engine::ExperimentConfig config = SmallConfig(12);
  config.check.enabled = true;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  EXPECT_TRUE(r.check_report.mvcc_checked);
  EXPECT_GT(r.check_report.snapshot_reads_checked, 0u);
  EXPECT_GT(r.counters.committed_normal, 0u);
  // High-contention zipf writes: first-updater-wins visibly fires, and the
  // summary/result plumbing carries it.
  EXPECT_GT(r.counters.aborts_write_conflict, 0u);
  EXPECT_NE(r.Summary().find("write_conflict="), std::string::npos);
  EXPECT_NE(r.Summary().find("mvcc[versions_live="), std::string::npos);
  // GC kept the store bounded: under this write-heavy load most installed
  // versions were pruned, leaving a small live set.
  EXPECT_GT(r.mvcc_gc_pruned, 0u);
  EXPECT_LT(r.mvcc_versions_live, r.mvcc_gc_pruned);
}

TEST(MvccEngineTest, AbortReasonCountersAreLabelled) {
  engine::ExperimentConfig config = SmallConfig(13);
  config.obs.collect_metrics = true;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  ASSERT_NE(r.metrics, nullptr);
  const std::string prom = r.metrics->ToPrometheusText();
  EXPECT_NE(prom.find("soap_txn_aborts_total{reason=\"write_conflict\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("soap_txn_aborts_total{reason=\"lock_timeout\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("soap_mvcc_versions_live"), std::string::npos);
  EXPECT_NE(prom.find("soap_mvcc_gc_pruned_total"), std::string::npos);
}

TEST(MvccEngineTest, StaleSnapshotBreakNeedsMvcc) {
  engine::ExperimentConfig config = SmallConfig(14);
  config.cluster.cc = mvcc::ConcurrencyControl::k2PL;
  config.check.enabled = true;
  config.check.break_mode = check::BreakMode::kStaleSnapshot;
  EXPECT_FALSE(config.Validate().ok());
  config.cluster.cc = mvcc::ConcurrencyControl::kMvcc;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace soap::cluster
