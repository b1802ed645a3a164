// Leader-shift fault matrix: the kLeaderShift placement action under
// contention and failure. A shift racing an in-flight replica-create, the
// guard refusing shifts onto partitions that hold no copy, WAL-replay
// idempotency of the shift (the recovery image must match the live image,
// and re-applying a shift is a no-op), a primary crash during a
// lion-enabled run (promotion and the checker must agree on the new
// leader), and the hidden --check_break=double_primary corruption being
// detected — a shifted key never has zero or two primaries.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/transaction_manager.h"
#include "src/engine/experiment.h"

namespace soap {
namespace {

using txn::OpKind;
using txn::Operation;
using txn::Transaction;

class LeaderShiftTmTest : public ::testing::Test {
 protected:
  LeaderShiftTmTest() : cluster_(&sim_, MakeConfig()), tm_(&cluster_) {
    for (storage::TupleKey k = 0; k < 30; ++k) {
      storage::Tuple t;
      t.key = k;
      t.content = static_cast<int64_t>(k) * 10;
      EXPECT_TRUE(cluster_.LoadTuple(t, k % 3).ok());
    }
    cluster_.CheckpointAll();  // seal the bulk load so WALs stay replayable
  }

  static cluster::ClusterConfig MakeConfig() {
    cluster::ClusterConfig c;
    c.num_nodes = 3;
    c.workers_per_node = 2;
    c.num_keys = 30;
    c.network.jitter = 0;
    return c;
  }

  static Operation RepOp(OpKind kind, storage::TupleKey key, uint32_t from,
                         uint32_t to, uint64_t rep_id) {
    Operation op;
    op.kind = kind;
    op.key = key;
    op.source_partition = from;
    op.target_partition = to;
    op.repartition_op_id = rep_id;
    return op;
  }

  std::unique_ptr<Transaction> RepTxn(std::vector<Operation> ops) {
    auto t = std::make_unique<Transaction>();
    t->is_repartition = true;
    t->ops = std::move(ops);
    return t;
  }

  void VerifyAllRecoveryImages() {
    for (uint32_t p = 0; p < cluster_.num_nodes(); ++p) {
      EXPECT_TRUE(cluster_.storage(p).VerifyRecoveryImage().ok())
          << "partition " << p;
    }
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::TransactionManager tm_;
};

TEST_F(LeaderShiftTmTest, ShiftAppliesOntoAnExistingReplica) {
  // Key 0 lives on partition 0. Install a replica on 1, then shift.
  tm_.Submit(RepTxn({RepOp(OpKind::kReplicaCreate, 0, 0, 1, 1)}));
  sim_.Run();
  tm_.Submit(RepTxn({RepOp(OpKind::kLeaderShift, 0, 0, 1, 2)}));
  sim_.Run();

  Result<router::Placement> p = cluster_.routing_table().GetPlacement(0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->primary, 1u);
  ASSERT_EQ(p->replicas.size(), 1u);
  EXPECT_EQ(p->replicas[0], 0u);  // old primary demoted, not dropped
  EXPECT_EQ(tm_.counters().leader_shifts_applied, 1u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
  VerifyAllRecoveryImages();
}

TEST_F(LeaderShiftTmTest, ShiftWithoutAReplicaIsRefused) {
  // No copy on partition 2: the guard must skip the op, not corrupt
  // routing by promoting a partition that stores nothing.
  tm_.Submit(RepTxn({RepOp(OpKind::kLeaderShift, 0, 0, 2, 1)}));
  sim_.Run();
  EXPECT_EQ(*cluster_.routing_table().GetPrimary(0), 0u);
  EXPECT_EQ(tm_.counters().leader_shifts_applied, 0u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
}

TEST_F(LeaderShiftTmTest, ShiftRacingReplicaCreateStaysConsistent) {
  // Both transactions are in flight at once: the create that installs the
  // copy on partition 1 and the shift that wants to promote it. Whichever
  // order the simulator serializes them in, the run must end with exactly
  // one primary, a coherent copy set, and a replayable WAL.
  tm_.Submit(RepTxn({RepOp(OpKind::kReplicaCreate, 0, 0, 1, 1)}));
  tm_.Submit(RepTxn({RepOp(OpKind::kLeaderShift, 0, 0, 1, 2)}));
  sim_.Run();

  Result<router::Placement> p = cluster_.routing_table().GetPlacement(0);
  ASSERT_TRUE(p.ok());
  // Whatever interleaving (and whichever loser a lock conflict aborts):
  // the shift either won (primary 1, after the create committed) or was
  // refused by the guard (primary 0) — never anything in between.
  EXPECT_GE(p->copy_count(), 1u);
  EXPECT_LE(p->copy_count(), 2u);
  EXPECT_TRUE(p->primary == 0u || p->primary == 1u);
  if (p->primary == 1u) {
    EXPECT_EQ(p->copy_count(), 2u);
  }
  EXPECT_LE(tm_.counters().leader_shifts_applied, 1u);
  // The primary is never also listed as a replica.
  for (uint32_t rep : p->replicas) EXPECT_NE(rep, p->primary);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
  VerifyAllRecoveryImages();
}

TEST_F(LeaderShiftTmTest, ReapplyingAShiftIsIdempotent) {
  tm_.Submit(RepTxn({RepOp(OpKind::kReplicaCreate, 0, 0, 1, 1)}));
  sim_.Run();
  tm_.Submit(RepTxn({RepOp(OpKind::kLeaderShift, 0, 0, 1, 2)}));
  sim_.Run();
  ASSERT_EQ(*cluster_.routing_table().GetPrimary(0), 1u);

  // A retry delivers the same op again (same repartition op id, same
  // source/target). The role swap must not bounce back and forth.
  tm_.Submit(RepTxn({RepOp(OpKind::kLeaderShift, 0, 0, 1, 2)}));
  sim_.Run();

  Result<router::Placement> p = cluster_.routing_table().GetPlacement(0);
  EXPECT_EQ(p->primary, 1u);
  EXPECT_EQ(p->copy_count(), 2u);
  EXPECT_EQ(tm_.counters().leader_shifts_applied, 1u);
  EXPECT_TRUE(cluster_.CheckConsistency().ok());
  // WAL replay of the whole history (create + shift + retry) reproduces
  // the live storage image on every partition.
  VerifyAllRecoveryImages();
}

// --- Engine-level fault matrix ---------------------------------------------

// Affinity-hub pairing with write-through borrowers: each hub key's
// single borrower partition is both a split-reader (earning a copy) and
// the sole write source (qualifying that copy for promotion), so the
// lion planner reliably emits leader shifts within a few cycles.
engine::ExperimentConfig LionHubConfig() {
  engine::ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 200;
  config.workload_options.spec.num_keys = 2'000;
  workload::DriftPhase hub;
  hub.start_interval = 0;
  hub.zipf_s = config.workload_options.spec.zipf_s;
  hub.pair_fraction = 0.5;
  hub.pair_hub = config.cluster.num_nodes;
  hub.pair_affinity = true;
  hub.pair_write = 0.125;
  config.workload_options.spec.phases.push_back(hub);
  config.workload_options.utilization = 0.65;
  config.warmup_intervals = 2;
  config.measured_intervals = 12;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.seed = 11;
  config.planner_options.enabled = true;
  config.replicas.enabled = true;
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  config.planner_options.builder.lion.enabled = true;
  return config;
}

bool Has(const check::CheckReport& report, const std::string& check) {
  for (const check::Violation& v : report.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(LeaderShiftFaultTest, CleanLionRunPassesTheChecker) {
  engine::ExperimentConfig config = LionHubConfig();
  config.check.enabled = true;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_GT(r.planner_stats.leader_shifts_emitted, 0u);
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.check_breaks_fired, 0u);
}

TEST(LeaderShiftFaultTest, CheckedLionRunChecksEveryAppliedShift) {
  // Lion is switched on in its one home, planner_options.builder.lion,
  // and a --check run installs the per-shift invariant hook: each applied
  // shift adds one invariant check on top of the quiescent sweep's.
  engine::ExperimentConfig config = LionHubConfig();
  config.check.enabled = true;
  engine::ExperimentResult lion = engine::Experiment(config).Run();
  ASSERT_TRUE(lion.drained);
  ASSERT_GT(lion.counters.leader_shifts_applied, 0u);
  EXPECT_TRUE(lion.lion_enabled);
  EXPECT_NE(lion.Summary().find(", lion["), std::string::npos);

  // The same checked run without lion: no shifts, no faults, so its
  // count is the sweep's alone.
  config.planner_options.builder.lion.enabled = false;
  engine::ExperimentResult plain = engine::Experiment(config).Run();
  ASSERT_TRUE(plain.drained);
  ASSERT_EQ(plain.counters.leader_shifts_applied, 0u);
  EXPECT_EQ(lion.invariant_checks,
            plain.invariant_checks + lion.counters.leader_shifts_applied);
}

TEST(LeaderShiftFaultTest, PrimaryCrashDuringShiftsRecoversCleanly) {
  // Node 1 crashes while the lion planner is actively shifting leaders
  // and creating replicas. In-flight shifts abort with their carrier
  // transactions; promotion after the crash must agree with the
  // post-shift routing (the checker's sweeps would flag a stale or
  // doubled primary).
  engine::ExperimentConfig config = LionHubConfig();
  config.check.enabled = true;
  config.fault_options.spec = "crash:node=1,at=150s,down=30s";
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_EQ(r.faults_crashes, 1u);
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  EXPECT_EQ(r.tpc_stats.protocols_run,
            r.tpc_stats.committed + r.tpc_stats.aborted);
}

TEST(LeaderShiftFaultTest, CrashedLionRunIsDeterministic) {
  engine::ExperimentConfig config = LionHubConfig();
  config.fault_options.spec = "crash:node=1,at=150s,down=30s";
  engine::ExperimentResult a = engine::Experiment(config).Run();
  engine::ExperimentResult b = engine::Experiment(config).Run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.counters.leader_shifts_applied,
            b.counters.leader_shifts_applied);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(LeaderShiftFaultTest, BreakDoublePrimaryIsDetected) {
  // The hidden corruption half-applies one shift: the target becomes
  // primary while staying in the replica list. The OnLeaderShift
  // invariant must catch the doubled partition.
  engine::ExperimentConfig config = LionHubConfig();
  config.check.break_mode = check::BreakMode::kDoublePrimary;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_GT(r.planner_stats.leader_shifts_emitted, 0u);
  EXPECT_EQ(r.check_breaks_fired, 1u);
  ASSERT_FALSE(r.check_report.ok());
  EXPECT_TRUE(Has(r.check_report, "double_primary"))
      << r.check_report.ToString();
}

}  // namespace
}  // namespace soap
