// soap::replica end-to-end through the engine: the planner creates copies
// of shared read-mostly keys, reads are served by replicas, a primary
// crash promotes surviving copies after the failure-detector delay, a
// restarted node catches up, and — the byte-identity contract — enabling
// the subsystem without ever creating a replica leaves the event stream
// of a replication-free run untouched.

#include <gtest/gtest.h>

#include "src/engine/experiment.h"

namespace soap::engine {
namespace {

// Small hub workload: 10 hot templates are shared reference data read by
// a third of all transactions, from every partition. These keys are
// read-only, so the planner replicates them instead of migrating.
ExperimentConfig HubConfig() {
  ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 200;
  config.workload_options.spec.num_keys = 4'000;
  config.workload_options.spec.write_fraction = 0.1;
  workload::DriftPhase hub;
  hub.start_interval = 0;
  hub.zipf_s = config.workload_options.spec.zipf_s;
  hub.pair_fraction = 0.35;
  hub.pair_hub = 10;
  config.workload_options.spec.phases.push_back(hub);
  config.workload_options.utilization = 0.65;
  config.warmup_intervals = 2;
  config.measured_intervals = 10;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.seed = 7;
  config.planner_options.enabled = true;
  config.replicas.enabled = true;
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  return config;
}

TEST(ReplicaManagerTest, PlannerCreatesCopiesAndReadsUseThem) {
  ExperimentResult r = Experiment(HubConfig()).Run();
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.planner_stats.replica_creates_emitted, 0u);
  EXPECT_GT(r.replica_count_final, 0u);
  EXPECT_GT(r.replica_reads, 0u);
  EXPECT_GT(r.reads_routed, r.replica_reads);
}

TEST(ReplicaManagerTest, PrimaryCrashPromotesSurvivingCopies) {
  ExperimentConfig config = HubConfig();
  // Crash once replicas exist (plans deploy from interval 2 at 20s
  // intervals); the node stays down past the drain so the run ends with
  // the promoted routing state.
  config.fault_options.spec = "crash:node=2,at=150s,down=30s";
  ExperimentResult r = Experiment(config).Run();
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_EQ(r.faults_crashes, 1u);
  EXPECT_GT(r.replica_stats.promotions, 0u);
  EXPECT_GE(r.replica_stats.failovers, 1u);
  // The restarted node swept its stale copies back to freshness.
  EXPECT_GT(r.replica_stats.catchup_refreshed, 0u);
}

TEST(ReplicaManagerTest, CrashWithoutReplicasSchedulesNoReplicaEvents) {
  ExperimentConfig config = HubConfig();
  config.planner_options.enabled = false;  // nothing ever proposes a copy
  config.fault_options.spec = "crash:node=2,at=150s,down=30s";
  ExperimentResult r = Experiment(config).Run();
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_EQ(r.replica_count_final, 0u);
  EXPECT_EQ(r.replica_stats.promotions, 0u);
  EXPECT_EQ(r.replica_stats.failovers, 0u);
  EXPECT_EQ(r.replica_stats.catchup_refreshed, 0u);
  EXPECT_EQ(r.replica_reads, 0u);
}

TEST(ReplicaManagerTest, EnabledButUnusedIsByteIdenticalToDisabled) {
  // With the planner off no replica is ever created, so every
  // replica-aware branch must degenerate to the replication-free path:
  // same event count, same commits, same virtual end time.
  ExperimentConfig off = HubConfig();
  off.planner_options.enabled = false;
  off.replicas.enabled = false;
  ExperimentConfig on = HubConfig();
  on.planner_options.enabled = false;
  on.replicas.enabled = true;
  ExperimentResult a = Experiment(off).Run();
  ExperimentResult b = Experiment(on).Run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.counters.committed_normal, b.counters.committed_normal);
  EXPECT_EQ(a.counters.aborted_normal, b.counters.aborted_normal);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(ReplicaManagerTest, PromotionRacesInFlightReplicaCreate) {
  // Crash one second after a plan-generation boundary (plans deploy at
  // 20s intervals from interval 2), so the failure-detector sweep promotes
  // surviving copies while kReplicaCreate repartition transactions of the
  // newest generation are still in flight to and from the crashed node.
  // Those in-flight creates must either land on a live placement or abort
  // with the crash — never deploy a copy under the dead primary — and the
  // checker's ownership/coherence sweeps prove it.
  ExperimentConfig config = HubConfig();
  config.fault_options.spec = "crash:node=2,at=81s,down=30s";
  config.check.enabled = true;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_EQ(r.faults_crashes, 1u);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.planner_stats.replica_creates_emitted, 0u);
  EXPECT_GT(r.replica_stats.promotions, 0u);
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(ReplicaManagerTest, DeterministicAcrossRuns) {
  ExperimentConfig config = HubConfig();
  config.fault_options.spec = "crash:node=2,at=150s,down=30s";
  ExperimentResult a = Experiment(config).Run();
  ExperimentResult b = Experiment(config).Run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.replica_stats.promotions, b.replica_stats.promotions);
  EXPECT_EQ(a.replica_stats.catchup_refreshed,
            b.replica_stats.catchup_refreshed);
  EXPECT_EQ(a.replica_reads, b.replica_reads);
  EXPECT_EQ(a.end_time, b.end_time);
}

}  // namespace
}  // namespace soap::engine
