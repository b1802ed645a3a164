// soap::lion: the adaptive replica provisioner (budgeted replica cache,
// LRU/heat eviction, predictive admission) as a unit, and the lion planner
// path end-to-end through the engine — leader shifts emitted and applied,
// budget pressure producing evictions/denials, and the whole thing staying
// clean under the consistency checker.

#include "src/lion/provisioner.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/engine/experiment.h"

namespace soap::lion {
namespace {

LionConfig MakeConfig(uint32_t budget, EvictPolicy evict = EvictPolicy::kLru) {
  LionConfig c;
  c.enabled = true;
  c.replica_budget = budget;
  c.evict = evict;
  return c;
}

// Routing over 10 keys / 4 partitions, round-robin, with replicas of keys
// 5 and 9 (both primaried on partition 1) hosted on partition 2.
void FillRouting(router::RoutingTable* routing) {
  EXPECT_TRUE(routing->AssignRoundRobin(0, 10, 4).ok());
  EXPECT_TRUE(routing->AddReplica(5, 2).ok());
  EXPECT_TRUE(routing->AddReplica(9, 2).ok());
}

TEST(ProvisionerTest, BudgetChargesAndReleases) {
  Provisioner prov(MakeConfig(2));
  router::RoutingTable empty(10);
  EXPECT_TRUE(empty.AssignRoundRobin(0, 10, 4).ok());
  prov.BeginCycle(empty);
  EXPECT_TRUE(prov.ChargeCreate(0));
  EXPECT_TRUE(prov.ChargeCreate(0));
  EXPECT_FALSE(prov.ChargeCreate(0));  // budget of 2 exhausted
  EXPECT_TRUE(prov.ChargeCreate(1));   // budgets are per partition
  prov.Release(0);
  EXPECT_TRUE(prov.ChargeCreate(0));  // the freed slot is reusable
}

TEST(ProvisionerTest, BeginCycleSnapshotsLiveOccupancy) {
  Provisioner prov(MakeConfig(2));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  // Partition 2 already hosts 2 replicas (keys 5 and 9): budget full.
  EXPECT_FALSE(prov.ChargeCreate(2));
  // An eviction frees a slot within the same cycle.
  prov.Release(2);
  EXPECT_TRUE(prov.ChargeCreate(2));
}

TEST(ProvisionerTest, LruEvictsTheLeastRecentlyTouchedCopy) {
  Provisioner prov(MakeConfig(2));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  prov.Touch(5, 2);  // key 5 pulled mass this cycle; key 9 never did
  prov.BeginCycle(routing);
  std::optional<storage::TupleKey> victim =
      prov.PickEviction(2, /*except=*/7, nullptr);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 9u);
}

TEST(ProvisionerTest, HeatEvictsTheColdestCopy) {
  Provisioner prov(MakeConfig(2, EvictPolicy::kHeat));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  auto heat = [](storage::TupleKey key) -> uint64_t {
    return key == 5 ? 100 : 3;  // key 9 is cold
  };
  std::optional<storage::TupleKey> victim = prov.PickEviction(2, 7, heat);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 9u);
}

TEST(ProvisionerTest, EvictionNeverPicksTheProtectedOrAPickedKey) {
  Provisioner prov(MakeConfig(2));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  // Protecting key 5 leaves only key 9; picking it twice is refused.
  std::optional<storage::TupleKey> first = prov.PickEviction(2, 5, nullptr);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 9u);
  EXPECT_FALSE(prov.PickEviction(2, 5, nullptr).has_value());
  // A partition hosting nothing has no victims at all.
  EXPECT_FALSE(prov.PickEviction(3, 5, nullptr).has_value());
}

TEST(ProvisionerTest, LruTiesBreakTowardTheLowestKey) {
  Provisioner prov(MakeConfig(2));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);  // neither copy ever touched: tied at 0
  std::optional<storage::TupleKey> victim = prov.PickEviction(2, 7, nullptr);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 5u);
}

TEST(ProvisionerTest, PredictedShareExtrapolatesARisingTrend) {
  Provisioner prov(MakeConfig(4));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  // First sighting: no history, the prediction is the raw share.
  EXPECT_DOUBLE_EQ(prov.PredictedShare(5, 2, 0.2), 0.2);
  prov.BeginCycle(routing);
  // Share rose 0.2 -> 0.4: one-step linear extrapolation predicts 0.6.
  EXPECT_DOUBLE_EQ(prov.PredictedShare(5, 2, 0.4), 0.6);
  prov.BeginCycle(routing);
  // A falling share is never extrapolated downward past itself.
  EXPECT_DOUBLE_EQ(prov.PredictedShare(5, 2, 0.3), 0.3);
}

TEST(ProvisionerTest, TrendStateAgesOutAfterASkippedCycle) {
  Provisioner prov(MakeConfig(4));
  router::RoutingTable routing(10);
  FillRouting(&routing);
  prov.BeginCycle(routing);
  EXPECT_DOUBLE_EQ(prov.PredictedShare(5, 2, 0.2), 0.2);
  prov.BeginCycle(routing);
  prov.BeginCycle(routing);  // the key skipped a cycle: stale sample gone
  EXPECT_DOUBLE_EQ(prov.PredictedShare(5, 2, 0.5), 0.5);
}

// --- Engine integration ----------------------------------------------------
// An affinity-hub workload: each hub key is read both by its home
// partition and by a single borrower partition, and *written* only by
// that borrower (pair_write flips the borrowed read positions into
// writes). The borrower's read pull earns it a split-reader copy, the
// borrower's 100% write share then qualifies that copy for promotion —
// exactly the existing-copy leader-shift path lion exists for.

engine::ExperimentConfig LionConfig_(uint32_t budget) {
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
  config.planner_options.builder.lion.replica_budget = budget;
  return config;
}

TEST(LionEngineTest, HubRunShiftsLeadersAndStaysConsistent) {
  engine::ExperimentResult r =
      engine::Experiment(LionConfig_(/*budget=*/64)).Run();
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.lion_enabled);
  // The planner found write-hot hub keys worth shifting, and the TM
  // actually applied shifts.
  EXPECT_GT(r.planner_stats.leader_shifts_emitted, 0u);
  EXPECT_GT(r.counters.leader_shifts_applied, 0u);
  // The distributed-write series is populated (lion's target metric).
  EXPECT_GT(r.distributed_write_ratio.size(), 0u);
}

TEST(LionEngineTest, TinyBudgetForcesEvictionOrDenial) {
  engine::ExperimentResult r =
      engine::Experiment(LionConfig_(/*budget=*/1)).Run();
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_GT(r.planner_stats.replicas_evicted_budget +
                r.planner_stats.replica_budget_denials,
            0u);
}

TEST(LionEngineTest, DeterministicAcrossRuns) {
  engine::ExperimentResult a =
      engine::Experiment(LionConfig_(/*budget=*/8)).Run();
  engine::ExperimentResult b =
      engine::Experiment(LionConfig_(/*budget=*/8)).Run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.counters.committed_normal, b.counters.committed_normal);
  EXPECT_EQ(a.counters.leader_shifts_applied,
            b.counters.leader_shifts_applied);
  EXPECT_EQ(a.planner_stats.leader_shifts_emitted,
            b.planner_stats.leader_shifts_emitted);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(LionEngineTest, LionOffLeavesTheStaticReplicaPathUntouched) {
  // With lion disabled the run must not report lion state at all — the
  // byte-identity goldens (events/committed) are pinned in
  // parallel_runner_test and the determinism tests; here we pin the
  // switch itself.
  engine::ExperimentConfig config = LionConfig_(/*budget=*/64);
  config.planner_options.builder.lion.enabled = false;
  engine::ExperimentResult r = engine::Experiment(config).Run();
  EXPECT_FALSE(r.lion_enabled);
  EXPECT_EQ(r.planner_stats.leader_shifts_emitted, 0u);
  EXPECT_EQ(r.counters.leader_shifts_applied, 0u);
}

}  // namespace
}  // namespace soap::lion
