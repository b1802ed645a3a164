// soap::check end-to-end through the engine: a checked run over the full
// planner + replica + fault stack reports a clean history, each
// --check_break corruption mode is detected (the checker is not vacuously
// green), the recorder-off run stays byte-identical to the seed, and
// --history_out dumps a parseable JSONL history.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/json.h"
#include "src/engine/experiment.h"

namespace soap::engine {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 200;
  config.workload_options.spec.num_keys = 4'000;
  config.workload_options.utilization = 0.65;
  config.warmup_intervals = 2;
  config.measured_intervals = 12;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.seed = 5;
  return config;
}

// Hub workload with planner + replicas: half of all transactions pair
// with one of 4 hot shared templates whose keys are both written (default
// write fraction) and read from everywhere, so the history has real
// write-read dependencies and replica copy applies for the checker to
// verify. (The default workload's read and write key sets are disjoint,
// which silences the read rules end-to-end; see DESIGN.md §6.)
ExperimentConfig HubConfig() {
  ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 200;
  config.workload_options.spec.num_keys = 2'000;
  workload::DriftPhase hub;
  hub.start_interval = 0;
  hub.zipf_s = config.workload_options.spec.zipf_s;
  hub.pair_fraction = 0.5;
  hub.pair_hub = 4;
  config.workload_options.spec.phases.push_back(hub);
  config.workload_options.utilization = 0.65;
  config.warmup_intervals = 2;
  config.measured_intervals = 8;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.seed = 11;
  config.planner_options.enabled = true;
  config.replicas.enabled = true;
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  return config;
}

bool Has(const check::CheckReport& report, const std::string& check) {
  for (const check::Violation& v : report.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(CheckE2eTest, CleanRunPassesTheChecker) {
  ExperimentConfig config = TinyConfig();
  config.check.enabled = true;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.check_enabled);
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  EXPECT_GT(r.check_report.txns_checked, 0u);
  EXPECT_GT(r.check_report.ww_edges, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_EQ(r.check_breaks_fired, 0u);
}

TEST(CheckE2eTest, HubRunExercisesReadDependenciesAndReplicas) {
  ExperimentConfig config = HubConfig();
  config.check.enabled = true;
  config.fault_options.spec = "crash:node=2,at=150s,down=30s";
  ExperimentResult r = Experiment(config).Run();
  EXPECT_TRUE(r.drained);
  EXPECT_TRUE(r.audit.ok()) << r.audit.ToString();
  EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  // Shared hub keys are both read and written, so the history has real
  // write-read dependencies — the read rules are not vacuous here.
  EXPECT_GT(r.check_report.wr_edges, 0u);
  EXPECT_GT(r.check_report.reads_checked, 0u);
  // Replica lifecycle ran under the checker's invariant sweeps.
  EXPECT_GT(r.planner_stats.replica_creates_emitted, 0u);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(CheckE2eTest, BreakLostWriteIsDetected) {
  ExperimentConfig config = TinyConfig();
  config.check.break_mode = check::BreakMode::kLostWrite;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_EQ(r.check_breaks_fired, 1u);
  ASSERT_FALSE(r.check_report.ok());
  EXPECT_TRUE(Has(r.check_report, "lost_write") ||
              Has(r.check_report, "final_state"))
      << r.check_report.ToString();
}

TEST(CheckE2eTest, BreakDoubleDeployIsDetected) {
  ExperimentConfig config = TinyConfig();
  config.check.break_mode = check::BreakMode::kDoubleDeploy;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_EQ(r.check_breaks_fired, 1u);
  ASSERT_FALSE(r.check_report.ok());
  EXPECT_TRUE(Has(r.check_report, "ownership")) << r.check_report.ToString();
}

TEST(CheckE2eTest, BreakReplicaApplyIsDetected) {
  // Needs a run that actually creates replicas for the corruption site to
  // exist at all.
  ExperimentConfig config = HubConfig();
  config.check.break_mode = check::BreakMode::kReplicaApply;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_GT(r.planner_stats.replica_creates_emitted, 0u);
  EXPECT_EQ(r.check_breaks_fired, 1u);
  ASSERT_FALSE(r.check_report.ok());
  EXPECT_TRUE(Has(r.check_report, "ownership") ||
              Has(r.check_report, "replica_coherence"))
      << r.check_report.ToString();
}

TEST(CheckE2eTest, CheckOffIsByteIdenticalToCheckOn) {
  // The recorder only observes; enabling it must not perturb the run.
  ExperimentConfig off = TinyConfig();
  ExperimentConfig on = TinyConfig();
  on.check.enabled = true;
  ExperimentResult a = Experiment(off).Run();
  ExperimentResult b = Experiment(on).Run();
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.counters.committed_normal, b.counters.committed_normal);
  EXPECT_EQ(a.counters.aborted_normal, b.counters.aborted_normal);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(CheckE2eTest, HistoryOutDumpsParseableJsonl) {
  ExperimentConfig config = TinyConfig();
  const std::string path = ::testing::TempDir() + "check_e2e_history.jsonl";
  config.check.history_out = path;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_TRUE(r.check_enabled);  // history_out implies enabled
  EXPECT_TRUE(r.obs_export.ok()) << r.obs_export.ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  Result<std::vector<json::Value>> lines = json::ParseLines(buf.str());
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  EXPECT_GT(lines->size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace soap::engine
