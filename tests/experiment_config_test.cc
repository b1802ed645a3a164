// ExperimentConfig: the grouped sub-struct API and Validate()'s rejection
// of inconsistent combinations (table-driven), including the replica and
// lion constraints on their one home, planner_options.builder.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/engine/experiment.h"

namespace soap::engine {
namespace {

TEST(ExperimentConfigTest, DefaultConfigValidates) {
  ExperimentConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

struct RejectCase {
  const char* name;
  std::function<void(ExperimentConfig*)> mutate;
  const char* expect_substring;
};

// Test names print the case name, not the struct's (address-holding) bytes.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class ValidateRejectsTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(ValidateRejectsTest, RejectsInvalidCombination) {
  ExperimentConfig config;
  GetParam().mutate(&config);
  Status s = config.Validate();
  ASSERT_FALSE(s.ok()) << GetParam().name;
  EXPECT_NE(s.ToString().find(GetParam().expect_substring),
            std::string::npos)
      << GetParam().name << ": got \"" << s.ToString() << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Combinations, ValidateRejectsTest,
    ::testing::Values(
        RejectCase{"zero_interval_length",
                   [](ExperimentConfig* c) { c->interval_length = 0; },
                   "interval_length"},
        RejectCase{"negative_utilization",
                   [](ExperimentConfig* c) {
                     c->workload_options.utilization = -0.5;
                   },
                   "utilization"},
        RejectCase{"zero_history_window",
                   [](ExperimentConfig* c) {
                     c->workload_options.history_window = 0;
                   },
                   "history_window"},
        RejectCase{"replay_with_drift_phases",
                   [](ExperimentConfig* c) {
                     c->workload_options.replay_trace_path = "/tmp/t.trace";
                     c->workload_options.spec.phases.push_back(
                         workload::DriftPhase{});
                   },
                   "replay_trace_path"},
        RejectCase{"record_and_replay",
                   [](ExperimentConfig* c) {
                     c->workload_options.record_trace_path = "/tmp/a.trace";
                     c->workload_options.replay_trace_path = "/tmp/b.trace";
                   },
                   "mutually exclusive"},
        RejectCase{"trace_out_with_sampling_off",
                   [](ExperimentConfig* c) {
                     c->obs.trace_out = "/tmp/trace.json";
                     c->obs.trace_sample = 0;
                   },
                   "trace_sample"},
        RejectCase{"disturbance_fraction_over_one",
                   [](ExperimentConfig* c) {
                     c->fault_options.disturbance.enabled = true;
                     c->fault_options.disturbance.fraction = 1.5;
                     c->fault_options.disturbance.start_interval = 1;
                     c->fault_options.disturbance.end_interval = 2;
                   },
                   "fraction"},
        RejectCase{"disturbance_empty_window",
                   [](ExperimentConfig* c) {
                     c->fault_options.disturbance.enabled = true;
                     c->fault_options.disturbance.fraction = 0.5;
                     c->fault_options.disturbance.start_interval = 3;
                     c->fault_options.disturbance.end_interval = 3;
                   },
                   "window"},
        RejectCase{"disturbance_node_out_of_range",
                   [](ExperimentConfig* c) {
                     c->fault_options.disturbance.enabled = true;
                     c->fault_options.disturbance.fraction = 0.5;
                     c->fault_options.disturbance.start_interval = 1;
                     c->fault_options.disturbance.end_interval = 2;
                     c->fault_options.disturbance.node = 99;
                   },
                   "out of range"},
        RejectCase{"malformed_fault_spec",
                   [](ExperimentConfig* c) {
                     c->fault_options.spec = "crash:node=nonsense";
                   },
                   "nonsense"},
        RejectCase{"replica_single_copy",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->planner_options.builder.max_copies = 1;
                   },
                   "max_copies"},
        RejectCase{"replica_copies_exceed_cluster",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->planner_options.builder.max_copies =
                         c->cluster.num_nodes + 1;
                   },
                   "cluster"},
        RejectCase{"replica_nonpositive_ratio",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->planner_options.builder.min_read_write_ratio = 0.0;
                   },
                   "min_read_write_ratio"},
        RejectCase{"replica_split_threshold_out_of_range",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->planner_options.builder.replica_split_threshold = 1.0;
                   },
                   "split_threshold"},
        RejectCase{"replica_negative_promotion_delay",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->replicas.manager.promotion_delay = -1;
                   },
                   "promotion_delay"},
        RejectCase{"lion_shift_threshold_zero",
                   [](ExperimentConfig* c) {
                     c->planner_options.builder.lion.shift_threshold = 0.0;
                   },
                   "shift_threshold"},
        RejectCase{"lion_shift_threshold_above_one",
                   [](ExperimentConfig* c) {
                     c->planner_options.builder.lion.shift_threshold = 1.5;
                   },
                   "shift_threshold"},
        RejectCase{"lion_on_shift_threshold_seven",
                   [](ExperimentConfig* c) {
                     c->replicas.enabled = true;
                     c->planner_options.enabled = true;
                     c->planner_options.builder.lion.enabled = true;
                     c->planner_options.builder.lion.shift_threshold = 7.0;
                   },
                   "shift_threshold"},
        RejectCase{"lion_without_replicas",
                   [](ExperimentConfig* c) {
                     c->planner_options.builder.lion.enabled = true;
                   },
                   "replicas.enabled"},
        RejectCase{"lion_without_planner",
                   [](ExperimentConfig* c) {
                     c->planner_options.builder.lion.enabled = true;
                     c->replicas.enabled = true;
                   },
                   "planner.enabled"},
        RejectCase{"double_primary_break_without_lion",
                   [](ExperimentConfig* c) {
                     c->check.break_mode = check::BreakMode::kDoublePrimary;
                   },
                   "--lion"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return std::string(info.param.name);
    });

TEST(ExperimentConfigTest, ValueSemanticsCopyAndAssign) {
  ExperimentConfig a;
  a.workload_options.utilization = 0.9;
  a.planner_options.builder.lion.enabled = true;
  a.planner_options.builder.lion.replica_budget = 17;
  ExperimentConfig b = a;
  EXPECT_DOUBLE_EQ(b.workload_options.utilization, 0.9);
  EXPECT_EQ(b.planner_options.builder.lion.replica_budget, 17u);
  b.workload_options.utilization = 0.4;
  EXPECT_DOUBLE_EQ(a.workload_options.utilization, 0.9);
}

TEST(ExperimentConfigTest, RunSurfacesValidationFailure) {
  ExperimentConfig config;
  config.interval_length = 0;
  ExperimentResult r = Experiment(config).Run();
  EXPECT_FALSE(r.audit.ok());
  EXPECT_NE(r.audit.ToString().find("interval_length"), std::string::npos);
}

}  // namespace
}  // namespace soap::engine
