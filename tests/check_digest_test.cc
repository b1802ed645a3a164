// Pinned report digests for seeded --check cells. Each cell's CheckReport
// (every counter, the invariant-check count and the violations, sorted by
// (check, at, detail) so that the order rule passes emit them in does not
// matter) folds into one FNV-1a digest. The pins were computed before the
// checker moved onto flat containers; a rewrite of the recorder, the
// checker or the ownership audit must reproduce them exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/engine/experiment.h"

namespace soap::engine {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The canonical text a digest is taken over.
std::string Canonical(const ExperimentResult& r) {
  const check::CheckReport& report = r.check_report;
  std::string text =
      "violations=" + std::to_string(report.violations.size()) +
      " txns=" + std::to_string(report.txns_checked) +
      " reads=" + std::to_string(report.reads_checked) +
      " snapshot_reads=" + std::to_string(report.snapshot_reads_checked) +
      " ww=" + std::to_string(report.ww_edges) +
      " wr=" + std::to_string(report.wr_edges) +
      " rw=" + std::to_string(report.rw_edges) +
      " rw_cycles=" + std::to_string(report.rw_cycles) +
      " serializable=" + std::to_string(report.serializable_checked) +
      " mvcc=" + std::to_string(report.mvcc_checked) +
      " invariant_checks=" + std::to_string(r.invariant_checks) + "\n";
  std::vector<check::Violation> sorted = report.violations;
  std::sort(sorted.begin(), sorted.end(),
            [](const check::Violation& a, const check::Violation& b) {
              return std::tie(a.check, a.at, a.detail) <
                     std::tie(b.check, b.at, b.detail);
            });
  for (const check::Violation& v : sorted) {
    text += v.check + "|" + std::to_string(v.at) + "|" + v.detail + "\n";
  }
  return text;
}

ExperimentConfig Tiny() {
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

/// A hub pairing: shared hot templates whose keys are both read and
/// written, with the planner and replicas on.
ExperimentConfig Hub(bool lion) {
  ExperimentConfig config;
  config.workload_options.spec = workload::WorkloadSpec::Zipf(1.0);
  config.workload_options.spec.num_templates = 200;
  config.workload_options.spec.num_keys = 2'000;
  workload::DriftPhase hub;
  hub.start_interval = 0;
  hub.zipf_s = config.workload_options.spec.zipf_s;
  hub.pair_fraction = 0.5;
  hub.pair_hub = lion ? config.cluster.num_nodes : 4;
  if (lion) {
    hub.pair_affinity = true;
    hub.pair_write = 0.125;
  }
  config.workload_options.spec.phases.push_back(hub);
  config.workload_options.utilization = 0.65;
  config.warmup_intervals = 2;
  config.measured_intervals = lion ? 12 : 8;
  config.deployment.strategy = SchedulingStrategy::kHybrid;
  config.seed = 11;
  config.planner_options.enabled = true;
  config.replicas.enabled = true;
  config.planner_options.builder.max_copies = config.cluster.num_nodes;
  config.planner_options.builder.lion.enabled = lion;
  return config;
}

ExperimentConfig Mvcc(ExperimentConfig config) {
  config.cluster.isolation = cluster::IsolationLevel::kSerializable;
  config.cluster.cc = mvcc::ConcurrencyControl::kMvcc;
  return config;
}

struct DigestCase {
  const char* name;
  ExperimentConfig (*config)();
  uint64_t digest;
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

const DigestCase kCases[] = {
    {"HubCrash",
     [] {
       ExperimentConfig c = Hub(false);
       c.check.enabled = true;
       c.fault_options.spec = "crash:node=2,at=150s,down=30s";
       return c;
     },
     0x4b6eb429d53cc790ULL},
    {"Mvcc",
     [] {
       ExperimentConfig c = Mvcc(Hub(false));
       c.check.enabled = true;
       return c;
     },
     0x731f4f20242ddf40ULL},
    {"CrashReplicas",
     [] {
       ExperimentConfig c = Tiny();
       c.workload_options.spec.write_fraction = 0.1;
       workload::DriftPhase hub;
       hub.start_interval = 0;
       hub.zipf_s = c.workload_options.spec.zipf_s;
       hub.pair_fraction = 0.3;
       hub.pair_hub = 10;
       c.workload_options.spec.phases.push_back(hub);
       c.replicas.enabled = true;
       c.planner_options.builder.max_copies = 4;
       c.fault_options.spec = "crash:node=2,at=150s,down=30s";
       c.check.enabled = true;
       return c;
     },
     0xfa8c73e7b351034ULL},
    {"BreakLostWrite",
     [] {
       ExperimentConfig c = Tiny();
       c.check.break_mode = check::BreakMode::kLostWrite;
       return c;
     },
     0xe17899f092399b38ULL},
    {"BreakDoubleDeploy",
     [] {
       ExperimentConfig c = Tiny();
       c.check.break_mode = check::BreakMode::kDoubleDeploy;
       return c;
     },
     0xd9c0c91757f84df0ULL},
    {"BreakReplicaApply",
     [] {
       ExperimentConfig c = Hub(false);
       c.check.break_mode = check::BreakMode::kReplicaApply;
       return c;
     },
     0xfcb1b5e7971fdd87ULL},
    {"BreakStaleSnapshot",
     [] {
       // Seed 5: at seed 11 the break fires but the report stays clean.
       ExperimentConfig c = Mvcc(Hub(false));
       c.seed = 5;
       c.check.break_mode = check::BreakMode::kStaleSnapshot;
       return c;
     },
     0xb5925e8f5b79c038ULL},
    {"BreakDoublePrimary",
     [] {
       ExperimentConfig c = Hub(true);
       c.check.break_mode = check::BreakMode::kDoublePrimary;
       return c;
     },
     0xa8dfd503801519ccULL},
};

class CheckDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(CheckDigestTest, ReportMatchesThePinnedDigest) {
  const DigestCase& c = GetParam();
  ExperimentConfig config = c.config();
  ASSERT_TRUE(config.Validate().ok()) << config.Validate().ToString();
  const ExperimentResult r = Experiment(config).Run();
  ASSERT_TRUE(r.check_enabled);
  const std::string text = Canonical(r);
  EXPECT_EQ(Fnv1a(text), c.digest)
      << std::hex << "0x" << Fnv1a(text) << "ULL for " << c.name << "\n"
      << text;
  if (config.check.break_mode != check::BreakMode::kNone) {
    EXPECT_EQ(r.check_breaks_fired, 1u);
    EXPECT_FALSE(r.check_report.ok());
  } else {
    EXPECT_TRUE(r.check_report.ok()) << r.check_report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, CheckDigestTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<DigestCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace soap::engine
