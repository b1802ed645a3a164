#include "src/common/flags.h"

#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "src/common/series.h"
#include "src/engine/flag_table.h"

#include <gtest/gtest.h>

namespace soap {
namespace {

Flags MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  Result<Flags> r =
      Flags::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(FlagsTest, EqualsForm) {
  Flags f = MustParse({"--name=value", "--n=7"});
  EXPECT_EQ(f.GetString("name"), "value");
  EXPECT_EQ(f.GetInt("n"), 7);
}

TEST(FlagsTest, SpaceForm) {
  Flags f = MustParse({"--alpha", "0.6", "--strategy", "hybrid"});
  EXPECT_DOUBLE_EQ(f.GetDouble("alpha"), 0.6);
  EXPECT_EQ(f.GetString("strategy"), "hybrid");
}

TEST(FlagsTest, BooleanForms) {
  Flags f = MustParse({"--chart", "--verbose=true", "--quiet=0"});
  EXPECT_TRUE(f.GetBool("chart"));
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_FALSE(f.GetBool("quiet"));
  EXPECT_FALSE(f.GetBool("absent"));
  EXPECT_TRUE(f.GetBool("absent", true));
}

TEST(FlagsTest, TrailingBooleanBeforeFlag) {
  Flags f = MustParse({"--chart", "--csv", "out.csv"});
  EXPECT_TRUE(f.GetBool("chart"));
  EXPECT_EQ(f.GetString("csv"), "out.csv");
}

TEST(FlagsTest, Positional) {
  Flags f = MustParse({"input.txt", "--k=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(FlagsTest, Defaults) {
  Flags f = MustParse({});
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
}

TEST(FlagsTest, MalformedRejected) {
  const char* argv1[] = {"prog", "--"};
  EXPECT_FALSE(Flags::Parse(2, argv1).ok());
  const char* argv2[] = {"prog", "--=oops"};
  EXPECT_FALSE(Flags::Parse(2, argv2).ok());
}

TEST(FlagsTest, UnconsumedDetection) {
  Flags f = MustParse({"--known=1", "--typo=2"});
  (void)f.GetInt("known");
  auto unused = f.UnconsumedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagTableTest, EnumValueTypoGetsNearMissSuggestion) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  Flags f = MustParse({"--cc=mvvc"});
  Status s = table.Apply(f, &config);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("did you mean mvcc?"), std::string::npos)
      << s.ToString();
}

TEST(FlagTableTest, EnumValuesApplyAndDefault) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  EXPECT_TRUE(table.Apply(MustParse({}), &config).ok());
  EXPECT_EQ(config.cluster.cc, mvcc::ConcurrencyControl::k2PL);
  EXPECT_TRUE(table.Apply(MustParse({"--cc=mvcc"}), &config).ok());
  EXPECT_EQ(config.cluster.cc, mvcc::ConcurrencyControl::kMvcc);
}

TEST(FlagTableTest, EnumValueWithoutNearMissListsTheAllowedSet) {
  Status s = engine::CheckEnumValue("cc", "optimistic", {"2pl", "mvcc"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("one of 2pl|mvcc"), std::string::npos)
      << s.ToString();
  // Retrofitted onto the older enum flags too.
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  Status strategy = table.Apply(MustParse({"--strategy=hybrod"}), &config);
  ASSERT_FALSE(strategy.ok());
  EXPECT_NE(strategy.ToString().find("did you mean hybrid?"),
            std::string::npos)
      << strategy.ToString();
}

TEST(FlagTableTest, HelpIsGroupedBySubsystem) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  const std::string help = table.Help("soap_run", "tagline");
  // Subsystem headings, in the fixed rendering order.
  const std::vector<std::string> headings = {
      "cluster:", "workload:", "deployment:", "planner:",
      "replica:", "lion:",     "obs:",        "check:"};
  size_t pos = 0;
  for (const std::string& heading : headings) {
    size_t at = help.find("\n" + heading + "\n");
    EXPECT_NE(at, std::string::npos) << "missing heading " << heading;
    EXPECT_GT(at, pos) << heading << " out of order";
    pos = at;
  }
  // The lion flags sit under the lion heading.
  size_t lion_at = help.find("\nlion:\n");
  size_t obs_at = help.find("\nobs:\n");
  ASSERT_NE(lion_at, std::string::npos);
  ASSERT_NE(obs_at, std::string::npos);
  for (const char* flag :
       {"--lion", "--replica_budget", "--shift_threshold", "--evict"}) {
    size_t at = help.find(flag);
    EXPECT_GT(at, lion_at) << flag;
    EXPECT_LT(at, obs_at) << flag;
  }
}

TEST(FlagTableTest, LionFlagsApply) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  ASSERT_TRUE(table
                  .Apply(MustParse({"--lion", "--replica_budget=7",
                                    "--shift_threshold=0.4", "--evict=heat"}),
                         &config)
                  .ok());
  const lion::LionConfig& lion = config.planner_options.builder.lion;
  EXPECT_TRUE(lion.enabled);
  // --lion implies the subsystems it builds on.
  EXPECT_TRUE(config.replicas.enabled);
  EXPECT_TRUE(config.planner_options.enabled);
  EXPECT_EQ(lion.replica_budget, 7u);
  EXPECT_DOUBLE_EQ(lion.shift_threshold, 0.4);
  EXPECT_EQ(lion.evict, lion::EvictPolicy::kHeat);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FlagTableTest, PairingKnobsWireIntoTheHubPhase) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  ASSERT_TRUE(table
                  .Apply(MustParse({"--pair_hub=5", "--pair_fraction=0.35",
                                    "--pair_affinity", "--pair_write=0.125"}),
                         &config)
                  .ok());
  ASSERT_EQ(config.workload_options.spec.phases.size(), 1u);
  const workload::DriftPhase& phase = config.workload_options.spec.phases[0];
  EXPECT_EQ(phase.pair_hub, 5u);
  EXPECT_DOUBLE_EQ(phase.pair_fraction, 0.35);
  EXPECT_TRUE(phase.pair_affinity);
  EXPECT_DOUBLE_EQ(phase.pair_write, 0.125);
  // Without --pair_hub the knobs are inert: no phase is created.
  engine::ExperimentConfig plain;
  ASSERT_TRUE(
      table.Apply(MustParse({"--pair_affinity", "--pair_write=0.5"}), &plain)
          .ok());
  EXPECT_TRUE(plain.workload_options.spec.phases.empty());
}

TEST(FlagTableTest, EvictTypoGetsNearMissSuggestion) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  Status s = table.Apply(MustParse({"--lion", "--evict=heta"}), &config);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("did you mean heat?"), std::string::npos)
      << s.ToString();
}

// One row per config-bound flag: the flag with a non-default value, and
// the field it must land in, printed.
struct BoundFlagCase {
  const char* name;
  const char* arg;
  std::function<std::string(const engine::ExperimentConfig&)> field;
  const char* expected;
};

void PrintTo(const BoundFlagCase& c, std::ostream* os) { *os << c.name; }

template <typename T>
std::string Str(const T& v) {
  std::ostringstream os;
  if constexpr (std::is_enum_v<T>) {
    os << static_cast<int>(v);
  } else {
    os << std::boolalpha << v;
  }
  return os.str();
}

using Cfg = const engine::ExperimentConfig&;

class BoundFlagTest : public ::testing::TestWithParam<BoundFlagCase> {};

// Without the flag the row writes nothing: a default config stays
// ExperimentConfig{} (the struct initializer is the only home of each
// default), and a value set earlier survives.
TEST_P(BoundFlagTest, AbsentFlagLeavesTheFieldAlone) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  ASSERT_TRUE(table.Apply(MustParse({}), &config).ok());
  EXPECT_EQ(GetParam().field(config),
            GetParam().field(engine::ExperimentConfig{}));
  EXPECT_NE(GetParam().field(config), GetParam().expected)
      << "pick a non-default value for the case";
  ASSERT_TRUE(table.Apply(MustParse({GetParam().arg}), &config).ok());
  ASSERT_TRUE(table.Apply(MustParse({}), &config).ok());
  EXPECT_EQ(GetParam().field(config), GetParam().expected);
}

TEST_P(BoundFlagTest, GivenFlagLandsInItsField) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  Status s = table.Apply(MustParse({GetParam().arg}), &config);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(GetParam().field(config), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, BoundFlagTest,
    ::testing::Values(
        BoundFlagCase{"strategy", "--strategy=feedback",
                      [](Cfg c) { return Str(c.deployment.strategy); },
                      "2"},
        BoundFlagCase{"templates", "--templates=77",
                      [](Cfg c) {
                        return Str(c.workload_options.spec.num_templates);
                      },
                      "77"},
        BoundFlagCase{"keys", "--keys=1234",
                      [](Cfg c) {
                        return Str(c.workload_options.spec.num_keys);
                      },
                      "1234"},
        BoundFlagCase{"sketch_threshold", "--sketch_threshold=9",
                      [](Cfg c) { return Str(c.scale.sketch_threshold); },
                      "9"},
        BoundFlagCase{"sketch_topk", "--sketch_topk=5",
                      [](Cfg c) { return Str(c.scale.sketch_topk); }, "5"},
        BoundFlagCase{"load", "--load=low",
                      [](Cfg c) {
                        return Str(c.workload_options.utilization);
                      },
                      "0.65"},
        BoundFlagCase{"isolation", "--isolation=serializable",
                      [](Cfg c) { return Str(c.cluster.isolation); }, "1"},
        BoundFlagCase{"cc", "--cc=mvcc",
                      [](Cfg c) { return Str(c.cluster.cc); }, "1"},
        BoundFlagCase{"warmup", "--warmup=3",
                      [](Cfg c) { return Str(c.warmup_intervals); }, "3"},
        BoundFlagCase{"intervals", "--intervals=4",
                      [](Cfg c) { return Str(c.measured_intervals); }, "4"},
        BoundFlagCase{"sp", "--sp=1.5",
                      [](Cfg c) { return Str(c.deployment.feedback.sp); },
                      "1.5"},
        BoundFlagCase{"seed", "--seed=42",
                      [](Cfg c) { return Str(c.seed); }, "42"},
        BoundFlagCase{"record_trace", "--record-trace=r.trace",
                      [](Cfg c) {
                        return c.workload_options.record_trace_path;
                      },
                      "r.trace"},
        BoundFlagCase{"replay_trace", "--replay-trace=p.trace",
                      [](Cfg c) {
                        return c.workload_options.replay_trace_path;
                      },
                      "p.trace"},
        BoundFlagCase{"metrics_out", "--metrics_out=m.prom",
                      [](Cfg c) { return c.obs.metrics_out; }, "m.prom"},
        BoundFlagCase{"metrics_jsonl", "--metrics_jsonl=m.jsonl",
                      [](Cfg c) { return c.obs.metrics_jsonl_out; },
                      "m.jsonl"},
        BoundFlagCase{"trace_out", "--trace_out=t.json",
                      [](Cfg c) { return c.obs.trace_out; }, "t.json"},
        BoundFlagCase{"trace_sample", "--trace_sample=8",
                      [](Cfg c) { return Str(c.obs.trace_sample); }, "8"},
        BoundFlagCase{"audit_out", "--audit_out=a.jsonl",
                      [](Cfg c) { return c.obs.audit_out; }, "a.jsonl"},
        BoundFlagCase{"timeline_out", "--timeline_out=tl.jsonl",
                      [](Cfg c) { return c.obs.timeline_out; }, "tl.jsonl"},
        BoundFlagCase{"timeline_interval", "--timeline_interval=6",
                      [](Cfg c) { return Str(c.obs.timeline_interval); },
                      "6"},
        BoundFlagCase{"fault_spec", "--fault_spec=drop:p=0.1",
                      [](Cfg c) { return c.fault_options.spec; },
                      "drop:p=0.1"},
        BoundFlagCase{"planner", "--planner",
                      [](Cfg c) { return Str(c.planner_options.enabled); },
                      "true"},
        BoundFlagCase{"replan", "--replan=7",
                      [](Cfg c) {
                        return Str(c.planner_options.replan_period);
                      },
                      "7"},
        BoundFlagCase{"plan_ops", "--plan_ops=64",
                      [](Cfg c) {
                        return Str(c.planner_options.builder.max_ops);
                      },
                      "64"},
        BoundFlagCase{"plan_min_heat", "--plan_min_heat=3",
                      [](Cfg c) {
                        return Str(
                            c.planner_options.builder.min_vertex_weight);
                      },
                      "3"},
        BoundFlagCase{"write_fraction", "--write_fraction=0.25",
                      [](Cfg c) {
                        return Str(c.workload_options.spec.write_fraction);
                      },
                      "0.25"},
        BoundFlagCase{"replicas", "--replicas",
                      [](Cfg c) { return Str(c.replicas.enabled); },
                      "true"},
        BoundFlagCase{"replica_copies", "--replica_copies=4",
                      [](Cfg c) {
                        return Str(c.planner_options.builder.max_copies);
                      },
                      "4"},
        BoundFlagCase{"replica_ratio", "--replica_ratio=5.5",
                      [](Cfg c) {
                        return Str(
                            c.planner_options.builder.min_read_write_ratio);
                      },
                      "5.5"},
        BoundFlagCase{"replica_split", "--replica_split=0.45",
                      [](Cfg c) {
                        return Str(c.planner_options.builder
                                       .replica_split_threshold);
                      },
                      "0.45"},
        BoundFlagCase{"promotion_delay_ms", "--promotion_delay_ms=250",
                      [](Cfg c) {
                        return Str(c.replicas.manager.promotion_delay);
                      },
                      "250000"},
        BoundFlagCase{"replica_keep_stale", "--replica_keep_stale",
                      [](Cfg c) {
                        return Str(
                            c.planner_options.builder.drop_stale_replicas);
                      },
                      "false"},
        BoundFlagCase{"lion", "--lion",
                      [](Cfg c) {
                        return Str(c.planner_options.builder.lion.enabled);
                      },
                      "true"},
        BoundFlagCase{"replica_budget", "--replica_budget=0",
                      [](Cfg c) {
                        return Str(
                            c.planner_options.builder.lion.replica_budget);
                      },
                      "0"},
        BoundFlagCase{"shift_threshold", "--shift_threshold=0.9",
                      [](Cfg c) {
                        return Str(
                            c.planner_options.builder.lion.shift_threshold);
                      },
                      "0.9"},
        BoundFlagCase{"evict", "--evict=heat",
                      [](Cfg c) {
                        return Str(c.planner_options.builder.lion.evict);
                      },
                      "1"},
        BoundFlagCase{"check", "--check",
                      [](Cfg c) { return Str(c.check.enabled); }, "true"},
        BoundFlagCase{"history_out", "--history_out=h.jsonl",
                      [](Cfg c) { return c.check.history_out; }, "h.jsonl"},
        BoundFlagCase{"check_break", "--check_break=lost_write",
                      [](Cfg c) { return Str(c.check.break_mode); }, "3"}),
    [](const ::testing::TestParamInfo<BoundFlagCase>& info) {
      return std::string(info.param.name);
    });

// Input the program cannot represent is rejected at the flag edge, with
// the message naming the flag (and a near miss where one exists).
struct EdgeRejectCase {
  const char* name;
  const char* arg;
  const char* message;
};

void PrintTo(const EdgeRejectCase& c, std::ostream* os) { *os << c.name; }

class EdgeRejectTest : public ::testing::TestWithParam<EdgeRejectCase> {};

TEST_P(EdgeRejectTest, RejectedWithItsMessage) {
  engine::FlagTable table = engine::ExperimentFlagTable();
  engine::ExperimentConfig config;
  Status s = table.Apply(MustParse({"--lion", GetParam().arg}), &config);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(GetParam().message), std::string::npos)
      << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EdgeRejectTest,
    ::testing::Values(
        EdgeRejectCase{"negative_replica_budget", "--replica_budget=-1",
                       "--replica_budget must be >= 0"},
        EdgeRejectCase{"negative_templates", "--templates=-1",
                       "--templates must be >= 0"},
        EdgeRejectCase{"negative_keys", "--keys=-1",
                       "--keys must be >= 0"},
        EdgeRejectCase{"negative_sketch_threshold", "--sketch_threshold=-1",
                       "--sketch_threshold must be >= 0"},
        EdgeRejectCase{"negative_sketch_topk", "--sketch_topk=-1",
                       "--sketch_topk must be >= 0"},
        EdgeRejectCase{"negative_warmup", "--warmup=-1",
                       "--warmup must be >= 0"},
        EdgeRejectCase{"negative_intervals", "--intervals=-1",
                       "--intervals must be >= 0"},
        EdgeRejectCase{"negative_seed", "--seed=-1",
                       "--seed must be >= 0"},
        EdgeRejectCase{"negative_trace_sample", "--trace_sample=-1",
                       "--trace_sample must be >= 0"},
        EdgeRejectCase{"negative_timeline_interval", "--timeline_interval=-1",
                       "--timeline_interval must be >= 0"},
        EdgeRejectCase{"negative_replan", "--replan=-1",
                       "--replan must be >= 0"},
        EdgeRejectCase{"negative_plan_ops", "--plan_ops=-1",
                       "--plan_ops must be >= 0"},
        EdgeRejectCase{"negative_plan_min_heat", "--plan_min_heat=-1",
                       "--plan_min_heat must be >= 0"},
        EdgeRejectCase{"negative_replica_copies", "--replica_copies=-1",
                       "--replica_copies must be >= 0"},
        EdgeRejectCase{"negative_drift_phases", "--drift_phases=-1",
                       "--drift_phases must be >= 0"},
        EdgeRejectCase{"negative_drift_phase_len", "--drift_phase_len=-1",
                       "--drift_phase_len must be >= 0"},
        EdgeRejectCase{"evict_near_miss", "--evict=lur",
                       "unknown --evict value 'lur' (did you mean lru?)"},
        EdgeRejectCase{"evict_unknown", "--evict=fifo",
                       "unknown --evict value 'fifo' (one of lru|heat)"},
        EdgeRejectCase{"check_break_near_miss", "--check_break=lost_wirte",
                       "unknown --check_break value 'lost_wirte' (did you "
                       "mean lost_write?)"},
        EdgeRejectCase{"check_break_unknown", "--check_break=everything",
                       "unknown --check_break value 'everything' (one of "
                       "none|replica_apply|double_deploy|lost_write|"
                       "stale_snapshot|double_primary)"}),
    [](const ::testing::TestParamInfo<EdgeRejectCase>& info) {
      return std::string(info.param.name);
    });

TEST(SeriesChartTest, ChartContainsLegendAndMarks) {
  SeriesBundle b("demo");
  Series& a = b.Add("alpha");
  for (double v : {1.0, 5.0, 9.0}) a.Append(v);
  Series& c = b.Add("beta");
  for (double v : {9.0, 5.0, 1.0}) c.Append(v);
  const std::string chart = b.ToAsciiChart(6);
  EXPECT_NE(chart.find("legend: A=alpha B=beta"), std::string::npos);
  EXPECT_NE(chart.find('A'), std::string::npos);
  EXPECT_NE(chart.find('B'), std::string::npos);
  EXPECT_NE(chart.find("demo"), std::string::npos);
}

TEST(SeriesChartTest, EmptyBundleSafe) {
  SeriesBundle b("empty");
  EXPECT_NE(b.ToAsciiChart().find("empty"), std::string::npos);
}

TEST(SeriesChartTest, FlatSeriesSafe) {
  SeriesBundle b("flat");
  Series& s = b.Add("x");
  for (int i = 0; i < 5; ++i) s.Append(3.0);
  const std::string chart = b.ToAsciiChart(4);
  EXPECT_NE(chart.find('A'), std::string::npos);
}

TEST(SeriesChartTest, LogScaleLabelsPositive) {
  SeriesBundle b("lat");
  Series& s = b.Add("ms");
  for (double v : {10.0, 100.0, 100000.0}) s.Append(v);
  const std::string chart = b.ToAsciiChart(8, /*log_scale=*/true);
  EXPECT_NE(chart.find("log scale"), std::string::npos);
  EXPECT_EQ(chart.find("-nan"), std::string::npos);
}

}  // namespace
}  // namespace soap
