#include "src/engine/flag_table.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/check/break_mode.h"
#include "src/common/logging.h"
#include "src/lion/provisioner.h"
#include "src/mvcc/cc_mode.h"

namespace soap::engine {

namespace {

std::string TypeName(FlagType type) {
  switch (type) {
    case FlagType::kBool: return "";
    case FlagType::kInt: return "N";
    case FlagType::kDouble: return "F";
    case FlagType::kString: return "S";
  }
  return "";
}

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string FlagTable::Help(std::string_view program,
                            std::string_view tagline) const {
  size_t width = 0;
  for (const FlagDef& def : defs_) {
    if (def.hidden) continue;
    const std::string arg = TypeName(def.type);
    width = std::max(width, def.name.size() + (arg.empty() ? 0 : 1 + arg.size()));
  }
  std::ostringstream os;
  os << program << " — " << tagline << "\n";
  // Fixed subsystem order; a heading prints only when its group has
  // visible rows, rows keep their table order inside each group, and
  // groups the order does not know about (frontend Add()s) trail it.
  std::vector<std::string> order = {"cluster", "workload", "deployment",
                                    "planner", "replica", "lion",
                                    "obs",     "check",    "faults",
                                    "general"};
  for (const FlagDef& def : defs_) {
    if (std::find(order.begin(), order.end(), def.group) == order.end()) {
      order.push_back(def.group);
    }
  }
  for (const std::string& group : order) {
    bool heading = false;
    for (const FlagDef& def : defs_) {
      if (def.hidden) continue;
      if (def.group != group) continue;
      if (!heading) {
        os << "\n" << group << ":\n";
        heading = true;
      }
      std::string left = "--" + def.name;
      const std::string arg = TypeName(def.type);
      if (!arg.empty()) left += " " + arg;
      os << "  " << left << std::string(width + 4 - left.size() + 2, ' ')
         << def.help;
      if (!def.default_text.empty()) os << "  (" << def.default_text << ")";
      os << "\n";
    }
  }
  return os.str();
}

Status FlagTable::CheckUnknown(const Flags& flags) const {
  for (const std::string& name : flags.Names()) {
    bool known = false;
    for (const FlagDef& def : defs_) {
      if (def.name == name) {
        known = true;
        break;
      }
    }
    if (known) continue;
    // Near-miss: smallest edit distance <= 2, or a prefix relation (the
    // common "--replica" for "--replicas" class of typo).
    const FlagDef* best = nullptr;
    size_t best_distance = 3;
    for (const FlagDef& def : defs_) {
      size_t d = EditDistance(name, def.name);
      if (def.name.rfind(name, 0) == 0 || name.rfind(def.name, 0) == 0) {
        d = std::min(d, static_cast<size_t>(1));
      }
      if (d < best_distance) {
        best_distance = d;
        best = &def;
      }
    }
    std::string message = "unknown flag --" + name;
    if (best != nullptr) {
      message += " (did you mean --" + best->name + "?)";
    } else {
      message += " (see --help)";
    }
    return Status::InvalidArgument(message);
  }
  return Status::OK();
}

Status CheckEnumValue(const std::string& flag, const std::string& value,
                      const std::vector<std::string>& allowed) {
  for (const std::string& a : allowed) {
    if (value == a) return Status::OK();
  }
  std::string message = "unknown --" + flag + " value '" + value + "'";
  const std::string* best = nullptr;
  size_t best_distance = 3;
  for (const std::string& a : allowed) {
    const size_t d = EditDistance(value, a);
    if (d < best_distance) {
      best_distance = d;
      best = &a;
    }
  }
  if (best != nullptr) {
    message += " (did you mean " + *best + "?)";
  } else {
    std::string list;
    for (const std::string& a : allowed) {
      if (!list.empty()) list += "|";
      list += a;
    }
    message += " (one of " + list + ")";
  }
  return Status::InvalidArgument(message);
}

namespace {

Status NegativeFlag(const std::string& name) {
  return Status::InvalidArgument("--" + name + " must be >= 0");
}

// Binding for a count that another row reads (--drift_phases,
// --drift_phase_len): it assigns nothing, only rejects a negative value.
Status NonNegative(const Flags& f, const std::string& name) {
  return f.Has(name) && f.GetInt(name) < 0 ? NegativeFlag(name)
                                           : Status::OK();
}

template <typename Field>
using FieldType =
    std::remove_pointer_t<std::invoke_result_t<Field, ExperimentConfig*>>;

// A row bound to the config field `field` points at. The flag's value is
// assigned only when the flag is given, so the field's initializer in
// ExperimentConfig stays the one home of its default; `default_text` is
// only what --help prints. Integers are cast to the field's type; a
// negative value for an unsigned field is rejected, not wrapped.
template <typename Field>
FlagDef Bind(const char* name, const char* default_text, const char* help,
             const char* group, Field field) {
  using T = FieldType<Field>;
  FlagType type = FlagType::kString;
  if constexpr (std::is_same_v<T, bool>) {
    type = FlagType::kBool;
  } else if constexpr (std::is_integral_v<T>) {
    type = FlagType::kInt;
  } else if constexpr (std::is_floating_point_v<T>) {
    type = FlagType::kDouble;
  }
  return {name, type, default_text, help,
          [name = std::string(name), field](const Flags& f,
                                            ExperimentConfig* c) -> Status {
            if (!f.Has(name)) return Status::OK();
            T& out = *field(c);
            if constexpr (std::is_same_v<T, bool>) {
              out = f.GetBool(name);
            } else if constexpr (std::is_integral_v<T>) {
              const int64_t v = f.GetInt(name);
              if (std::is_unsigned_v<T> && v < 0) return NegativeFlag(name);
              out = static_cast<T>(v);
            } else if constexpr (std::is_floating_point_v<T>) {
              out = f.GetDouble(name);
            } else {
              out = f.GetString(name);
            }
            return Status::OK();
          },
          /*hidden=*/false, group};
}

// Bind for an enum field: the value must be one of `values`' spellings
// (CheckEnumValue suggests a near miss otherwise).
template <typename Field>
FlagDef BindEnum(const char* name, const char* default_text, const char* help,
                 const char* group, Field field,
                 std::vector<std::pair<std::string, FieldType<Field>>> values,
                 bool hidden = false) {
  return {name, FlagType::kString, default_text, help,
          [name = std::string(name), field, values](
              const Flags& f, ExperimentConfig* c) -> Status {
            if (!f.Has(name)) return Status::OK();
            const std::string v = f.GetString(name);
            std::vector<std::string> spellings;
            for (const auto& [spelling, value] : values) {
              if (v == spelling) {
                *field(c) = value;
                return Status::OK();
              }
              spellings.push_back(spelling);
            }
            return CheckEnumValue(name, v, spellings);
          },
          hidden, group};
}

}  // namespace

Status FlagTable::Apply(const Flags& flags, ExperimentConfig* config) const {
  for (const FlagDef& def : defs_) {
    if (!def.bind) continue;
    if (Status s = def.bind(flags, config); !s.ok()) return s;
  }
  return Status::OK();
}

FlagTable ExperimentFlagTable() {
  using F = const Flags&;
  using C = ExperimentConfig*;
  std::vector<FlagDef> defs;

  defs.push_back(BindEnum(
      "strategy", "hybrid", "applyall|afterall|feedback|piggyback|hybrid",
      "deployment", [](C c) { return &c->deployment.strategy; },
      {{"applyall", SchedulingStrategy::kApplyAll},
       {"afterall", SchedulingStrategy::kAfterAll},
       {"feedback", SchedulingStrategy::kFeedback},
       {"piggyback", SchedulingStrategy::kPiggyback},
       {"hybrid", SchedulingStrategy::kHybrid}}));
  defs.push_back({"alpha", FlagType::kDouble, "1.0",
                  "fraction of templates starting distributed",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"workload", FlagType::kString, "zipf", "zipf|uniform",
                  [](F f, C c) -> Status {
                    if (!f.Has("workload") && !f.Has("alpha")) {
                      return Status::OK();
                    }
                    const double alpha =
                        f.GetDouble("alpha", c->workload_options.spec.alpha);
                    const std::string v = f.GetString("workload", "zipf");
                    if (Status s = CheckEnumValue("workload", v,
                                                  {"zipf", "uniform"});
                        !s.ok()) {
                      return s;
                    }
                    c->workload_options.spec =
                        v == "zipf" ? workload::WorkloadSpec::Zipf(alpha)
                                    : workload::WorkloadSpec::Uniform(alpha);
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back(Bind("templates", "paper", "distinct transaction templates",
                      "workload", [](C c) {
                        return &c->workload_options.spec.num_templates;
                      }));
  defs.push_back(Bind(
      "keys", "paper",
      "tuples in the table (above --sketch_threshold the stack switches to "
      "lazy storage and sketch-based planning)",
      "workload", [](C c) { return &c->workload_options.spec.num_keys; }));
  defs.push_back(Bind(
      "sketch_threshold", "1000000",
      "largest keyspace that keeps the exact per-tuple paths; above it "
      "storage bases go lazy and the planner's graph uses top-k + "
      "count-min sketches with supernodes",
      "planner", [](C c) { return &c->scale.sketch_threshold; }));
  defs.push_back(Bind("sketch_topk", "4096",
                      "hot tuples tracked exactly by the planner in sketch "
                      "mode",
                      "planner", [](C c) { return &c->scale.sketch_topk; }));
  defs.push_back({"load", FlagType::kString, "high",
                  "high|low, or a raw utilisation number",
                  [](F f, C c) -> Status {
                    if (!f.Has("load")) return Status::OK();
                    const std::string v = f.GetString("load");
                    double& u = c->workload_options.utilization;
                    if (v == "high") {
                      u = workload::kHighLoadUtilization;
                    } else if (v == "low") {
                      u = workload::kLowLoadUtilization;
                    } else {
                      try {
                        u = std::stod(v);
                      } catch (...) {
                        return Status::InvalidArgument("bad --load " + v);
                      }
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back(BindEnum(
      "isolation", "readcommitted", "readcommitted|serializable", "cluster",
      [](C c) { return &c->cluster.isolation; },
      {{"readcommitted", cluster::IsolationLevel::kReadCommitted},
       {"serializable", cluster::IsolationLevel::kSerializable}}));
  defs.push_back(BindEnum(
      "cc", "2pl",
      "2pl|mvcc: concurrency control (mvcc = snapshot reads off version "
      "chains, lock-free read path, first-updater-wins write conflicts)",
      "cluster", [](C c) { return &c->cluster.cc; },
      {{"2pl", mvcc::ConcurrencyControl::k2PL},
       {"mvcc", mvcc::ConcurrencyControl::kMvcc}}));
  defs.push_back(Bind("warmup", "10", "warmup intervals", "deployment",
                      [](C c) { return &c->warmup_intervals; }));
  defs.push_back(Bind("intervals", "125", "measured intervals", "deployment",
                      [](C c) { return &c->measured_intervals; }));
  defs.push_back(Bind("sp", "1.05",
                      "feedback setpoint (total/normal cost ratio)",
                      "deployment",
                      [](C c) { return &c->deployment.feedback.sp; }));
  defs.push_back(
      Bind("seed", "1", "RNG seed", "general", [](C c) { return &c->seed; }));
  defs.push_back(Bind(
      "record-trace", "", "save the arrival stream for replay", "workload",
      [](C c) { return &c->workload_options.record_trace_path; }));
  defs.push_back(Bind(
      "replay-trace", "", "drive the run from a recorded trace", "workload",
      [](C c) { return &c->workload_options.replay_trace_path; }));
  defs.push_back(Bind("metrics_out", "",
                      "Prometheus text dump of the run's metrics", "obs",
                      [](C c) { return &c->obs.metrics_out; }));
  defs.push_back(Bind("metrics_jsonl", "",
                      "per-interval JSONL metric snapshots", "obs",
                      [](C c) { return &c->obs.metrics_jsonl_out; }));
  defs.push_back(Bind("trace_out", "", "Chrome trace JSON (Perfetto-loadable)",
                      "obs", [](C c) { return &c->obs.trace_out; }));
  defs.push_back(Bind("trace_sample", "1", "trace every n-th transaction",
                      "obs", [](C c) { return &c->obs.trace_sample; }));
  defs.push_back(Bind("audit_out", "",
                      "decision audit log JSONL (replans, plan ops, deploys)",
                      "obs", [](C c) { return &c->obs.audit_out; }));
  defs.push_back(Bind("timeline_out", "",
                      "per-partition timeline JSONL (load, queues, flows)",
                      "obs", [](C c) { return &c->obs.timeline_out; }));
  defs.push_back(Bind("timeline_interval", "1",
                      "snapshot the timeline every n-th interval", "obs",
                      [](C c) { return &c->obs.timeline_interval; }));
  defs.push_back(Bind("fault_spec", "",
                      "inject faults, e.g. 'crash:node=2,at=120s,down=15s;"
                      "drop:p=0.01' (see EXPERIMENTS.md)",
                      "faults", [](C c) { return &c->fault_options.spec; }));
  defs.push_back(Bind("planner", "off",
                      "enable the online co-access-graph planner", "planner",
                      [](C c) { return &c->planner_options.enabled; }));
  defs.push_back(Bind("replan", "3", "planner replan period in intervals",
                      "planner",
                      [](C c) { return &c->planner_options.replan_period; }));
  defs.push_back(Bind("plan_ops", "2048",
                      "max repartition ops per emitted plan", "planner",
                      [](C c) { return &c->planner_options.builder.max_ops; }));
  defs.push_back(Bind("plan_min_heat", "1",
                      "min co-access weight to move a key", "planner",
                      [](C c) {
                        return &c->planner_options.builder.min_vertex_weight;
                      }));
  defs.push_back({"drift_phases", FlagType::kInt, "3",
                  "number of drift phases",
                  [](F f, C) { return NonNegative(f, "drift_phases"); },
                  /*hidden=*/false, "workload"});
  defs.push_back({"drift_phase_len", FlagType::kInt, "8",
                  "intervals per drift phase",
                  [](F f, C) { return NonNegative(f, "drift_phase_len"); },
                  /*hidden=*/false, "workload"});
  defs.push_back({"pair_fraction", FlagType::kDouble, "0.35",
                  "cross-template paired-txn fraction",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back(Bind(
      "write_fraction", "",
      "fraction of each template's accesses that write", "workload",
      [](C c) { return &c->workload_options.spec.write_fraction; }));
  // After --warmup and --workload: drift rewrites the spec using both.
  defs.push_back({"drift", FlagType::kString, "",
                  "hotspot|skewflip|mixrotation: drifting workload (phases "
                  "start right after warmup)",
                  [](F f, C c) -> Status {
                    const std::string v = f.GetString("drift", "");
                    if (v.empty()) return Status::OK();
                    if (Status s = CheckEnumValue(
                            "drift", v,
                            {"hotspot", "skewflip", "mixrotation"});
                        !s.ok()) {
                      return s;
                    }
                    const auto phases =
                        static_cast<uint32_t>(f.GetInt("drift_phases", 3));
                    const auto phase_len = static_cast<uint32_t>(
                        f.GetInt("drift_phase_len", 8));
                    const double pair = f.GetDouble("pair_fraction", 0.35);
                    workload::WorkloadSpec& spec = c->workload_options.spec;
                    if (v == "hotspot") {
                      spec = workload::WorkloadSpec::HotspotDrift(
                          spec, c->warmup_intervals, phases, phase_len, pair);
                    } else if (v == "skewflip") {
                      spec = workload::WorkloadSpec::SkewFlip(
                          spec, c->warmup_intervals, phases, phase_len,
                          /*high_s=*/1.16, /*low_s=*/0.4, pair);
                    } else {
                      spec = workload::WorkloadSpec::MixRotation(
                          spec, c->warmup_intervals, phases, phase_len, pair);
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"pair_affinity", FlagType::kBool, "off",
                  "hub partner keyed by issuing partition instead of base "
                  "template (stable across popularity rotation); needs "
                  "--pair_hub",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"pair_write", FlagType::kDouble, "0",
                  "probability a paired txn writes its borrowed hub keys "
                  "instead of reading them",
                  nullptr, /*hidden=*/false, "workload"});
  // After --drift: the hub phase stacks on whatever spec is in place.
  defs.push_back({"pair_hub", FlagType::kInt, "0",
                  "pair a --pair_fraction share of txns with one of the N "
                  "hottest templates (shared reference data; 0 = chained "
                  "pairing)",
                  [](F f, C c) -> Status {
                    const int hub = f.GetInt("pair_hub", 0);
                    if (hub <= 0) return Status::OK();
                    workload::DriftPhase phase;
                    phase.start_interval = 0;
                    phase.zipf_s = c->workload_options.spec.zipf_s;
                    phase.pair_fraction = f.GetDouble("pair_fraction", 0.35);
                    phase.pair_hub = static_cast<uint32_t>(hub);
                    phase.pair_affinity = f.GetBool("pair_affinity");
                    phase.pair_write = f.GetDouble("pair_write", 0.0);
                    c->workload_options.spec.phases.push_back(phase);
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"replicas", FlagType::kBool, "off",
                  "primary-copy replication: planner replicates read-heavy "
                  "keys, reads route to the nearest live copy (implies "
                  "--planner)",
                  [](F f, C c) -> Status {
                    if (f.GetBool("replicas")) {
                      c->replicas.enabled = true;
                      c->planner_options.enabled = true;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back(Bind("replica_copies", "2",
                      "total copies per key, primary included", "replica",
                      [](C c) {
                        return &c->planner_options.builder.max_copies;
                      }));
  defs.push_back(Bind(
      "replica_ratio", "3.0",
      "min read/write ratio to replicate instead of migrate", "replica",
      [](C c) { return &c->planner_options.builder.min_read_write_ratio; }));
  defs.push_back(Bind(
      "replica_split", "0.2",
      "min second-partition share of a key's co-access pull to replicate "
      "instead of migrate",
      "replica",
      [](C c) { return &c->planner_options.builder.replica_split_threshold; }));
  defs.push_back({"promotion_delay_ms", FlagType::kInt, "500",
                  "failure-detection delay before replica promotion",
                  [](F f, C c) -> Status {
                    if (f.Has("promotion_delay_ms")) {
                      c->replicas.manager.promotion_delay =
                          Millis(f.GetInt("promotion_delay_ms"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"replica_keep_stale", FlagType::kBool, "off",
                  "keep replicas whose key went cold or write-heavy",
                  [](F f, C c) -> Status {
                    if (f.GetBool("replica_keep_stale")) {
                      c->planner_options.builder.drop_stale_replicas = false;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"lion", FlagType::kBool, "off",
                  "adaptive replica provisioning: budgeted replica cache, "
                  "predictive admission, leader shifting for write-hot keys "
                  "(implies --replicas and --planner)",
                  [](F f, C c) -> Status {
                    if (f.GetBool("lion")) {
                      c->planner_options.builder.lion.enabled = true;
                      c->replicas.enabled = true;
                      c->planner_options.enabled = true;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back({"replica_budget", FlagType::kInt, "1024",
                  "per-partition cap on lion-created replica copies",
                  [](F f, C c) -> Status {
                    if (!f.Has("replica_budget")) return Status::OK();
                    const int64_t budget = f.GetInt("replica_budget");
                    if (budget < 0) return NegativeFlag("replica_budget");
                    c->planner_options.builder.lion.replica_budget =
                        static_cast<uint32_t>(budget);
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back(Bind(
      "shift_threshold", "0.6",
      "share of a key's windowed write mass a replica holder must issue "
      "before leadership shifts onto it",
      "lion",
      [](C c) { return &c->planner_options.builder.lion.shift_threshold; }));
  defs.push_back(BindEnum(
      "evict", "lru", "lru|heat: lion replica eviction when the budget is full",
      "lion", [](C c) { return &c->planner_options.builder.lion.evict; },
      {{"lru", lion::EvictPolicy::kLru}, {"heat", lion::EvictPolicy::kHeat}}));
  defs.push_back(Bind("check", "off",
                      "record the run's history and verify consistency "
                      "(serializability audit + online invariants)",
                      "check", [](C c) { return &c->check.enabled; }));
  defs.push_back(Bind("history_out", "",
                      "JSONL dump of the recorded history (implies --check)",
                      "check", [](C c) { return &c->check.history_out; }));
  // Hidden checker self-test hook: injects exactly one deliberate bug of
  // the named class so tests can prove the checker catches it.
  defs.push_back(BindEnum(
      "check_break", "",
      "replica_apply|double_deploy|lost_write|stale_snapshot|double_primary: "
      "corrupt one apply/observation on purpose (implies --check; testing "
      "only)",
      "check", [](C c) { return &c->check.break_mode; },
      {{"none", check::BreakMode::kNone},
       {"replica_apply", check::BreakMode::kReplicaApply},
       {"double_deploy", check::BreakMode::kDoubleDeploy},
       {"lost_write", check::BreakMode::kLostWrite},
       {"stale_snapshot", check::BreakMode::kStaleSnapshot},
       {"double_primary", check::BreakMode::kDoublePrimary}},
      /*hidden=*/true));
  defs.push_back({"log_level", FlagType::kString, "warn",
                  "debug|info|warn|error",
                  [](F f, C c) -> Status {
                    (void)c;
                    const std::string v = f.GetString("log_level", "");
                    if (v.empty()) return Status::OK();
                    std::optional<LogLevel> level = ParseLogLevel(v);
                    if (!level.has_value()) {
                      return Status::InvalidArgument("unknown --log_level " +
                                                     v);
                    }
                    Logger::Instance().set_level(*level);
                    return Status::OK();
                  },
                  /*hidden=*/false, "general"});
  defs.push_back({"help", FlagType::kBool, "", "this text", nullptr,
                  /*hidden=*/false, "general"});

  return FlagTable(std::move(defs));
}

}  // namespace soap::engine
