#include "src/engine/flag_table.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
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

  defs.push_back({"strategy", FlagType::kString, "hybrid",
                  "applyall|afterall|feedback|piggyback|hybrid",
                  [](F f, C c) -> Status {
                    const std::string v = f.GetString("strategy", "hybrid");
                    if (Status s = CheckEnumValue(
                            "strategy", v,
                            {"applyall", "afterall", "feedback", "piggyback",
                             "hybrid"});
                        !s.ok()) {
                      return s;
                    }
                    if (v == "applyall") {
                      c->deployment.strategy = SchedulingStrategy::kApplyAll;
                    } else if (v == "afterall") {
                      c->deployment.strategy = SchedulingStrategy::kAfterAll;
                    } else if (v == "feedback") {
                      c->deployment.strategy = SchedulingStrategy::kFeedback;
                    } else if (v == "piggyback") {
                      c->deployment.strategy = SchedulingStrategy::kPiggyback;
                    } else {
                      c->deployment.strategy = SchedulingStrategy::kHybrid;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "deployment"});
  defs.push_back({"alpha", FlagType::kDouble, "1.0",
                  "fraction of templates starting distributed",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"workload", FlagType::kString, "zipf", "zipf|uniform",
                  [](F f, C c) -> Status {
                    const double alpha = f.GetDouble("alpha", 1.0);
                    const std::string v = f.GetString("workload", "zipf");
                    if (Status s = CheckEnumValue("workload", v,
                                                  {"zipf", "uniform"});
                        !s.ok()) {
                      return s;
                    }
                    if (v == "zipf") {
                      c->workload_options.spec = workload::WorkloadSpec::Zipf(alpha);
                    } else {
                      c->workload_options.spec = workload::WorkloadSpec::Uniform(alpha);
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"templates", FlagType::kInt, "paper",
                  "distinct transaction templates",
                  [](F f, C c) -> Status {
                    if (f.Has("templates")) {
                      c->workload_options.spec.num_templates =
                          static_cast<uint32_t>(f.GetInt("templates"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"keys", FlagType::kInt, "paper",
                  "tuples in the table (above --sketch_threshold the stack "
                  "switches to lazy storage and sketch-based planning)",
                  [](F f, C c) -> Status {
                    if (f.Has("keys")) {
                      c->workload_options.spec.num_keys =
                          static_cast<uint64_t>(f.GetInt("keys"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"sketch_threshold", FlagType::kInt, "1000000",
                  "largest keyspace that keeps the exact per-tuple paths; "
                  "above it storage bases go lazy and the planner's graph "
                  "uses top-k + count-min sketches with supernodes",
                  [](F f, C c) -> Status {
                    if (f.Has("sketch_threshold")) {
                      c->scale.sketch_threshold =
                          static_cast<uint64_t>(f.GetInt("sketch_threshold"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"sketch_topk", FlagType::kInt, "4096",
                  "hot tuples tracked exactly by the planner in sketch mode",
                  [](F f, C c) -> Status {
                    if (f.Has("sketch_topk")) {
                      c->scale.sketch_topk =
                          static_cast<uint32_t>(f.GetInt("sketch_topk"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"load", FlagType::kString, "high",
                  "high|low, or a raw utilisation number",
                  [](F f, C c) -> Status {
                    const std::string v = f.GetString("load", "high");
                    if (v == "high") {
                      c->workload_options.utilization = workload::kHighLoadUtilization;
                    } else if (v == "low") {
                      c->workload_options.utilization = workload::kLowLoadUtilization;
                    } else {
                      try {
                        c->workload_options.utilization = std::stod(v);
                      } catch (...) {
                        return Status::InvalidArgument("bad --load " + v);
                      }
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"isolation", FlagType::kString, "readcommitted",
                  "readcommitted|serializable",
                  [](F f, C c) -> Status {
                    const std::string v =
                        f.GetString("isolation", "readcommitted");
                    if (Status s = CheckEnumValue(
                            "isolation", v, {"readcommitted", "serializable"});
                        !s.ok()) {
                      return s;
                    }
                    if (v == "serializable") {
                      c->cluster.isolation =
                          cluster::IsolationLevel::kSerializable;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "cluster"});
  defs.push_back({"cc", FlagType::kString, "2pl",
                  "2pl|mvcc: concurrency control (mvcc = snapshot reads "
                  "off version chains, lock-free read path, "
                  "first-updater-wins write conflicts)",
                  [](F f, C c) -> Status {
                    const std::string v = f.GetString("cc", "2pl");
                    if (Status s = CheckEnumValue("cc", v, {"2pl", "mvcc"});
                        !s.ok()) {
                      return s;
                    }
                    if (!mvcc::ParseCc(v, &c->cluster.cc)) {
                      return Status::InvalidArgument("unknown --cc " + v);
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "cluster"});
  defs.push_back({"warmup", FlagType::kInt, "10", "warmup intervals",
                  [](F f, C c) -> Status {
                    c->warmup_intervals =
                        static_cast<uint32_t>(f.GetInt("warmup", 10));
                    return Status::OK();
                  },
                  /*hidden=*/false, "deployment"});
  defs.push_back({"intervals", FlagType::kInt, "125", "measured intervals",
                  [](F f, C c) -> Status {
                    c->measured_intervals =
                        static_cast<uint32_t>(f.GetInt("intervals", 125));
                    return Status::OK();
                  },
                  /*hidden=*/false, "deployment"});
  defs.push_back({"sp", FlagType::kDouble, "1.05",
                  "feedback setpoint (total/normal cost ratio)",
                  [](F f, C c) -> Status {
                    c->deployment.feedback.sp = f.GetDouble("sp", 1.05);
                    return Status::OK();
                  },
                  /*hidden=*/false, "deployment"});
  defs.push_back({"seed", FlagType::kInt, "1", "RNG seed",
                  [](F f, C c) -> Status {
                    c->seed = static_cast<uint64_t>(f.GetInt("seed", 1));
                    return Status::OK();
                  },
                  /*hidden=*/false, "general"});
  defs.push_back({"record-trace", FlagType::kString, "",
                  "save the arrival stream for replay",
                  [](F f, C c) -> Status {
                    c->workload_options.record_trace_path = f.GetString("record-trace", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"replay-trace", FlagType::kString, "",
                  "drive the run from a recorded trace",
                  [](F f, C c) -> Status {
                    c->workload_options.replay_trace_path = f.GetString("replay-trace", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
  defs.push_back({"metrics_out", FlagType::kString, "",
                  "Prometheus text dump of the run's metrics",
                  [](F f, C c) -> Status {
                    c->obs.metrics_out = f.GetString("metrics_out", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"metrics_jsonl", FlagType::kString, "",
                  "per-interval JSONL metric snapshots",
                  [](F f, C c) -> Status {
                    c->obs.metrics_jsonl_out =
                        f.GetString("metrics_jsonl", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"trace_out", FlagType::kString, "",
                  "Chrome trace JSON (Perfetto-loadable)",
                  [](F f, C c) -> Status {
                    c->obs.trace_out = f.GetString("trace_out", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"trace_sample", FlagType::kInt, "1",
                  "trace every n-th transaction",
                  [](F f, C c) -> Status {
                    c->obs.trace_sample =
                        static_cast<uint32_t>(f.GetInt("trace_sample", 1));
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"audit_out", FlagType::kString, "",
                  "decision audit log JSONL (replans, plan ops, deploys)",
                  [](F f, C c) -> Status {
                    c->obs.audit_out = f.GetString("audit_out", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"timeline_out", FlagType::kString, "",
                  "per-partition timeline JSONL (load, queues, flows)",
                  [](F f, C c) -> Status {
                    c->obs.timeline_out = f.GetString("timeline_out", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"timeline_interval", FlagType::kInt, "1",
                  "snapshot the timeline every n-th interval",
                  [](F f, C c) -> Status {
                    c->obs.timeline_interval = static_cast<uint32_t>(
                        f.GetInt("timeline_interval", 1));
                    return Status::OK();
                  },
                  /*hidden=*/false, "obs"});
  defs.push_back({"fault_spec", FlagType::kString, "",
                  "inject faults, e.g. 'crash:node=2,at=120s,down=15s;"
                  "drop:p=0.01' (see EXPERIMENTS.md)",
                  [](F f, C c) -> Status {
                    c->fault_options.spec = f.GetString("fault_spec", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "faults"});
  defs.push_back({"planner", FlagType::kBool, "off",
                  "enable the online co-access-graph planner",
                  [](F f, C c) -> Status {
                    if (f.GetBool("planner")) c->planner_options.enabled = true;
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"replan", FlagType::kInt, "3",
                  "planner replan period in intervals",
                  [](F f, C c) -> Status {
                    if (f.Has("replan")) {
                      c->planner_options.replan_period =
                          static_cast<uint32_t>(f.GetInt("replan"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"plan_ops", FlagType::kInt, "2048",
                  "max repartition ops per emitted plan",
                  [](F f, C c) -> Status {
                    if (f.Has("plan_ops")) {
                      c->planner_options.builder.max_ops =
                          static_cast<uint32_t>(f.GetInt("plan_ops"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"plan_min_heat", FlagType::kInt, "1",
                  "min co-access weight to move a key",
                  [](F f, C c) -> Status {
                    if (f.Has("plan_min_heat")) {
                      c->planner_options.builder.min_vertex_weight =
                          static_cast<uint64_t>(f.GetInt("plan_min_heat"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "planner"});
  defs.push_back({"drift_phases", FlagType::kInt, "3",
                  "number of drift phases",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"drift_phase_len", FlagType::kInt, "8",
                  "intervals per drift phase",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"pair_fraction", FlagType::kDouble, "0.35",
                  "cross-template paired-txn fraction",
                  nullptr, /*hidden=*/false, "workload"});
  defs.push_back({"write_fraction", FlagType::kDouble, "",
                  "fraction of each template's accesses that write",
                  [](F f, C c) -> Status {
                    if (f.Has("write_fraction")) {
                      c->workload_options.spec.write_fraction =
                          f.GetDouble("write_fraction");
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "workload"});
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
                    if (v == "hotspot") {
                      c->workload_options.spec = workload::WorkloadSpec::HotspotDrift(
                          c->workload_options.spec, c->warmup_intervals, phases, phase_len,
                          pair);
                    } else if (v == "skewflip") {
                      c->workload_options.spec = workload::WorkloadSpec::SkewFlip(
                          c->workload_options.spec, c->warmup_intervals, phases, phase_len,
                          /*high_s=*/1.16, /*low_s=*/0.4, pair);
                    } else {
                      c->workload_options.spec = workload::WorkloadSpec::MixRotation(
                          c->workload_options.spec, c->warmup_intervals, phases, phase_len,
                          pair);
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
  defs.push_back({"replica_copies", FlagType::kInt, "2",
                  "total copies per key, primary included",
                  [](F f, C c) -> Status {
                    if (f.Has("replica_copies")) {
                      c->replicas.max_copies =
                          static_cast<uint32_t>(f.GetInt("replica_copies"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"replica_ratio", FlagType::kDouble, "3.0",
                  "min read/write ratio to replicate instead of migrate",
                  [](F f, C c) -> Status {
                    if (f.Has("replica_ratio")) {
                      c->replicas.min_read_write_ratio =
                          f.GetDouble("replica_ratio");
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"replica_split", FlagType::kDouble, "0.2",
                  "min second-partition share of a key's co-access pull "
                  "to replicate instead of migrate",
                  [](F f, C c) -> Status {
                    if (f.Has("replica_split")) {
                      c->replicas.split_threshold =
                          f.GetDouble("replica_split");
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"promotion_delay_ms", FlagType::kInt, "500",
                  "failure-detection delay before replica promotion",
                  [](F f, C c) -> Status {
                    if (f.Has("promotion_delay_ms")) {
                      c->replicas.promotion_delay =
                          Millis(f.GetInt("promotion_delay_ms"));
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "replica"});
  defs.push_back({"replica_keep_stale", FlagType::kBool, "off",
                  "keep replicas whose key went cold or write-heavy",
                  [](F f, C c) -> Status {
                    if (f.GetBool("replica_keep_stale")) {
                      c->replicas.drop_stale_replicas = false;
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
                      c->lion.enabled = true;
                      c->replicas.enabled = true;
                      c->planner_options.enabled = true;
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back({"replica_budget", FlagType::kInt, "1024",
                  "per-partition cap on lion-created replica copies",
                  [](F f, C c) -> Status {
                    if (f.Has("replica_budget")) {
                      c->lion.replica_budget = f.GetInt("replica_budget");
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back({"shift_threshold", FlagType::kDouble, "0.6",
                  "share of a key's windowed write mass a replica holder "
                  "must issue before leadership shifts onto it",
                  [](F f, C c) -> Status {
                    if (f.Has("shift_threshold")) {
                      c->lion.shift_threshold =
                          f.GetDouble("shift_threshold");
                    }
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back({"evict", FlagType::kString, "lru",
                  "lru|heat: lion replica eviction when the budget is full",
                  [](F f, C c) -> Status {
                    const std::string v = f.GetString("evict", "lru");
                    if (Status s =
                            CheckEnumValue("evict", v, {"lru", "heat"});
                        !s.ok()) {
                      return s;
                    }
                    c->lion.evict = v;
                    return Status::OK();
                  },
                  /*hidden=*/false, "lion"});
  defs.push_back({"check", FlagType::kBool, "off",
                  "record the run's history and verify consistency "
                  "(serializability audit + online invariants)",
                  [](F f, C c) -> Status {
                    if (f.GetBool("check")) c->check.enabled = true;
                    return Status::OK();
                  },
                  /*hidden=*/false, "check"});
  defs.push_back({"history_out", FlagType::kString, "",
                  "JSONL dump of the recorded history (implies --check)",
                  [](F f, C c) -> Status {
                    c->check.history_out = f.GetString("history_out", "");
                    return Status::OK();
                  },
                  /*hidden=*/false, "check"});
  // Hidden checker self-test hook: injects exactly one deliberate bug of
  // the named class so tests can prove the checker catches it.
  defs.push_back({"check_break", FlagType::kString, "",
                  "replica_apply|double_deploy|lost_write|stale_snapshot|"
                  "double_primary: corrupt one apply/observation on purpose "
                  "(implies --check; testing only)",
                  [](F f, C c) -> Status {
                    c->check.break_mode = f.GetString("check_break", "");
                    return Status::OK();
                  },
                  /*hidden=*/true, "check"});
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
