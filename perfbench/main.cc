// perfbench_cell: runs one benchmark cell in this process and prints one
// JSON line. run.py starts a fresh process per repetition, so peak RSS
// and cold-start costs belong to exactly one cell.
//
//   perfbench_cell info
//       build provenance (build type, NDEBUG, compiler)
//   perfbench_cell cell [--bench_trace] <experiment flags>
//       one Experiment::Run(); with --bench_trace the program's own
//       counters are on and the per-layer tallies are printed too
//   perfbench_cell setup <experiment flags>
//       the same cell's set-up only (no intervals, no drain or audit), so
//       one run can sample set-up time more often than it runs cells
//   perfbench_cell replay [--spans_out F] <flags>
//       replays the cell's generated stream through the layers' public
//       calls and prints the per-call host costs (replay.h)
//
// Experiment flags are soap_run's (engine::ExperimentFlagTable), plus
// --nodes, which soap_run does not expose.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/engine/experiment.h"
#include "src/engine/flag_table.h"

namespace {

using soap::Flags;
using soap::Status;
using soap::engine::ExperimentConfig;
using soap::engine::ExperimentResult;

/// Builds one flat JSON object, keys in insertion order.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonLine& U64(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += soap::json::Escape(value);
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonLine& Object(const std::string& key, const JsonLine& inner) {
    return Raw(key, inner.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonLine& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of a per-interval series over the measured intervals.
double MeasuredMean(const soap::Series& series, uint32_t warmup) {
  const std::vector<double>& v = series.values();
  if (v.size() <= warmup) return 0.0;
  double sum = 0.0;
  for (size_t i = warmup; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - warmup);
}

JsonLine BuildInfo() {
  JsonLine info;
  info.Str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      .Bool("ndebug", true)
#else
      .Bool("ndebug", false)
#endif
      .Str("compiler", __VERSION__);
  return info;
}

/// Counters the program keeps itself, read after a traced cell.
JsonLine LayerTallies(const ExperimentResult& r, uint32_t warmup) {
  const double committed = static_cast<double>(r.counters.committed_normal);
  auto histogram_p99_ms = [&r](const char* name) {
    const soap::obs::LatencyHistogram* h =
        r.metrics != nullptr ? r.metrics->FindHistogram(name) : nullptr;
    return h != nullptr ? h->PercentileSeconds(99.0) * 1e3 : 0.0;
  };
  const soap::obs::Counter* messages =
      r.metrics != nullptr
          ? r.metrics->FindCounter("soap_network_messages_total")
          : nullptr;
  const soap::obs::LatencyHistogram* plan_build =
      r.metrics != nullptr
          ? r.metrics->FindHistogram("soap_planner_plan_build_seconds")
          : nullptr;
  const soap::check::CheckReport& check = r.check_report;
  JsonLine t;
  t.Num("sim.events_per_txn",
        Ratio(static_cast<double>(r.events_executed), committed))
      .Num("sim.net_messages_per_txn",
           Ratio(messages != nullptr ? static_cast<double>(messages->value())
                                     : 0.0,
                 committed))
      .Num("cluster.queue_wait_p99_ms",
           histogram_p99_ms("soap_txn_queue_wait_seconds"))
      .Num("cluster.util", MeasuredMean(r.utilization, warmup))
      .Num("txn.lock_acquires_per_txn",
           Ratio(static_cast<double>(r.lock_stats.acquires), committed))
      .Num("txn.2pc_protocols_per_txn",
           Ratio(static_cast<double>(r.tpc_stats.protocols_run), committed))
      .U64("txn.2pc_messages", r.tpc_stats.messages)
      .U64("txn.lock_waits", r.lock_stats.waits)
      .Num("txn.lock_wait_p99_ms", histogram_p99_ms("soap_lock_wait_seconds"))
      .U64("txn.lock_timeouts", r.counters.aborts_lock_timeout)
      .U64("txn.deadlocks", r.lock_stats.deadlocks)
      .U64("router.exceptions", r.routing_exceptions)
      .U64("router.bytes", r.routing_bytes)
      .U64("storage.materialized_rows", r.storage_materialized_rows)
      .U64("storage.bytes", r.storage_bytes)
      .U64("core.rep_txns_committed", r.counters.committed_repartition)
      .U64("core.plan_ops_total", r.plan_ops_total)
      .Num("core.ops_applied_ratio",
           Ratio(static_cast<double>(r.plan_ops_applied),
                 static_cast<double>(r.plan_ops_total)))
      .Num("core.piggyback_share",
           Ratio(static_cast<double>(r.piggybacked_ops),
                 static_cast<double>(r.plan_ops_applied)))
      .U64("planner.replans", r.planner_stats.plans_emitted)
      .Num("planner.plan_build_s",
           plan_build != nullptr ? plan_build->sum_seconds() : 0.0)
      .U64("planner.graph_vertices", r.graph_vertices)
      .U64("planner.graph_edges", r.planner_stats.last_graph_edges)
      .U64("planner.graph_bytes", r.graph_bytes)
      .U64("replica.creates", r.planner_stats.replica_creates_emitted)
      .Num("replica.read_frac", Ratio(static_cast<double>(r.replica_reads),
                                      static_cast<double>(r.reads_routed)))
      .U64("lion.predictive", r.planner_stats.predictive_creates)
      .U64("lion.shifts_applied", r.counters.leader_shifts_applied)
      .U64("mvcc.versions_live", r.mvcc_versions_live)
      .U64("mvcc.gc_pruned", r.mvcc_gc_pruned)
      .Num("mvcc.write_conflict_share",
           Ratio(static_cast<double>(r.counters.aborts_write_conflict),
                 static_cast<double>(r.counters.submitted_normal)))
      .U64("check.reads", check.reads_checked + check.snapshot_reads_checked)
      .U64("check.edges", check.ww_edges + check.wr_edges + check.rw_edges)
      .Num("engine.audit_s", r.audit_wall_seconds);
  return t;
}

int RunCell(ExperimentConfig config, bool traced) {
  config.obs.collect_metrics = traced;
  const uint32_t warmup = config.warmup_intervals;
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentResult r = soap::engine::Experiment(std::move(config)).Run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  JsonLine digest;
  digest.U64("events", r.events_executed)
      .U64("committed", r.counters.committed_normal)
      .U64("aborted", r.counters.aborted_normal)
      .U64("end_time", static_cast<uint64_t>(r.end_time))
      .U64("plan_ops_applied", r.plan_ops_applied);
  JsonLine line;
  line.Str("mode", "cell")
      .Bool("traced", traced)
      .Num("wall_s", wall)
      .Num("setup_s", r.load_wall_seconds)
      .Num("peak_rss_mb", PeakRssMb())
      .Object("digest", digest)
      .U64("submitted", r.counters.submitted_normal)
      .U64("plan_ops_total", r.plan_ops_total)
      .U64("piggybacked_ops", r.piggybacked_ops)
      .U64("lock_acquires", r.lock_stats.acquires)
      .Str("audit", r.audit.ToString())
      .Bool("audit_ok", r.audit.ok())
      .Bool("drained", r.drained)
      .Bool("check_enabled", r.check_enabled)
      .U64("check_violations", r.check_report.violations.size())
      .Num("sim_tput_txn_min", MeasuredMean(r.throughput, warmup))
      .Num("sim_p99_ms", MeasuredMean(r.latency_p99_ms, warmup))
      .Num("sim_rep_rate_final",
           r.rep_rate.size() > 0 ? r.rep_rate.values().back() : 0.0);
  if (traced) line.Object("layers", LayerTallies(r, warmup));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int RunSetup(ExperimentConfig config) {
  config.warmup_intervals = 0;
  config.measured_intervals = 0;
  config.drain_and_audit = false;
  const ExperimentResult r = soap::engine::Experiment(std::move(config)).Run();
  JsonLine line;
  line.Str("mode", "setup")
      .Num("setup_s", r.load_wall_seconds)
      .U64("submitted", r.counters.submitted_normal);
  std::printf("%s\n", line.str().c_str());
  return 0;
}

int RunReplay(const ExperimentConfig& config, const Flags& flags) {
  perfbench::ReplayOptions options;
  options.spans_out = flags.GetString("spans_out", "");
  const auto t0 = std::chrono::steady_clock::now();
  const perfbench::ReplayOutcome outcome = perfbench::Replay(config, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  JsonLine metrics;
  for (const auto& [name, value] : outcome.metrics) metrics.Num(name, value);
  JsonLine line;
  line.Str("mode", "replay")
      .Bool("ok", outcome.ok)
      .Str("error", outcome.error)
      .Num("wall_s", wall)
      .U64("txns_generated", outcome.txns_generated)
      .U64("txns_replayed", outcome.txns_replayed)
      .U64("spans", outcome.spans)
      .Object("layers", metrics);
  std::printf("%s\n", line.str().c_str());
  return 0;  // a failed replay is a verdict ("ok": false), not a crash
}

}  // namespace

int main(int argc, char** argv) {
  soap::Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags flags = std::move(parsed).value();
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional().front();
  if (mode == "info") {
    std::printf("%s\n", BuildInfo().str().c_str());
    return 0;
  }
  if (mode != "cell" && mode != "setup" && mode != "replay") {
    std::fprintf(stderr,
                 "usage: perfbench_cell info|cell|setup|replay [flags]\n");
    return 2;
  }

  soap::engine::FlagTable table = soap::engine::ExperimentFlagTable();
  table.Add({"nodes", soap::engine::FlagType::kInt, "5",
             "data nodes (partitions) in the cluster",
             [](const Flags& f, ExperimentConfig* c) -> Status {
               if (f.Has("nodes")) {
                 const int64_t nodes = f.GetInt("nodes", 5);
                 if (nodes < 1) {
                   return Status::InvalidArgument("--nodes must be >= 1");
                 }
                 c->cluster.num_nodes = static_cast<uint32_t>(nodes);
               }
               return Status::OK();
             },
             false, "perfbench"});
  table.Add({"bench_trace", soap::engine::FlagType::kBool, "",
             "collect the program's per-layer counters", nullptr, false,
             "perfbench"});
  table.Add({"spans_out", soap::engine::FlagType::kString, "",
             "replay span CSV path", nullptr, false, "perfbench"});
  ExperimentConfig config;
  Status s = table.CheckUnknown(flags);
  if (s.ok()) s = table.Apply(flags, &config);
  if (s.ok()) s = config.Validate();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (mode == "setup") return RunSetup(std::move(config));
  return mode == "cell" ? RunCell(std::move(config), flags.GetBool("bench_trace"))
                        : RunReplay(config, flags);
}
