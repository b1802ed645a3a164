// Experiment engine: reproduces the paper's evaluation procedure (§4.1).
// Time is divided into 20-second intervals; a Poisson number of normal
// transactions is submitted at the beginning of each interval; the system
// warms up for 10 intervals, then the repartitioning starts; the run lasts
// 45 minutes of virtual time. Per interval it records the four series the
// paper plots: RepRate, throughput (txn/min), processing latency (ms) and
// transaction failure rate.

#ifndef SOAP_ENGINE_EXPERIMENT_H_
#define SOAP_ENGINE_EXPERIMENT_H_

#include <memory>
#include <string>

#include "src/check/break_mode.h"
#include "src/check/checker.h"
#include "src/common/series.h"
#include "src/common/status.h"
#include "src/core/soap.h"
#include "src/obs/audit_log.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/txn_tracer.h"
#include "src/planner/planner.h"
#include "src/replica/replica_manager.h"
#include "src/txn/two_phase_commit.h"

namespace soap::engine {

/// Mid-run capacity disturbance: an external tenant steals `fraction` of
/// one node's workers between two interval boundaries. Exercises the
/// §3.3 adaptivity story — the feedback controller must absorb capacity
/// variations it cannot predict.
struct Disturbance {
  bool enabled = false;
  uint32_t node = 0;
  uint32_t start_interval = 0;
  uint32_t end_interval = 0;
  /// Fraction of the node's total worker capacity consumed (0, 1].
  double fraction = 0.5;
};

/// Observability outputs (see EXPERIMENTS.md, "Observability"). All off by
/// default; a disabled run takes no instrumentation path beyond cheap
/// null-pointer checks, so its results are identical to the seed's.
struct ObsOptions {
  /// Keep a MetricsRegistry on the result even without file outputs
  /// (tests and benches inspect it directly).
  bool collect_metrics = false;
  /// Keep the TxnTracer on the result even without trace_out.
  bool collect_trace = false;
  /// Prometheus text dump written once after the run (empty: off).
  std::string metrics_out;
  /// Per-interval JSONL snapshots, one object per closed interval
  /// (empty: off).
  std::string metrics_jsonl_out;
  /// Chrome trace-event JSON, loadable by Perfetto / chrome://tracing
  /// (empty: off).
  std::string trace_out;
  /// Trace every n-th transaction id (1 = all). Applies whenever tracing
  /// is on; 0 disables tracing even if trace_out is set.
  uint32_t trace_sample = 1;
  /// Keep the decision AuditLog on the result even without audit_out.
  bool collect_audit = false;
  /// Keep the per-partition Timeline on the result even without
  /// timeline_out.
  bool collect_timeline = false;
  /// Decision audit log (planner replans, per-candidate plan ops, deploy
  /// lifecycle, promotions/catch-ups, system-txn aborts) as JSONL
  /// (empty: off). Virtual-time only: byte-identical across thread
  /// counts and machines.
  std::string audit_out;
  /// Per-partition timeline snapshots as JSONL (empty: off). Implies
  /// metrics collection (the lock-wait window needs the TM histogram).
  std::string timeline_out;
  /// Snapshot every n-th closed interval (1 = every interval; 0 is
  /// rejected by Validate when a timeline is requested).
  uint32_t timeline_interval = 1;

  bool TraceEnabled() const {
    return trace_sample > 0 && (collect_trace || !trace_out.empty());
  }
  bool AuditEnabled() const { return collect_audit || !audit_out.empty(); }
  bool TimelineEnabled() const {
    return timeline_interval > 0 &&
           (collect_timeline || !timeline_out.empty());
  }
  bool MetricsEnabled() const {
    return collect_metrics || !metrics_out.empty() ||
           !metrics_jsonl_out.empty() || TimelineEnabled();
  }
};

/// Workload sub-config: what arrives, how much of it, and the trace
/// machinery that can capture or replace the generated stream.
struct WorkloadOptions {
  workload::WorkloadSpec spec = workload::WorkloadSpec::Zipf(1.0);
  /// Offered load relative to pre-repartitioning capacity: 1.30 HighLoad,
  /// 0.65 LowLoad (§4.1).
  double utilization = workload::kHighLoadUtilization;
  /// Sliding window (intervals) for the optimizer's frequency estimates.
  uint32_t history_window = 10;
  /// Record the generated arrival stream to this trace file (empty: off).
  std::string record_trace_path;
  /// Replay arrivals from this trace file instead of generating them
  /// (empty: generate). The trace must fit the catalog's template count.
  std::string replay_trace_path;
};

/// Deployment sub-config: which of the five strategies schedules the
/// repartition plan and how it is tuned.
struct DeploymentOptions {
  SchedulingStrategy strategy = SchedulingStrategy::kHybrid;
  core::FeedbackConfig feedback;      ///< SP per Table 1
  core::PiggybackConfig piggyback;
  /// Algorithm 1's grouping by default; the extremes for the ablation.
  core::PackagingMode packaging = core::PackagingMode::kPerBenefitingTemplate;
};

/// Fault sub-config: injected failures plus the capacity disturbance.
struct FaultOptions {
  /// Fault-injection spec (see src/fault/fault_spec.h for the grammar;
  /// EXPERIMENTS.md "Fault injection" for examples). Empty disables the
  /// fault layer entirely: the run is byte-identical to one built without
  /// it.
  std::string spec;
  Disturbance disturbance;
};

/// End-to-end consistency checking (src/check/). Off by default; off means
/// no recorder is attached, every hook in the hot path is one untaken
/// branch, and the run stays byte-identical to the seed. On, the run
/// records its full read/write history, verifies it offline after the
/// drain (serializability rules per the configured isolation level), and
/// sweeps the online invariants at the quiescent point.
struct CheckOptions {
  bool enabled = false;
  /// JSONL dump of the recorded history (empty: off; implies enabled).
  std::string history_out;
  /// Deliberate-corruption mode (kNone: off; anything else implies
  /// enabled). Used by tests to prove the checker detects each bug class.
  check::BreakMode break_mode = check::BreakMode::kNone;

  bool Enabled() const {
    return enabled || !history_out.empty() ||
           break_mode != check::BreakMode::kNone;
  }
};

/// Online co-access-graph planner (src/planner/). Disabled by default:
/// the planner is then never constructed, the one-shot optimizer plan
/// deploys at the end of warmup as always, and the run stays
/// byte-identical to the static pipeline. Replica planning thresholds
/// (`builder.max_copies`, `min_read_write_ratio`,
/// `replica_split_threshold`, `drop_stale_replicas`) and Lion-style
/// adaptive provisioning (`builder.lion`: budgeted replica cache plus
/// leader shifting; requires `replicas.enabled` and `enabled`) are set
/// here and nowhere else.
using PlannerOptions = planner::PlannerConfig;

/// Primary-copy replication (src/replica/). Off by default; off means no
/// replica is ever created, every replica-aware branch is a no-op, and
/// the run is byte-identical to a build without the subsystem. On, the
/// planner plans replicas for read-heavy keys (`replicate_read_heavy`
/// follows this switch) with the thresholds in
/// `planner_options.builder`.
struct ReplicaOptions {
  bool enabled = false;
  /// Failover delay and catch-up sweep costs of the ReplicaManager.
  replica::ReplicaManagerConfig manager;
};

/// Production-cardinality scale-out knobs. Below the threshold everything
/// runs the exact paper-scale paths (byte-identical to the seed); above
/// it the stack flips to its sublinear representations: lazy storage
/// bases, a sketch-backed co-access graph, and supernode aggregation of
/// the cold tail.
struct ScaleOptions {
  /// Keyspaces up to this many tuples stay fully exact. 0 forces sketch
  /// mode at any size (testing only).
  uint64_t sketch_threshold = 1'000'000;
  /// Hot tuples tracked exactly by the planner in sketch mode.
  uint32_t sketch_topk = 4096;
  /// Cold-tail supernode ranges in sketch mode.
  uint32_t supernode_ranges = 1024;
};

/// Full configuration of one experiment run, grouped into cohesive
/// sub-structs. (The pre-split flat field names were reference aliases
/// for one release; all call sites now address the sub-structs.)
struct ExperimentConfig {
  WorkloadOptions workload_options;
  cluster::ClusterConfig cluster;
  uint32_t warmup_intervals = 10;
  uint32_t measured_intervals = 125;  ///< 10 + 125 intervals = 45 min
  Duration interval_length = Seconds(20);
  DeploymentOptions deployment;
  FaultOptions fault_options;
  PlannerOptions planner_options;
  ReplicaOptions replicas;
  ScaleOptions scale;
  CheckOptions check;
  ObsOptions obs;
  /// After the last interval: stop submitting and run the system dry, then
  /// audit storage/routing consistency.
  bool drain_and_audit = true;
  Duration drain_cap = Minutes(30);
  uint64_t seed = 1;

  /// Rejects inconsistent combinations (replaying a trace while drift
  /// phases are configured, tracing to a file with sampling off, replica
  /// settings that cannot fit the cluster, malformed fault specs, ...)
  /// instead of silently misbehaving. Run() validates; CLI frontends call
  /// this early to fail before building the stack.
  Status Validate() const;
};

struct ExperimentResult {
  std::string strategy_name;
  /// Per-interval series over all intervals (warmup included; the
  /// repartitioning starts at interval `warmup_intervals`).
  Series rep_rate{"rep_rate"};
  Series throughput{"throughput_txn_min"};    ///< committed normal txn/min
  Series latency_ms{"latency_ms"};            ///< mean, committed normal
  Series latency_p99_ms{"latency_p99_ms"};    ///< p99, committed normal
  Series failure_rate{"failure_rate"};        ///< aborted / submitted
  Series queue_length{"queue_length"};        ///< TM queue at interval end
  Series utilization{"utilization"};          ///< worker busy fraction
  /// Repartition work / normal work per interval — the PV the feedback
  /// controller stabilises (§3.3); compare against Table 1's SP - 1.
  Series rep_work_ratio{"rep_work_ratio"};
  /// Fraction of committed normal transactions whose queries spanned >1
  /// partition — the objective the (online or one-shot) plan minimises.
  Series distributed_ratio{"distributed_ratio"};
  /// Fraction of committed writing transactions whose writes fanned out to
  /// more than one storage site (remote query or HA write-through) — the
  /// metric lion's leader shifting drives down for write-hot keys.
  Series distributed_write_ratio{"distributed_write_ratio"};

  double arrival_rate_txn_s = 0.0;   ///< calibrated Poisson rate
  double capacity_txn_s = 0.0;       ///< collocated-only capacity
  uint64_t plan_ops_total = 0;
  uint64_t plan_ops_applied = 0;
  uint64_t piggybacked_ops = 0;
  cluster::TmCounters counters;      ///< final cumulative counters
  txn::LockStats lock_stats;
  /// Fault-layer tallies; all zero unless `fault_spec` was set.
  uint64_t faults_crashes = 0;
  uint64_t faults_msgs_dropped = 0;
  uint64_t faults_msgs_parked = 0;
  txn::TpcStats tpc_stats;
  /// Online-planner tallies; all zero unless `planner.enabled` was set.
  planner::PlannerStats planner_stats;
  /// True when lion adaptive provisioning ran
  /// (`planner_options.builder.lion.enabled`).
  bool lion_enabled = false;
  /// Replication tallies; all zero unless `replicas.enabled` was set.
  bool replicas_enabled = false;
  replica::ReplicaStats replica_stats;
  uint64_t reads_routed = 0;          ///< read queries routed (replica mode)
  uint64_t replica_reads = 0;         ///< of those, served by a non-primary
  uint64_t replica_count_final = 0;   ///< keys with >=1 replica at end of run
  /// Per-interval fraction of routed reads served by replicas.
  Series replica_read_ratio{"replica_read_ratio"};
  /// Plan generations deployed (1 for the static one-shot pipeline).
  uint64_t plan_generations = 0;
  /// Consistency-checker outputs; defaults unless `check` was enabled.
  bool check_enabled = false;
  /// Offline history verdict merged with the online invariant sweep.
  check::CheckReport check_report;
  /// Online invariant checks evaluated (sweeps + lifecycle hooks).
  uint64_t invariant_checks = 0;
  /// Deliberate corruptions injected by --check_break (0 or 1).
  uint64_t check_breaks_fired = 0;
  /// MVCC engine tallies (--cc=mvcc); all zero under 2PL.
  bool mvcc_enabled = false;
  uint64_t mvcc_versions_live = 0;
  uint64_t mvcc_gc_pruned = 0;
  Status audit = Status::OK();       ///< end-of-run consistency audit
  bool drained = false;
  bool plan_completed = false;
  SimTime end_time = 0;
  uint64_t events_executed = 0;
  /// Wall-clock spent in the two one-time O(keyspace) phases of Run():
  /// stack construction through bulk load + checkpoint, and the end-of-run
  /// consistency audit. Purely observational (never fed back into the
  /// simulation); lets scaling benches separate steady-state event rate
  /// from setup/teardown that a long horizon amortises away.
  double load_wall_seconds = 0.0;
  double audit_wall_seconds = 0.0;
  /// End-of-run control-plane footprint (rough heap estimates for the
  /// scaling reports, not allocator-exact): the routing table, the online
  /// planner's co-access graph (0 when the planner is off), and the sum
  /// over all node tables, plus their cardinalities.
  uint64_t routing_bytes = 0;
  uint64_t routing_ranges = 0;
  uint64_t routing_exceptions = 0;
  uint64_t graph_bytes = 0;
  uint64_t graph_vertices = 0;
  uint64_t storage_bytes = 0;
  /// Rows actually held in memory; lazy tables synthesize the rest.
  uint64_t storage_materialized_rows = 0;

  /// Observability artifacts; null unless the matching ObsOptions switch
  /// was on. shared_ptr because results get copied into panel vectors.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TxnTracer> tracer;
  std::shared_ptr<obs::AuditLog> audit_log;
  std::shared_ptr<obs::Timeline> timeline;
  /// Aggregated phase times of the traced transactions (zeros when
  /// tracing was off).
  obs::CriticalPathBreakdown critical_path;
  /// First failure among the metrics/trace file writes (OK when all
  /// succeeded or nothing was written).
  Status obs_export = Status::OK();

  /// Interval index at which RepRate first reached ~1 (-1 if never).
  int RepartitionCompletedAt() const {
    return rep_rate.FirstIndexAtLeast(0.999);
  }
  /// Human-readable one-paragraph summary.
  std::string Summary() const;
};

/// Builds the full stack for one configuration and runs it to completion.
/// Deterministic given the config (including seed).
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  /// Runs the experiment; may be called once.
  ExperimentResult Run();

  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
  bool ran_ = false;
};

/// Convenience: builds the scheduler for a strategy.
std::unique_ptr<core::Scheduler> MakeScheduler(
    SchedulingStrategy strategy, const core::FeedbackConfig& feedback,
    const core::PiggybackConfig& piggyback);

}  // namespace soap::engine

#endif  // SOAP_ENGINE_EXPERIMENT_H_
