#include "src/engine/experiment.h"

#include <cassert>
#include <chrono>
#include <optional>
#include <sstream>

#include "src/check/history_recorder.h"
#include "src/check/invariants.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/fault/fault_injector.h"
#include "src/workload/trace.h"

namespace soap::engine {

std::unique_ptr<core::Scheduler> MakeScheduler(
    SchedulingStrategy strategy, const core::FeedbackConfig& feedback,
    const core::PiggybackConfig& piggyback) {
  switch (strategy) {
    case SchedulingStrategy::kApplyAll:
      return std::make_unique<core::ApplyAllScheduler>();
    case SchedulingStrategy::kAfterAll:
      return std::make_unique<core::AfterAllScheduler>();
    case SchedulingStrategy::kFeedback:
      return std::make_unique<core::FeedbackScheduler>(feedback);
    case SchedulingStrategy::kPiggyback:
      return std::make_unique<core::PiggybackScheduler>(piggyback);
    case SchedulingStrategy::kHybrid: {
      core::HybridConfig config;
      config.feedback = feedback;
      config.piggyback = piggyback;
      return std::make_unique<core::HybridScheduler>(config);
    }
  }
  return nullptr;
}

Status ExperimentConfig::Validate() const {
  if (interval_length <= 0) {
    return Status::InvalidArgument("interval_length must be positive");
  }
  if (workload_options.utilization <= 0.0) {
    return Status::InvalidArgument("utilization must be positive");
  }
  if (workload_options.history_window == 0) {
    return Status::InvalidArgument("history_window must be at least 1");
  }
  // Trace machinery: replaying fixes the arrival stream, so configuring
  // drift phases alongside it would silently have no effect.
  if (!workload_options.replay_trace_path.empty() &&
      !workload_options.spec.phases.empty()) {
    return Status::InvalidArgument(
        "replay_trace_path replays a fixed arrival stream; drift phases "
        "would be ignored — clear one of them");
  }
  if (!workload_options.replay_trace_path.empty() &&
      !workload_options.record_trace_path.empty()) {
    return Status::InvalidArgument(
        "record_trace_path and replay_trace_path are mutually exclusive");
  }
  if (!obs.trace_out.empty() && obs.trace_sample == 0) {
    return Status::InvalidArgument(
        "trace_out is set but trace_sample=0 disables tracing — nothing "
        "would be written");
  }
  if (!obs.timeline_out.empty() && obs.timeline_interval == 0) {
    return Status::InvalidArgument(
        "timeline_out is set but timeline_interval=0 disables timeline "
        "snapshots — nothing would be written");
  }
  if (fault_options.disturbance.enabled) {
    const Disturbance& d = fault_options.disturbance;
    if (d.fraction <= 0.0 || d.fraction > 1.0) {
      return Status::InvalidArgument(
          "disturbance.fraction must be in (0, 1]");
    }
    if (d.start_interval >= d.end_interval) {
      return Status::InvalidArgument(
          "disturbance window is empty (start_interval >= end_interval)");
    }
    if (d.node >= cluster.num_nodes) {
      return Status::InvalidArgument("disturbance.node is out of range");
    }
  }
  if (!fault_options.spec.empty()) {
    Result<fault::FaultSpec> parsed = fault::FaultSpec::Parse(
        fault_options.spec);
    if (!parsed.ok()) return parsed.status();
  }
  const planner::PlanBuilderConfig& builder = planner_options.builder;
  if (replicas.enabled) {
    if (builder.max_copies < 2) {
      return Status::InvalidArgument(
          "planner.builder.max_copies counts the primary; at least 2 is "
          "needed for one replica");
    }
    if (builder.max_copies > cluster.num_nodes) {
      return Status::InvalidArgument(
          "planner.builder.max_copies exceeds the cluster size");
    }
    if (builder.min_read_write_ratio <= 0.0) {
      return Status::InvalidArgument(
          "planner.builder.min_read_write_ratio must be positive");
    }
    if (builder.replica_split_threshold <= 0.0 ||
        builder.replica_split_threshold >= 1.0) {
      return Status::InvalidArgument(
          "planner.builder.replica_split_threshold must be in (0, 1)");
    }
    if (replicas.manager.promotion_delay < 0) {
      return Status::InvalidArgument(
          "replicas.manager.promotion_delay must be non-negative");
    }
  }
  if (builder.lion.shift_threshold <= 0.0 ||
      builder.lion.shift_threshold > 1.0) {
    return Status::InvalidArgument(
        "planner.builder.lion.shift_threshold must be in (0, 1]");
  }
  if (builder.lion.enabled) {
    if (!replicas.enabled) {
      return Status::InvalidArgument(
          "lion requires replicas.enabled (adaptive provisioning manages "
          "replica copies)");
    }
    if (!planner_options.enabled) {
      return Status::InvalidArgument(
          "lion requires planner.enabled (provisioning decisions ride the "
          "online replan cycle)");
    }
  }
  if (check.break_mode == check::BreakMode::kReplicaApply &&
      !replicas.enabled) {
    return Status::InvalidArgument(
        "--check_break=replica_apply needs replicas enabled: without them "
        "there is no replica apply path to corrupt");
  }
  if (check.break_mode == check::BreakMode::kStaleSnapshot &&
      cluster.cc != mvcc::ConcurrencyControl::kMvcc) {
    return Status::InvalidArgument(
        "--check_break=stale_snapshot needs --cc=mvcc: without snapshot "
        "reads there is no snapshot observation to corrupt");
  }
  if (check.break_mode == check::BreakMode::kDoublePrimary &&
      !builder.lion.enabled) {
    return Status::InvalidArgument(
        "--check_break=double_primary needs --lion: without leader "
        "shifts there is no primary swap to corrupt");
  }
  return Status::OK();
}

namespace {

// The cluster a run builds. num_keys and seed repeat the workload's and
// the run's own values because perfbench's replay builds its cluster the
// same way; above the sketch threshold the tables go lazy.
cluster::ClusterConfig ClusterConfigFor(const ExperimentConfig& config) {
  cluster::ClusterConfig cluster_config = config.cluster;
  cluster_config.num_keys = config.workload_options.spec.num_keys;
  cluster_config.seed = config.seed;
  cluster_config.lazy_tables =
      config.workload_options.spec.num_keys > config.scale.sketch_threshold;
  return cluster_config;
}

// Latency of the committed normal transactions since the last interval
// boundary.
struct IntervalAccum {
  double latency_sum_ms = 0.0;
  uint64_t latency_count = 0;
  Histogram latency_histogram;  // microseconds
};

// Everything one run builds, in dependency order: a member may point at
// the members above it. The phase functions below share it;
// Experiment::Run owns it for the length of one run, so every hook and
// scheduled event that captures it fires while it is alive.
struct Stack {
  explicit Stack(const ExperimentConfig& c)
      : config(c),
        cluster(&sim, ClusterConfigFor(c)),
        tm(&cluster),
        catalog(c.workload_options.spec, cluster.num_nodes()),
        history(static_cast<uint32_t>(catalog.size()),
                c.workload_options.history_window),
        repartitioner(&cluster, &tm, &catalog, &history,
                      MakeScheduler(c.deployment.strategy,
                                    c.deployment.feedback,
                                    c.deployment.piggyback),
                      repartition::OptimizerConfig{}, c.deployment.packaging),
        generator(&catalog, c.seed * 7919 + 13),
        recovery_epoch(cluster.num_nodes(), 0) {}

  const ExperimentConfig& config;
  sim::Simulator sim;
  cluster::Cluster cluster;
  cluster::TransactionManager tm;
  workload::TemplateCatalog catalog;
  workload::WorkloadHistory history;
  core::Repartitioner repartitioner;
  workload::WorkloadGenerator generator;
  workload::WorkloadTrace record_trace;

  // Optional subsystems; null while their switch is off.
  std::unique_ptr<check::HistoryRecorder> recorder;
  std::unique_ptr<check::InvariantEngine> invariants;
  std::unique_ptr<replica::ReplicaManager> replica_mgr;
  std::unique_ptr<planner::Planner> planner;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TxnTracer> tracer;
  std::shared_ptr<obs::AuditLog> audit_log;
  std::shared_ptr<obs::Timeline> timeline;
  std::ostringstream metrics_jsonl;
  std::unique_ptr<fault::FaultInjector> injector;
  // Per-node recovery generation: a node that crashes again while its
  // recovery replay is still in flight invalidates that replay — the new
  // restart runs replay again from the checkpoint image, and only the
  // completion whose epoch matches fires the restart hooks. (The replay
  // job itself is vaporised by Crash(); the epoch makes the protocol
  // robust even if a completion were ever delivered late.)
  std::vector<uint64_t> recovery_epoch;

  // Interval-boundary state: CloseInterval reports the change since the
  // previous boundary, then advances it.
  IntervalAccum accum;
  cluster::TmCounters prev_counters;
  Duration prev_normal_work = 0;
  Duration prev_rep_work = 0;
  SimTime prev_boundary = 0;
  uint64_t prev_reads_routed = 0;
  uint64_t prev_replica_reads = 0;
  // Timeline window state, sized by WireObs when the timeline is on.
  obs::HistogramWindow lock_wait_window;
  std::vector<Duration> prev_node_busy;
  obs::PartitionFlows prev_flows;
  SimTime timeline_prev_tick = 0;
};

// Bulk load and checkpoint. The routing base is num_nodes round-robin
// ranges over the whole keyspace (key % nodes — the catalog's default
// placement); only keys whose initial partition differs end up as point
// exceptions.
void Load(Stack& s) {
  const uint64_t num_keys = s.config.workload_options.spec.num_keys;
  cluster::Cluster& cluster = s.cluster;
  {
    Status base = cluster.routing_table().AssignRoundRobin(
        0, num_keys, cluster.num_nodes());
    assert(base.ok());
    (void)base;
  }
  if (!cluster.config().lazy_tables) {
    // Exact bulk load, tuple by tuple. SetPrimary absorbs keys that sit on
    // their round-robin partition, so the routing table ends up with the
    // same placements as the historical dense load.
    for (uint64_t key = 0; key < num_keys; ++key) {
      storage::Tuple tuple;
      tuple.key = key;
      tuple.content = static_cast<int64_t>(key);
      Status st = cluster.LoadTuple(tuple, s.catalog.InitialPartitionOf(key));
      assert(st.ok());
      (void)st;
    }
  } else {
    // Lazy bulk load: each node's round-robin base is already virtually
    // present (Table::SetLazyBase), so only the catalog's overrides move —
    // evict from the arithmetic home, land on the assigned partition.
    s.catalog.ForEachInitialOverride(
        [&](storage::TupleKey key, uint32_t partition) {
          cluster.storage(static_cast<uint32_t>(key % cluster.num_nodes()))
              .BulkEvict(key);
          storage::Tuple tuple;
          tuple.key = key;
          tuple.content = static_cast<int64_t>(key);
          Status st = cluster.LoadTuple(tuple, partition);
          assert(st.ok());
          (void)st;
        });
  }
  cluster.CheckpointAll();  // seal the load base: WALs stay replayable
}

// Consistency checking, replication and the online planner; each is off
// by default and installs nothing when off (see CheckOptions,
// ReplicaOptions, PlannerOptions).
void WireSubsystems(Stack& s) {
  const ExperimentConfig& config = s.config;
  // The recorder observes every storage apply and TM lifecycle event; the
  // invariant engine sweeps cluster-wide structure at quiescent points.
  if (config.check.Enabled()) {
    s.recorder = std::make_unique<check::HistoryRecorder>();
    s.recorder->set_clock([&s]() { return s.sim.Now(); });
    for (uint32_t p = 0; p < s.cluster.num_nodes(); ++p) {
      s.cluster.storage(p).set_observer(s.recorder.get());
    }
    s.tm.set_history(s.recorder.get());
    s.tm.set_check_break(config.check.break_mode);
    s.cluster.routing_table().EnableEpochTracking();
    s.invariants = std::make_unique<check::InvariantEngine>(
        &s.cluster, s.recorder.get());
  }

  // With replicas the planner creates copies, which the TM ships writes
  // to and routes reads to, and crashes trigger the failover/catch-up
  // protocol in ReplicaManager.
  if (config.replicas.enabled) {
    s.replica_mgr = std::make_unique<replica::ReplicaManager>(
        &s.cluster, config.replicas.manager);
    // A restarted node's surviving replicas may lag the primary until its
    // catch-up sweep finishes; routing such nodes as down keeps reads on
    // copies that are at least as fresh. (The node's own primaries are
    // exact — WAL replay restored them — so writes are unaffected, and
    // the router falls back to the primary if every replica is out.)
    s.cluster.router().set_down_probe(
        [&cluster = s.cluster,
         rm = s.replica_mgr.get()](router::PartitionId p) {
          return cluster.node(p).down() || rm->IsStale(p);
        });
    if (s.invariants != nullptr) {
      s.invariants->set_stale_probe([rm = s.replica_mgr.get()](uint32_t n) {
        return rm->IsStale(n);
      });
      s.replica_mgr->set_promotion_hook(
          [&sim = s.sim, inv = s.invariants.get()](storage::TupleKey key,
                                                   uint32_t np) {
            inv->OnPromotion(key, np, sim.Now());
          });
    }
  }

  // The online planner replaces the one-shot optimizer plan with
  // continuous co-access-graph replanning.
  if (config.planner_options.enabled) {
    planner::PlannerConfig pc = config.planner_options;
    if (pc.first_plan_interval == 0) {
      pc.first_plan_interval = config.warmup_intervals;
    }
    if (pc.replan_period == 0) pc.replan_period = 1;
    // Scale knobs flow into the co-access graph; at paper scale
    // (num_keys <= threshold) the graph stays on its exact path.
    pc.graph.num_keys = config.workload_options.spec.num_keys;
    pc.graph.sketch_threshold = config.scale.sketch_threshold;
    pc.graph.sketch_topk = config.scale.sketch_topk;
    pc.graph.supernode_ranges = config.scale.supernode_ranges;
    // Read-heavy keys get replicas instead of migrations exactly when the
    // transaction layer maintains copies.
    pc.builder.replicate_read_heavy = config.replicas.enabled;
    s.planner = std::make_unique<planner::Planner>(
        &s.catalog, &s.cluster.routing_table(), &s.repartitioner, pc);
  }
  if (s.invariants != nullptr && config.planner_options.builder.lion.enabled) {
    // Every applied leader shift is checked on the spot: exactly one
    // primary, no doubled placement entry, epoch advanced.
    s.tm.set_leader_shift_hook(
        [&sim = s.sim, inv = s.invariants.get()](storage::TupleKey key,
                                                 uint32_t np) {
          inv->OnLeaderShift(key, np, sim.Now());
        });
  }
}

// Observability sinks (off by default; see ObsOptions).
void WireObs(Stack& s) {
  const ExperimentConfig& config = s.config;
  const ObsOptions& obs = config.obs;
  if (obs.MetricsEnabled()) {
    s.metrics = std::make_shared<obs::MetricsRegistry>();
    s.cluster.BindMetrics(s.metrics.get());
    s.tm.BindMetrics(s.metrics.get());
    s.repartitioner.BindMetrics(s.metrics.get());
    if (s.planner != nullptr) s.planner->BindMetrics(s.metrics.get());
    if (s.replica_mgr != nullptr) s.replica_mgr->BindMetrics(s.metrics.get());
  }
  if (obs.TraceEnabled()) {
    obs::TxnTracer::Config tracer_config;
    tracer_config.sample_every = obs.trace_sample;
    s.tracer = std::make_shared<obs::TxnTracer>(tracer_config);
    s.tm.set_tracer(s.tracer.get());
    s.cluster.set_tracer(s.tracer.get());
  }
  if (s.metrics != nullptr) s.cluster.router().BindMetrics(s.metrics.get());
  if (obs.AuditEnabled()) {
    s.audit_log = std::make_shared<obs::AuditLog>();
    s.repartitioner.BindAudit(s.audit_log.get());
    if (s.planner != nullptr) s.planner->BindAudit(s.audit_log.get(), &s.sim);
    if (s.replica_mgr != nullptr) s.replica_mgr->set_audit(s.audit_log.get());
    if (s.invariants != nullptr) s.invariants->set_audit(s.audit_log.get());
    // Header record: enough run context to read the file standalone.
    obs::AuditRecord rec(s.audit_log.get(), "run_meta", s.sim.Now());
    rec.U64("seed", config.seed)
        .Str("strategy", StrategyName(config.deployment.strategy))
        .U64("nodes", s.cluster.num_nodes())
        .U64("keys", config.workload_options.spec.num_keys)
        .U64("warmup_intervals", config.warmup_intervals)
        .U64("measured_intervals", config.measured_intervals)
        .I64("interval_us", config.interval_length)
        .Bool("planner", config.planner_options.enabled)
        .Bool("replicas", config.replicas.enabled);
  }
  if (obs.TimelineEnabled()) {
    s.timeline = std::make_shared<obs::Timeline>();
    s.timeline->flows()->Resize(s.cluster.num_nodes());
    s.tm.set_partition_flows(s.timeline->flows());
    s.prev_node_busy.assign(s.cluster.num_nodes(), 0);
    s.prev_flows.Resize(s.cluster.num_nodes());
  }
}

// Fault injection (off unless a spec was given; with no spec the run
// schedules no fault events and draws no fault randomness, so it stays
// byte-identical to a build without the fault layer).
void WireFaults(Stack& s) {
  const ExperimentConfig& config = s.config;
  if (config.fault_options.spec.empty()) return;
  // Validate() already parsed the spec once.
  const fault::FaultSpec spec =
      fault::FaultSpec::Parse(config.fault_options.spec).value();
  // Separate streams for message faults, 2PC jitter and repartition
  // backoff so changing one spec clause does not shift the others.
  const uint64_t fseed =
      spec.seed != 0
          ? spec.seed
          : config.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  s.injector = std::make_unique<fault::FaultInjector>(&s.sim, spec, fseed);
  fault::FaultInjector* injector = s.injector.get();
  s.cluster.network().set_fault_hooks(injector);

  txn::TpcFaultConfig tpc_cfg;
  tpc_cfg.enabled = true;
  tpc_cfg.prepare_timeout = spec.tpc.prepare_timeout;
  tpc_cfg.ack_timeout = spec.tpc.ack_timeout;
  tpc_cfg.max_resends = spec.tpc.max_resends;
  tpc_cfg.backoff = spec.tpc.backoff;
  tpc_cfg.jitter = spec.tpc.jitter;
  tpc_cfg.seed = fseed ^ 0x9e3779b97f4a7c15ULL;
  s.cluster.tpc().EnableFaultHandling(tpc_cfg);
  // Decision-retry giveup heuristic: a decided 2PC outcome keeps being
  // re-sent while it could still be lost (down-but-returning
  // coordinator, live unacked participant) instead of finalizing with
  // its applies missing.
  s.cluster.tpc().set_down_probe(
      [injector](sim::NodeId n) { return injector->NodeDown(n); });
  s.cluster.tpc().set_gone_probe(
      [injector](sim::NodeId n) { return injector->NeverRestarts(n); });

  s.repartitioner.EnableFaultHandling(fseed ^ 0x2545f4914f6cdd1dULL);
  s.repartitioner.set_backoff(spec.retry.base, spec.retry.cap);

  injector->set_on_crash([&s](sim::NodeId n) {
    const auto node = static_cast<uint32_t>(n);
    ++s.recovery_epoch[node];
    s.cluster.node(node).Crash();
    s.cluster.tpc().OnNodeCrash(n);
    s.tm.OnNodeCrash(node);
    s.repartitioner.OnNodeCrash(node);
    if (s.replica_mgr != nullptr) s.replica_mgr->OnNodeCrash(node);
  });
  injector->set_on_restart([&s](sim::NodeId n) {
    const auto node = static_cast<uint32_t>(n);
    // The checkpoint image plus the WAL suffix reproduce the committed
    // table; the replay job charges the node for that scan before it
    // takes new work.
    Status st = s.cluster.storage(node).CrashAndRecover();
    if (!st.ok()) {
      SOAP_LOG(kError) << "node " << node
                       << " recovery failed: " << st.ToString();
    }
    const auto wal_records =
        static_cast<Duration>(s.cluster.storage(node).wal().size());
    s.cluster.node(node).Restart();
    const cluster::ExecutionCosts& costs = s.config.cluster.costs;
    const Duration replay =
        costs.recovery_fixed + costs.recovery_per_record * wal_records;
    const uint64_t epoch = s.recovery_epoch[node];
    s.cluster.node(node).RunJob(
        replay, cluster::WorkCategory::kExternal, cluster::JobClass::kUrgent,
        [&s, node, replay, epoch]() {
          if (s.recovery_epoch[node] != epoch) return;  // re-crashed
          if (s.metrics) {
            s.metrics->GetHistogram("soap_node_recovery_seconds")
                ->Record(replay);
          }
          s.repartitioner.OnNodeRestart(node);
          if (s.replica_mgr != nullptr) s.replica_mgr->OnNodeRestart(node);
          if (s.invariants != nullptr) {
            s.invariants->OnNodeRecovered(node, s.sim.Now());
          }
        });
  });
  if (s.metrics) injector->BindMetrics(s.metrics.get());
  injector->Start();
}

// Timeline snapshot for a closed interval: per-partition load, queue
// depth, windowed lock-wait p99 and the routing-change flow counters
// accumulated by the TM since the previous tick.
void TimelineTick(Stack& s, uint32_t index, double distributed_ratio) {
  cluster::Cluster& cluster = s.cluster;
  obs::TimelineTick tick;
  tick.t_us = s.sim.Now();
  tick.interval = index;
  tick.queue_depth = s.tm.queue().Size();
  tick.distributed_ratio = distributed_ratio;
  const obs::LatencyHistogram* lock_hist =
      s.metrics->FindHistogram("soap_lock_wait_seconds");
  tick.lock_wait_p99_ms =
      lock_hist != nullptr
          ? s.lock_wait_window.WindowPercentileMs(lock_hist->histogram(), 99.0)
          : 0.0;
  const SimTime window = s.sim.Now() - s.timeline_prev_tick;
  const double worker_window =
      ToSeconds(window) *
      static_cast<double>(s.config.cluster.workers_per_node);
  const router::RoutingTable& routing = cluster.routing_table();
  obs::PartitionFlows* flows = s.timeline->flows();
  const obs::PartitionFlows& prev = s.prev_flows;
  tick.partitions.reserve(cluster.num_nodes());
  for (uint32_t p = 0; p < cluster.num_nodes(); ++p) {
    obs::TimelinePartitionRow row;
    row.partition = p;
    const Duration busy = cluster.node(p).total_busy_time();
    row.load = worker_window > 0
                   ? ToSeconds(busy - s.prev_node_busy[p]) / worker_window
                   : 0.0;
    s.prev_node_busy[p] = busy;
    row.queued_jobs = cluster.node(p).queued_jobs();
    row.primaries = routing.CountPrimaries(p);
    row.replicas = routing.CountReplicas(p);
    row.migrations_in = flows->migrations_in[p] - prev.migrations_in[p];
    row.migrations_out = flows->migrations_out[p] - prev.migrations_out[p];
    row.replica_creates = flows->replica_creates[p] - prev.replica_creates[p];
    row.replica_drops = flows->replica_drops[p] - prev.replica_drops[p];
    tick.partitions.push_back(row);
  }
  s.prev_flows = *flows;
  s.timeline_prev_tick = s.sim.Now();
  s.timeline->Record(std::move(tick));
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

// One interval boundary: appends the per-interval series, snapshots the
// timeline, ticks the controllers and publishes the interval's metrics.
void CloseInterval(Stack& s, uint32_t index, ExperimentResult* result) {
  cluster::Cluster& cluster = s.cluster;
  const cluster::TmCounters& now = s.tm.counters();
  const cluster::TmCounters& prev = s.prev_counters;
  const Duration normal_work =
      cluster.TotalBusyTime(cluster::WorkCategory::kNormal);
  const Duration rep_work =
      cluster.TotalBusyTime(cluster::WorkCategory::kRepartition);

  core::IntervalStats stats;
  stats.index = index;
  stats.length = s.sim.Now() - s.prev_boundary;
  stats.normal_work = normal_work - s.prev_normal_work;
  stats.repartition_work = rep_work - s.prev_rep_work;
  stats.normal_submitted = now.submitted_normal - prev.submitted_normal;
  stats.normal_committed = now.committed_normal - prev.committed_normal;
  stats.normal_aborted = now.aborted_normal - prev.aborted_normal;
  stats.repartition_committed =
      now.committed_repartition - prev.committed_repartition;
  stats.repartition_aborted =
      now.aborted_repartition - prev.aborted_repartition;
  stats.piggybacked_ops_applied =
      now.piggybacked_ops_applied - prev.piggybacked_ops_applied;

  // The paper's four series.
  result->rep_rate.Append(
      s.repartitioner.RepRate(now.repartition_ops_applied));
  const double minutes = ToSeconds(stats.length) / 60.0;
  result->throughput.Append(
      minutes > 0 ? static_cast<double>(stats.normal_committed) / minutes
                  : 0.0);
  result->latency_ms.Append(
      s.accum.latency_count > 0
          ? s.accum.latency_sum_ms /
                static_cast<double>(s.accum.latency_count)
          : 0.0);
  result->latency_p99_ms.Append(
      s.accum.latency_histogram.Percentile(99.0) / 1000.0);
  result->failure_rate.Append(
      Ratio(now.total_aborted() - prev.total_aborted(),
            now.total_submitted() - prev.total_submitted()));
  result->queue_length.Append(static_cast<double>(s.tm.queue().Size()));
  result->rep_work_ratio.Append(stats.RepartitionWorkRatio());
  const double distributed_ratio = Ratio(
      now.committed_normal_distributed - prev.committed_normal_distributed,
      stats.normal_committed);
  result->distributed_ratio.Append(distributed_ratio);
  result->distributed_write_ratio.Append(
      Ratio(now.committed_normal_distributed_writes -
                prev.committed_normal_distributed_writes,
            now.committed_normal_with_writes -
                prev.committed_normal_with_writes));
  const double worker_time =
      ToSeconds(stats.length) * cluster.TotalWorkers();
  result->utilization.Append(
      worker_time > 0
          ? ToSeconds(stats.normal_work + stats.repartition_work) /
                worker_time
          : 0.0);

  if (s.replica_mgr != nullptr) {
    result->replica_read_ratio.Append(
        Ratio(cluster.router().replica_reads() - s.prev_replica_reads,
              cluster.router().reads_routed() - s.prev_reads_routed));
    s.prev_reads_routed = cluster.router().reads_routed();
    s.prev_replica_reads = cluster.router().replica_reads();
    s.replica_mgr->PublishGauges();
  }
  if (s.timeline != nullptr &&
      (index + 1) % s.config.obs.timeline_interval == 0) {
    TimelineTick(s, index, distributed_ratio);
  }

  s.accum = IntervalAccum{};
  s.prev_counters = now;
  s.prev_normal_work = normal_work;
  s.prev_rep_work = rep_work;
  s.prev_boundary = s.sim.Now();

  s.repartitioner.OnIntervalTick(stats);
  if (s.planner != nullptr) s.planner->OnIntervalTick(index);

  // Snapshot AFTER the tick so the controller gauges reflect the
  // decision just taken for the coming interval.
  if (s.metrics) {
    obs::MetricsRegistry& metrics = *s.metrics;
    s.repartitioner.PublishMetrics(now.repartition_ops_applied);
    metrics.GetGauge("soap_interval_index")->Set(static_cast<double>(index));
    for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
      metrics
          .GetGauge("soap_node_busy_seconds",
                    "node=\"" + std::to_string(i) + "\"")
          ->Set(ToSeconds(cluster.node(i).total_busy_time()));
    }
    metrics.GetGauge("soap_cluster_normal_work_seconds")
        ->Set(ToSeconds(normal_work));
    metrics.GetGauge("soap_cluster_repartition_work_seconds")
        ->Set(ToSeconds(rep_work));
    if (cluster.mvcc_enabled()) {
      metrics.GetGauge("soap_mvcc_versions_live")
          ->Set(static_cast<double>(cluster.versions().versions_live()));
      metrics.GetGauge("soap_mvcc_gc_pruned_total")
          ->Set(static_cast<double>(cluster.versions().pruned_total()));
    }
    if (!s.config.obs.metrics_jsonl_out.empty()) {
      s.metrics_jsonl << metrics.ToJsonLine(s.sim.Now(), index) << '\n';
    }
  }
}

// Calibrates the arrival rate, schedules the capacity disturbance and
// every interval's submissions and close, and runs the clock to the end
// of the last interval. `replay` is null when arrivals are generated.
void Drive(Stack& s, const workload::WorkloadTrace* replay,
           ExperimentResult* result) {
  const ExperimentConfig& config = s.config;
  cluster::Cluster& cluster = s.cluster;
  repartition::CostModel cost_model(
      cluster.config().costs, config.workload_options.spec.queries_per_txn);
  workload::CapacityModel capacity;
  capacity.collocated_cost = cost_model.CollocatedTxnCost();
  capacity.distributed_cost = cost_model.DistributedTxnCost(2);
  capacity.total_workers = cluster.TotalWorkers();
  result->arrival_rate_txn_s =
      workload::WorkloadGenerator::CalibrateArrivalRate(
          s.catalog, capacity, config.workload_options.utilization);
  result->capacity_txn_s = static_cast<double>(capacity.total_workers) * 1e6 /
                           static_cast<double>(capacity.collocated_cost);
  const double per_interval_mean =
      result->arrival_rate_txn_s * ToSeconds(config.interval_length);

  s.tm.set_pre_execution_hook(
      [&s](txn::Transaction* t) { s.repartitioner.OnBeforeExecute(t); });
  s.tm.set_completion_callback([&s](const txn::Transaction& t) {
    if (!t.is_repartition && t.committed()) {
      s.accum.latency_sum_ms += ToMillis(t.Latency());
      s.accum.latency_count++;
      s.accum.latency_histogram.Record(static_cast<uint64_t>(t.Latency()));
    }
    s.repartitioner.OnTxnComplete(t);
    if (s.planner != nullptr) s.planner->OnTxnComplete(t);
  });

  // Capacity disturbance (external tenant stealing worker time), emitted
  // as a dense train of short external jobs so the theft is spread across
  // the disturbance window instead of arriving in bursts.
  if (config.fault_options.disturbance.enabled) {
    const Disturbance& d = config.fault_options.disturbance;
    const Duration slice = Millis(100);
    const SimTime from =
        static_cast<SimTime>(d.start_interval) * config.interval_length;
    const SimTime to =
        static_cast<SimTime>(d.end_interval) * config.interval_length;
    const uint32_t workers = config.cluster.workers_per_node;
    for (SimTime at = from; at < to; at += slice) {
      s.sim.At(at, [&cluster, &d, slice, workers]() {
        // One slice-train per worker so `fraction` scales the node's
        // whole capacity.
        for (uint32_t w = 0; w < workers; ++w) {
          cluster.node(d.node).RunJob(
              static_cast<Duration>(d.fraction * static_cast<double>(slice)),
              cluster::WorkCategory::kExternal, cluster::JobClass::kUrgent,
              []() {});
        }
      });
    }
  }

  const uint32_t total_intervals =
      config.warmup_intervals + config.measured_intervals;
  const bool recording = !config.workload_options.record_trace_path.empty();
  for (uint32_t k = 0; k < total_intervals; ++k) {
    const SimTime start = static_cast<SimTime>(k) * config.interval_length;
    s.sim.At(start, [&s, k, replay, per_interval_mean, recording]() {
      // With the online planner the one-shot plan never deploys; the
      // planner emits its first generation at the same boundary.
      if (k == s.config.warmup_intervals && s.planner == nullptr &&
          !s.repartitioner.StartRepartitioning()) {
        SOAP_LOG(kWarn) << "no repartitioning needed (empty plan)";
      }
      std::vector<std::unique_ptr<txn::Transaction>> batch =
          replay != nullptr
              ? replay->ReplayInterval(k, s.catalog)
              : s.generator.GenerateInterval(per_interval_mean, k);
      for (auto& t : batch) {
        if (recording) {
          int64_t value = 0;
          for (const txn::Operation& op : t->ops) {
            if (op.kind == txn::OpKind::kWrite) {
              value = op.write_value;
              break;
            }
          }
          const int phase = s.config.workload_options.spec.PhaseIndexAt(k);
          s.record_trace.Record(k, t->template_id, value,
                                phase < 0 ? 0 : static_cast<uint32_t>(phase),
                                t->partner_template);
        }
        s.repartitioner.InterceptNormalSubmission(t.get());
        s.tm.Submit(std::move(t));
      }
    });
    const SimTime end = static_cast<SimTime>(k + 1) * config.interval_length;
    s.sim.At(end, [&s, k, result]() { CloseInterval(s, k, result); });
  }
  s.sim.RunUntil(static_cast<SimTime>(total_intervals) *
                 config.interval_length);
}

// After the last interval: stop submitting, run the system dry, then
// audit storage/routing consistency and the lock table.
void DrainAndAudit(Stack& s, ExperimentResult* result) {
  cluster::TransactionManager& tm = s.tm;
  const SimTime drain_deadline = s.sim.Now() + s.config.drain_cap;
  while (s.sim.Now() < drain_deadline &&
         (tm.inflight() > 0 || !tm.queue().Empty())) {
    if (!s.sim.Step()) break;
  }
  result->drained = tm.inflight() == 0 && tm.queue().Empty();
  if (!result->drained && tm.inflight() == 0) {
    // Nothing is executing but transactions are still queued (e.g. the
    // drain cap hit while a node was down). They will never dispatch;
    // complete their callbacks with an abort so no submitter hangs.
    s.repartitioner.BeginShutdown();
    tm.DrainQueue(txn::AbortReason::kShutdown);
    result->drained = tm.inflight() == 0 && tm.queue().Empty();
  }
  const auto audit_t0 = std::chrono::steady_clock::now();
  result->audit = s.cluster.CheckConsistency();
  result->audit_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    audit_t0)
          .count();
  const size_t locked = s.cluster.lock_manager().LockedKeyCount();
  if (result->audit.ok() && locked != 0) {
    result->audit = Status::Internal("locks leaked after drain: " +
                                     std::to_string(locked) +
                                     " keys still locked");
  }
}

// Final counters, subsystem tallies and control-plane footprint.
void Collect(Stack& s, ExperimentResult* result) {
  cluster::Cluster& cluster = s.cluster;
  const cluster::TmCounters& counters = s.tm.counters();
  result->plan_ops_total = s.repartitioner.registry().total_ops();
  result->plan_ops_applied = counters.repartition_ops_applied;
  result->piggybacked_ops = counters.piggybacked_ops_applied;
  result->counters = counters;
  result->lock_stats = cluster.lock_manager().stats();
  result->tpc_stats = cluster.tpc().stats();
  if (s.injector != nullptr) {
    result->faults_crashes = s.injector->stats().crashes;
    result->faults_msgs_dropped = s.injector->stats().msgs_dropped;
    result->faults_msgs_parked = s.injector->stats().msgs_parked;
  }
  result->plan_completed = s.repartitioner.Finished();
  result->plan_generations = s.repartitioner.rounds_started();
  result->lion_enabled = s.config.planner_options.builder.lion.enabled;
  if (s.planner != nullptr) {
    result->planner_stats = s.planner->stats();
    result->graph_bytes = s.planner->graph().ApproxBytes();
    result->graph_vertices = s.planner->graph().vertex_count();
  }
  result->replicas_enabled = s.replica_mgr != nullptr;
  if (s.replica_mgr != nullptr) {
    result->replica_stats = s.replica_mgr->stats();
    result->reads_routed = cluster.router().reads_routed();
    result->replica_reads = cluster.router().replica_reads();
    result->replica_count_final =
        cluster.routing_table().replicated_key_count();
  }
  result->end_time = s.sim.Now();
  result->events_executed = s.sim.events_executed();
  const router::RoutingTable& routing = cluster.routing_table();
  result->routing_bytes = routing.ApproxBytes();
  result->routing_ranges = routing.range_count();
  result->routing_exceptions = routing.exception_count();
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    const storage::Table& table = cluster.storage(n).table();
    result->storage_bytes += table.ApproxBytes();
    result->storage_materialized_rows += table.materialized_size();
  }
  result->mvcc_enabled = cluster.mvcc_enabled();
  if (cluster.mvcc_enabled()) {
    result->mvcc_versions_live = cluster.versions().versions_live();
    result->mvcc_gc_pruned = cluster.versions().pruned_total();
  }
}

// Consistency verdict: offline history audit plus the quiescent invariant
// sweep (the sweep's preconditions — empty lock table, settled routing —
// only hold once the drain succeeded).
void CheckVerdict(Stack& s, ExperimentResult* result) {
  result->check_enabled = s.recorder != nullptr;
  if (s.recorder == nullptr) return;
  if (result->drained) s.invariants->SweepQuiescent(s.sim.Now());
  check::CheckReport& report = result->check_report;
  report = check::CheckHistory(
      *s.recorder,
      s.config.cluster.isolation == cluster::IsolationLevel::kSerializable,
      s.cluster.mvcc_enabled());
  if (s.audit_log != nullptr) {
    // Mirror the offline checker's violations as audit records (the
    // invariant engine already wrote its own as they fired).
    for (const check::Violation& v : report.violations) {
      obs::AuditRecord rec(s.audit_log.get(), "invariant", v.at);
      rec.Str("check", v.check).Str("detail", v.detail);
    }
  }
  for (const check::Violation& v : s.invariants->violations()) {
    report.violations.push_back(v);
  }
  result->invariant_checks = s.invariants->checks_run();
  result->check_breaks_fired = s.tm.check_breaks_fired();
  if (s.audit_log != nullptr) {
    obs::AuditRecord rec(s.audit_log.get(), "check_summary", s.sim.Now());
    rec.U64("violations", report.violations.size())
        .U64("txns", report.txns_checked)
        .U64("reads", report.reads_checked)
        .U64("ww", report.ww_edges)
        .U64("wr", report.wr_edges)
        .U64("rw", report.rw_edges)
        .U64("rw_cycles", report.rw_cycles)
        .U64("invariant_checks", result->invariant_checks)
        .U64("breaks_fired", result->check_breaks_fired)
        .Bool("ok", report.ok());
  }
}

// Trailer record: final counters so a truncated run is detectable and the
// audit file summarises itself without the metrics export.
void AuditRunEnd(const Stack& s, const ExperimentResult& result) {
  const cluster::TmCounters& c = s.tm.counters();
  obs::AuditRecord rec(s.audit_log.get(), "run_end", s.sim.Now());
  rec.U64("events", s.sim.events_executed())
      .U64("committed_normal", c.committed_normal)
      .U64("committed_repartition", c.committed_repartition)
      .U64("repartition_ops_applied", c.repartition_ops_applied)
      .U64("piggybacked_ops_applied", c.piggybacked_ops_applied)
      .U64("rounds", s.repartitioner.rounds_started())
      .U64("aborts_deadlock", c.aborts_deadlock)
      .U64("aborts_lock_timeout", c.aborts_lock_timeout)
      .U64("aborts_queue_timeout", c.aborts_queue_timeout)
      .U64("aborts_vote", c.aborts_vote)
      .U64("aborts_node_crash", c.aborts_node_crash)
      .U64("aborts_shutdown", c.aborts_shutdown);
  // Only under --cc=mvcc, so 2PL audit files stay byte-identical.
  if (c.aborts_write_conflict > 0) {
    rec.U64("aborts_write_conflict", c.aborts_write_conflict);
  }
  rec.Bool("drained", result.drained);
}

// Writes the requested files and hands the observability artifacts to
// the result. A failed write is logged and the first one kept in
// result->obs_export; the recorded trace's save failure is only logged.
void Export(Stack& s, ExperimentResult* result) {
  const ExperimentConfig& config = s.config;
  if (!config.workload_options.record_trace_path.empty()) {
    Status st = s.record_trace.SaveToFile(
        config.workload_options.record_trace_path,
        static_cast<uint32_t>(s.catalog.size()));
    if (!st.ok()) SOAP_LOG(kError) << "trace save failed: " << st.ToString();
  }
  auto note_export = [result](Status st) {
    if (!st.ok()) {
      SOAP_LOG(kError) << "observability export failed: " << st.ToString();
      if (result->obs_export.ok()) result->obs_export = std::move(st);
    }
  };
  const ObsOptions& obs = config.obs;
  if (s.tracer != nullptr) {
    result->critical_path = s.tracer->AggregateCriticalPath();
    if (!obs.trace_out.empty()) {
      note_export(s.tracer->WriteChromeJson(obs.trace_out));
    }
  }
  if (s.metrics != nullptr) {
    if (!obs.metrics_out.empty()) {
      note_export(s.metrics->WriteFile(obs.metrics_out,
                                       s.metrics->ToPrometheusText()));
    }
    if (!obs.metrics_jsonl_out.empty()) {
      note_export(
          s.metrics->WriteFile(obs.metrics_jsonl_out, s.metrics_jsonl.str()));
    }
  }
  if (s.audit_log != nullptr && !obs.audit_out.empty()) {
    note_export(s.audit_log->WriteFile(obs.audit_out));
  }
  if (s.recorder != nullptr && !config.check.history_out.empty()) {
    note_export(s.recorder->WriteHistoryFile(config.check.history_out));
  }
  if (s.timeline != nullptr && !obs.timeline_out.empty()) {
    note_export(s.timeline->WriteFile(obs.timeline_out));
  }
  result->metrics = std::move(s.metrics);
  result->tracer = std::move(s.tracer);
  result->audit_log = std::move(s.audit_log);
  result->timeline = std::move(s.timeline);
}

}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)) {}

ExperimentResult Experiment::Run() {
  assert(!ran_ && "an Experiment may only run once");
  ran_ = true;

  ExperimentResult result;
  result.strategy_name = StrategyName(config_.deployment.strategy);
  if (Status v = config_.Validate(); !v.ok()) {
    SOAP_LOG(kError) << "invalid experiment config: " << v.ToString();
    result.audit = std::move(v);
    return result;
  }
  std::optional<workload::WorkloadTrace> replay;
  if (!config_.workload_options.replay_trace_path.empty()) {
    Result<workload::WorkloadTrace> loaded =
        workload::WorkloadTrace::LoadFromFile(
            config_.workload_options.replay_trace_path);
    if (!loaded.ok()) {
      SOAP_LOG(kError) << "trace replay failed: "
                       << loaded.status().ToString();
      result.audit = loaded.status();
      return result;
    }
    replay = std::move(loaded).value();
  }

  const auto load_t0 = std::chrono::steady_clock::now();
  Stack s(config_);
  // Stamp log lines with this run's virtual time while it is in scope.
  Logger::Instance().set_clock([&s]() { return s.sim.Now(); });
  struct LogClockGuard {
    ~LogClockGuard() { Logger::Instance().set_clock(nullptr); }
  } log_clock_guard;
  Load(s);
  result.load_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_t0)
          .count();

  WireSubsystems(s);
  WireObs(s);
  WireFaults(s);
  Drive(s, replay.has_value() ? &*replay : nullptr, &result);
  if (config_.drain_and_audit) DrainAndAudit(s, &result);
  Collect(s, &result);
  CheckVerdict(s, &result);
  if (s.audit_log != nullptr) AuditRunEnd(s, result);
  Export(s, &result);
  return result;
}

std::string ExperimentResult::Summary() const {
  std::ostringstream os;
  os << strategy_name << ": arrival=" << arrival_rate_txn_s
     << " txn/s, capacity(collocated)=" << capacity_txn_s
     << " txn/s, plan=" << plan_ops_total << " ops, applied="
     << plan_ops_applied << " (piggybacked=" << piggybacked_ops
     << "), committed=" << counters.committed_normal
     << ", aborted=" << counters.aborted_normal
     << " normal txns, rep txns committed="
     << counters.committed_repartition
     << ", repartition complete @ interval " << RepartitionCompletedAt()
     << ", aborts[deadlock=" << counters.aborts_deadlock
     << " lock_timeout=" << counters.aborts_lock_timeout
     << " queue_timeout=" << counters.aborts_queue_timeout
     << " vote=" << counters.aborts_vote;
  if (counters.aborts_node_crash > 0 || counters.aborts_shutdown > 0) {
    os << " node_crash=" << counters.aborts_node_crash
       << " shutdown=" << counters.aborts_shutdown;
  }
  if (counters.aborts_write_conflict > 0) {
    os << " write_conflict=" << counters.aborts_write_conflict;
  }
  os << "]";
  if (mvcc_enabled) {
    os << ", mvcc[versions_live=" << mvcc_versions_live
       << " gc_pruned=" << mvcc_gc_pruned << "]";
  }
  if (faults_crashes > 0 || faults_msgs_dropped > 0 ||
      faults_msgs_parked > 0) {
    os << ", faults[crashes=" << faults_crashes
       << " msgs_dropped=" << faults_msgs_dropped
       << " msgs_parked=" << faults_msgs_parked
       << " 2pc_resends=" << tpc_stats.resends
       << " prepare_timeouts=" << tpc_stats.prepare_timeouts << "]";
  }
  if (planner_stats.txns_observed > 0) {
    os << ", planner[plans=" << planner_stats.plans_emitted
       << " ops=" << planner_stats.ops_emitted
       << " cut=" << planner_stats.last_cut_weight
       << " internal=" << planner_stats.last_internal_weight
       << " graph=" << planner_stats.last_graph_vertices << "v/"
       << planner_stats.last_graph_edges
       << "e skipped_active=" << planner_stats.replans_skipped_active
       << " skipped_small=" << planner_stats.replans_skipped_small
       << " dist_ratio_tail=" << distributed_ratio.TailMean(5) << "]";
  }
  if (replicas_enabled) {
    const double frac =
        reads_routed > 0 ? static_cast<double>(replica_reads) /
                               static_cast<double>(reads_routed)
                         : 0.0;
    os << ", replicas[creates=" << planner_stats.replica_creates_emitted
       << " drops=" << planner_stats.replica_drops_emitted
       << " replicated_keys=" << replica_count_final
       << " replica_read_frac=" << frac
       << " promotions=" << replica_stats.promotions
       << " failovers=" << replica_stats.failovers
       << " catchup_refreshed=" << replica_stats.catchup_refreshed
       << " catchup_dropped=" << replica_stats.catchup_dropped << "]";
  }
  if (lion_enabled) {
    os << ", lion[shifts_emitted=" << planner_stats.leader_shifts_emitted
       << " shifts_applied=" << counters.leader_shifts_applied
       << " evicted=" << planner_stats.replicas_evicted_budget
       << " denials=" << planner_stats.replica_budget_denials
       << " predictive=" << planner_stats.predictive_creates
       << " dist_write_tail=" << distributed_write_ratio.TailMean(5) << "]";
  }
  if (check_enabled) {
    os << ", check[violations=" << check_report.violations.size()
       << " txns=" << check_report.txns_checked
       << " reads=" << check_report.reads_checked
       << " ww=" << check_report.ww_edges << " wr=" << check_report.wr_edges
       << " rw=" << check_report.rw_edges
       << " invariant_checks=" << invariant_checks;
    if (check_breaks_fired > 0) {
      os << " breaks_fired=" << check_breaks_fired;
    }
    os << "]";
  }
  os << ", audit=" << audit.ToString();
  return os.str();
}

}  // namespace soap::engine
