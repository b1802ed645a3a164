#include "src/engine/experiment.h"

#include <cassert>
#include <chrono>
#include <sstream>

#include "src/check/history_recorder.h"
#include "src/check/invariants.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/fault/fault_injector.h"
#include "src/lion/provisioner.h"
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
  if (replicas.enabled) {
    if (replicas.max_copies < 2) {
      return Status::InvalidArgument(
          "replicas.max_copies counts the primary; at least 2 is needed "
          "for one replica");
    }
    if (replicas.max_copies > cluster.num_nodes) {
      return Status::InvalidArgument(
          "replicas.max_copies exceeds the cluster size");
    }
    if (replicas.min_read_write_ratio <= 0.0) {
      return Status::InvalidArgument(
          "replicas.min_read_write_ratio must be positive");
    }
    if (replicas.split_threshold <= 0.0 || replicas.split_threshold >= 1.0) {
      return Status::InvalidArgument(
          "replicas.split_threshold must be in (0, 1)");
    }
    if (replicas.promotion_delay < 0) {
      return Status::InvalidArgument(
          "replicas.promotion_delay must be non-negative");
    }
  } else if (planner_options.builder.replicate_read_heavy) {
    return Status::InvalidArgument(
        "planner.builder.replicate_read_heavy requires replicas.enabled "
        "(the transaction layer must be replica-aware to maintain copies)");
  }
  if (lion.replica_budget < 0) {
    return Status::InvalidArgument("lion.replica_budget must be >= 0");
  }
  {
    lion::EvictPolicy policy = lion::EvictPolicy::kLru;
    if (!lion::ParseEvictPolicy(lion.evict, &policy)) {
      return Status::InvalidArgument("unknown lion.evict policy: " +
                                     lion.evict + " (expected lru or heat)");
    }
  }
  if (lion.shift_threshold <= 0.0 || lion.shift_threshold > 1.0) {
    return Status::InvalidArgument(
        "lion.shift_threshold must be in (0, 1]");
  }
  if (lion.enabled) {
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
  if (!check.break_mode.empty()) {
    check::BreakMode mode = check::BreakMode::kNone;
    if (!check::ParseBreakMode(check.break_mode, &mode)) {
      return Status::InvalidArgument("unknown --check_break mode: " +
                                     check.break_mode);
    }
    if (mode == check::BreakMode::kReplicaApply && !replicas.enabled) {
      return Status::InvalidArgument(
          "--check_break=replica_apply needs replicas enabled: without them "
          "there is no replica apply path to corrupt");
    }
    if (mode == check::BreakMode::kStaleSnapshot &&
        cluster.cc != mvcc::ConcurrencyControl::kMvcc) {
      return Status::InvalidArgument(
          "--check_break=stale_snapshot needs --cc=mvcc: without snapshot "
          "reads there is no snapshot observation to corrupt");
    }
    if (mode == check::BreakMode::kDoublePrimary && !lion.enabled) {
      return Status::InvalidArgument(
          "--check_break=double_primary needs --lion: without leader "
          "shifts there is no primary swap to corrupt");
    }
  }
  return Status::OK();
}

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

  // --- Build the stack.
  const auto load_t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  // Stamp log lines with this run's virtual time while it is in scope.
  Logger::Instance().set_clock([&sim]() { return sim.Now(); });
  struct LogClockGuard {
    ~LogClockGuard() { Logger::Instance().set_clock(nullptr); }
  } log_clock_guard;
  cluster::ClusterConfig cluster_config = config_.cluster;
  cluster_config.num_keys = config_.workload_options.spec.num_keys;
  cluster_config.seed = config_.seed;
  // Production-cardinality runs flip the stack to its sublinear
  // representations (lazy storage bases + sketch-backed planner graph).
  // At or below the threshold everything is the exact paper-scale path.
  const bool scale_out =
      config_.workload_options.spec.num_keys > config_.scale.sketch_threshold;
  cluster_config.lazy_tables = scale_out;
  cluster::Cluster cluster(&sim, cluster_config);
  cluster::TransactionManager tm(&cluster);

  workload::TemplateCatalog catalog(config_.workload_options.spec, cluster.num_nodes());
  // Routing base: num_nodes round-robin ranges cover the whole keyspace
  // (key % nodes — the catalog's default placement); only keys whose
  // initial partition differs end up as point exceptions.
  {
    Status base = cluster.routing_table().AssignRoundRobin(
        0, config_.workload_options.spec.num_keys, cluster.num_nodes());
    assert(base.ok());
    (void)base;
  }
  if (!scale_out) {
    // Exact bulk load, tuple by tuple. SetPrimary absorbs keys that sit on
    // their round-robin partition, so the routing table ends up with the
    // same placements as the historical dense load.
    for (uint64_t key = 0; key < config_.workload_options.spec.num_keys; ++key) {
      storage::Tuple tuple;
      tuple.key = key;
      tuple.content = static_cast<int64_t>(key);
      Status s = cluster.LoadTuple(tuple, catalog.InitialPartitionOf(key));
      assert(s.ok());
      (void)s;
    }
  } else {
    // Lazy bulk load: each node's round-robin base is already virtually
    // present (Table::SetLazyBase), so only the catalog's overrides move —
    // evict from the arithmetic home, land on the assigned partition.
    catalog.ForEachInitialOverride(
        [&](storage::TupleKey key, uint32_t partition) {
          cluster.storage(static_cast<uint32_t>(key % cluster.num_nodes()))
              .BulkEvict(key);
          storage::Tuple tuple;
          tuple.key = key;
          tuple.content = static_cast<int64_t>(key);
          Status s = cluster.LoadTuple(tuple, partition);
          assert(s.ok());
          (void)s;
        });
  }
  cluster.CheckpointAll();  // seal the load base: WALs stay replayable
  result.load_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_t0)
          .count();

  // --- Consistency checking (off by default; see CheckOptions). The
  // recorder observes every storage apply and TM lifecycle event; the
  // invariant engine sweeps cluster-wide structure at quiescent points.
  // With check off no observer or hook is installed, so the run stays
  // byte-identical to an unchecked build.
  const bool check_on = config_.check.Enabled();
  std::unique_ptr<check::HistoryRecorder> recorder;
  std::unique_ptr<check::InvariantEngine> invariants;
  if (check_on) {
    result.check_enabled = true;
    recorder = std::make_unique<check::HistoryRecorder>();
    recorder->set_clock([&sim]() { return sim.Now(); });
    for (uint32_t p = 0; p < cluster.num_nodes(); ++p) {
      cluster.storage(p).set_observer(recorder.get());
    }
    tm.set_history(recorder.get());
    check::BreakMode mode = check::BreakMode::kNone;
    check::ParseBreakMode(config_.check.break_mode, &mode);  // validated
    tm.set_check_break(mode);
    cluster.routing_table().EnableEpochTracking();
    invariants =
        std::make_unique<check::InvariantEngine>(&cluster, recorder.get());
  }

  workload::WorkloadHistory history(
      static_cast<uint32_t>(catalog.size()), config_.workload_options.history_window);
  core::Repartitioner repartitioner(
      &cluster, &tm, &catalog, &history,
      MakeScheduler(config_.deployment.strategy, config_.deployment.feedback, config_.deployment.piggyback),
      repartition::OptimizerConfig{}, config_.deployment.packaging);

  // --- Primary-copy replication (off by default; with it the planner
  // creates replicas, which the TM ships writes to and routes reads to,
  // and crashes trigger the failover/catch-up protocol in ReplicaManager).
  std::unique_ptr<replica::ReplicaManager> replica_mgr;
  if (config_.replicas.enabled) {
    result.replicas_enabled = true;
    replica::ReplicaManagerConfig rc;
    rc.promotion_delay = config_.replicas.promotion_delay;
    rc.catchup_fixed = config_.replicas.catchup_fixed;
    rc.catchup_per_tuple = config_.replicas.catchup_per_tuple;
    replica_mgr = std::make_unique<replica::ReplicaManager>(&cluster, rc);
    // A restarted node's surviving replicas may lag the primary until its
    // catch-up sweep finishes; routing such nodes as down keeps reads on
    // copies that are at least as fresh. (The node's own primaries are
    // exact — WAL replay restored them — so writes are unaffected, and
    // the router falls back to the primary if every replica is out.)
    cluster.router().set_down_probe(
        [&cluster, rm = replica_mgr.get()](router::PartitionId p) {
          return cluster.node(p).down() || rm->IsStale(p);
        });
    if (check_on) {
      invariants->set_stale_probe([rm = replica_mgr.get()](uint32_t n) {
        return rm->IsStale(n);
      });
      replica_mgr->set_promotion_hook(
          [&sim, inv = invariants.get()](storage::TupleKey key, uint32_t np) {
            inv->OnPromotion(key, np, sim.Now());
          });
    }
  }

  // --- Online planner (off by default; with it the one-shot optimizer
  // plan is replaced by continuous co-access-graph replanning).
  std::unique_ptr<planner::Planner> online_planner;
  if (config_.planner_options.enabled) {
    planner::PlannerConfig pc = config_.planner_options;
    if (pc.first_plan_interval == 0) {
      pc.first_plan_interval = config_.warmup_intervals;
    }
    if (pc.replan_period == 0) pc.replan_period = 1;
    // Scale knobs flow into the co-access graph; at paper scale
    // (num_keys <= threshold) the graph stays on its exact path.
    pc.graph.num_keys = config_.workload_options.spec.num_keys;
    pc.graph.sketch_threshold = config_.scale.sketch_threshold;
    pc.graph.sketch_topk = config_.scale.sketch_topk;
    pc.graph.supernode_ranges = config_.scale.supernode_ranges;
    if (config_.replicas.enabled) {
      // The planner proposes replicas instead of migrations for read-heavy
      // keys; thresholds come from the replica options so one knob governs
      // planner and manager alike.
      pc.builder.replicate_read_heavy = true;
      pc.builder.max_copies = config_.replicas.max_copies;
      pc.builder.min_read_write_ratio = config_.replicas.min_read_write_ratio;
      pc.builder.replica_split_threshold = config_.replicas.split_threshold;
      pc.builder.drop_stale_replicas = config_.replicas.drop_stale_replicas;
    }
    if (config_.lion.enabled) {
      // Lion rides the replica-aware replan cycle: one candidate pool per
      // clustered key, budgeted creations, leader shifts onto
      // write-dominant replica holders.
      result.lion_enabled = true;
      pc.builder.lion.enabled = true;
      pc.builder.lion.replica_budget = config_.lion.replica_budget;
      lion::ParseEvictPolicy(config_.lion.evict,
                             &pc.builder.lion.evict);  // validated above
      pc.builder.lion.shift_threshold = config_.lion.shift_threshold;
    }
    online_planner = std::make_unique<planner::Planner>(
        &catalog, &cluster.routing_table(), &repartitioner, pc);
  }
  if (check_on && config_.lion.enabled) {
    // Every applied leader shift is checked on the spot: exactly one
    // primary, no doubled placement entry, epoch advanced.
    tm.set_leader_shift_hook(
        [&sim, inv = invariants.get()](storage::TupleKey key, uint32_t np) {
          inv->OnLeaderShift(key, np, sim.Now());
        });
  }

  // --- Observability (off by default; see ObsOptions).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TxnTracer> tracer;
  std::ostringstream metrics_jsonl;
  if (config_.obs.MetricsEnabled()) {
    metrics = std::make_shared<obs::MetricsRegistry>();
    cluster.BindMetrics(metrics.get());
    tm.BindMetrics(metrics.get());
    repartitioner.BindMetrics(metrics.get());
    if (online_planner != nullptr) online_planner->BindMetrics(metrics.get());
    if (replica_mgr != nullptr) replica_mgr->BindMetrics(metrics.get());
  }
  if (config_.obs.TraceEnabled()) {
    obs::TxnTracer::Config tracer_config;
    tracer_config.sample_every = config_.obs.trace_sample;
    tracer = std::make_shared<obs::TxnTracer>(tracer_config);
    tm.set_tracer(tracer.get());
    cluster.set_tracer(tracer.get());
  }
  if (metrics != nullptr) cluster.router().BindMetrics(metrics.get());
  std::shared_ptr<obs::AuditLog> audit_log;
  if (config_.obs.AuditEnabled()) {
    audit_log = std::make_shared<obs::AuditLog>();
    repartitioner.BindAudit(audit_log.get());
    if (online_planner != nullptr) {
      online_planner->BindAudit(audit_log.get(), &sim);
    }
    if (replica_mgr != nullptr) replica_mgr->set_audit(audit_log.get());
    if (invariants != nullptr) invariants->set_audit(audit_log.get());
    // Header record: enough run context to read the file standalone.
    obs::AuditRecord rec(audit_log.get(), "run_meta", sim.Now());
    rec.U64("seed", config_.seed)
        .Str("strategy", StrategyName(config_.deployment.strategy))
        .U64("nodes", cluster.num_nodes())
        .U64("keys", config_.workload_options.spec.num_keys)
        .U64("warmup_intervals", config_.warmup_intervals)
        .U64("measured_intervals", config_.measured_intervals)
        .I64("interval_us", config_.interval_length)
        .Bool("planner", config_.planner_options.enabled)
        .Bool("replicas", config_.replicas.enabled);
  }
  std::shared_ptr<obs::Timeline> timeline;
  obs::HistogramWindow lock_wait_window;
  std::vector<Duration> prev_node_busy;
  obs::PartitionFlows prev_flows;
  SimTime timeline_prev_tick = 0;
  if (config_.obs.TimelineEnabled()) {
    timeline = std::make_shared<obs::Timeline>();
    timeline->flows()->Resize(cluster.num_nodes());
    tm.set_partition_flows(timeline->flows());
    prev_node_busy.assign(cluster.num_nodes(), 0);
    prev_flows.Resize(cluster.num_nodes());
  }

  // --- Fault injection (off unless a spec was given; with no spec the run
  // schedules no fault events and draws no fault randomness, so it stays
  // byte-identical to a build without the fault layer).
  std::unique_ptr<fault::FaultInjector> injector;
  // Per-node recovery generation: a node that crashes again while its
  // recovery replay is still in flight invalidates that replay — the new
  // restart runs replay again from the checkpoint image, and only the
  // completion whose epoch matches fires the restart hooks. (The replay
  // job itself is vaporised by Crash(); the epoch makes the protocol
  // robust even if a completion were ever delivered late.)
  std::vector<uint64_t> recovery_epoch(cluster.num_nodes(), 0);
  if (!config_.fault_options.spec.empty()) {
    Result<fault::FaultSpec> spec =
        fault::FaultSpec::Parse(config_.fault_options.spec);
    if (!spec.ok()) {
      SOAP_LOG(kError) << "bad --fault_spec: " << spec.status().ToString();
      result.audit = spec.status();
      return result;
    }
    // Separate streams for message faults, 2PC jitter and repartition
    // backoff so changing one spec clause does not shift the others.
    const uint64_t fseed =
        spec->seed != 0 ? spec->seed
                        : config_.seed * 6364136223846793005ULL +
                              1442695040888963407ULL;
    injector = std::make_unique<fault::FaultInjector>(&sim, *spec, fseed);
    cluster.network().set_fault_hooks(injector.get());

    txn::TpcFaultConfig tpc_cfg;
    tpc_cfg.enabled = true;
    tpc_cfg.prepare_timeout = spec->tpc.prepare_timeout;
    tpc_cfg.ack_timeout = spec->tpc.ack_timeout;
    tpc_cfg.max_resends = spec->tpc.max_resends;
    tpc_cfg.backoff = spec->tpc.backoff;
    tpc_cfg.jitter = spec->tpc.jitter;
    tpc_cfg.seed = fseed ^ 0x9e3779b97f4a7c15ULL;
    cluster.tpc().EnableFaultHandling(tpc_cfg);
    // Decision-retry giveup heuristic: a decided 2PC outcome keeps being
    // re-sent while it could still be lost (down-but-returning
    // coordinator, live unacked participant) instead of finalizing with
    // its applies missing.
    cluster.tpc().set_down_probe([inj = injector.get()](sim::NodeId n) {
      return inj->NodeDown(n);
    });
    cluster.tpc().set_gone_probe([inj = injector.get()](sim::NodeId n) {
      return inj->NeverRestarts(n);
    });

    repartitioner.EnableFaultHandling(fseed ^ 0x2545f4914f6cdd1dULL);
    repartitioner.set_backoff(spec->retry.base, spec->retry.cap);

    injector->set_on_crash([&](sim::NodeId n) {
      const auto node = static_cast<uint32_t>(n);
      ++recovery_epoch[node];
      cluster.node(node).Crash();
      cluster.tpc().OnNodeCrash(n);
      tm.OnNodeCrash(node);
      repartitioner.OnNodeCrash(node);
      if (replica_mgr != nullptr) replica_mgr->OnNodeCrash(node);
    });
    injector->set_on_restart([&](sim::NodeId n) {
      const auto node = static_cast<uint32_t>(n);
      // The checkpoint image plus the WAL suffix reproduce the committed
      // table; the replay job charges the node for that scan before it
      // takes new work.
      Status s = cluster.storage(node).CrashAndRecover();
      if (!s.ok()) {
        SOAP_LOG(kError) << "node " << node
                         << " recovery failed: " << s.ToString();
      }
      const auto wal_records =
          static_cast<Duration>(cluster.storage(node).wal().size());
      cluster.node(node).Restart();
      const Duration replay = config_.cluster.costs.recovery_fixed +
                              config_.cluster.costs.recovery_per_record *
                                  wal_records;
      const uint64_t epoch = recovery_epoch[node];
      cluster.node(node).RunJob(
          replay, cluster::WorkCategory::kExternal,
          cluster::JobClass::kUrgent, [&, node, replay, epoch]() {
            if (recovery_epoch[node] != epoch) return;  // re-crashed
            if (metrics) {
              metrics->GetHistogram("soap_node_recovery_seconds")
                  ->Record(replay);
            }
            repartitioner.OnNodeRestart(node);
            if (replica_mgr != nullptr) replica_mgr->OnNodeRestart(node);
            if (invariants != nullptr) {
              invariants->OnNodeRecovered(node, sim.Now());
            }
          });
    });
    if (metrics) injector->BindMetrics(metrics.get());
    injector->Start();
  }

  workload::WorkloadGenerator generator(&catalog, config_.seed * 7919 + 13);
  workload::WorkloadTrace record_trace;
  workload::WorkloadTrace replay_trace;
  const bool replaying = !config_.workload_options.replay_trace_path.empty();
  if (replaying) {
    Result<workload::WorkloadTrace> loaded =
        workload::WorkloadTrace::LoadFromFile(config_.workload_options.replay_trace_path);
    if (!loaded.ok()) {
      SOAP_LOG(kError) << "trace replay failed: "
                       << loaded.status().ToString();
      result.audit = loaded.status();
      return result;
    }
    replay_trace = std::move(loaded).value();
  }
  repartition::CostModel cost_model(cluster_config.costs,
                                    config_.workload_options.spec.queries_per_txn);
  workload::CapacityModel capacity;
  capacity.collocated_cost = cost_model.CollocatedTxnCost();
  capacity.distributed_cost = cost_model.DistributedTxnCost(2);
  capacity.total_workers = cluster.TotalWorkers();
  const double arrival_rate = workload::WorkloadGenerator::CalibrateArrivalRate(
      catalog, capacity, config_.workload_options.utilization);
  result.arrival_rate_txn_s = arrival_rate;
  result.capacity_txn_s =
      static_cast<double>(capacity.total_workers) * 1e6 /
      static_cast<double>(capacity.collocated_cost);
  const double per_interval_mean =
      arrival_rate * ToSeconds(config_.interval_length);

  // --- Per-interval bookkeeping.
  struct IntervalAccum {
    double latency_sum_ms = 0.0;
    uint64_t latency_count = 0;
    Histogram latency_histogram;  // microseconds
  } accum;
  cluster::TmCounters prev_counters;
  Duration prev_normal_work = 0;
  Duration prev_rep_work = 0;
  SimTime prev_boundary = 0;
  uint64_t prev_reads_routed = 0;
  uint64_t prev_replica_reads = 0;

  tm.set_pre_execution_hook(
      [&](txn::Transaction* t) { repartitioner.OnBeforeExecute(t); });
  tm.set_completion_callback([&](const txn::Transaction& t) {
    if (!t.is_repartition && t.committed()) {
      accum.latency_sum_ms += ToMillis(t.Latency());
      accum.latency_count++;
      accum.latency_histogram.Record(
          static_cast<uint64_t>(t.Latency()));
    }
    repartitioner.OnTxnComplete(t);
    if (online_planner != nullptr) online_planner->OnTxnComplete(t);
  });

  const uint32_t total_intervals =
      config_.warmup_intervals + config_.measured_intervals;

  auto close_interval = [&](uint32_t index) {
    const cluster::TmCounters& now = tm.counters();
    const Duration normal_work =
        cluster.TotalBusyTime(cluster::WorkCategory::kNormal);
    const Duration rep_work =
        cluster.TotalBusyTime(cluster::WorkCategory::kRepartition);

    core::IntervalStats stats;
    stats.index = index;
    stats.length = sim.Now() - prev_boundary;
    stats.normal_work = normal_work - prev_normal_work;
    stats.repartition_work = rep_work - prev_rep_work;
    stats.normal_submitted = now.submitted_normal -
                             prev_counters.submitted_normal;
    stats.normal_committed = now.committed_normal -
                             prev_counters.committed_normal;
    stats.normal_aborted = now.aborted_normal - prev_counters.aborted_normal;
    stats.repartition_committed = now.committed_repartition -
                                  prev_counters.committed_repartition;
    stats.repartition_aborted = now.aborted_repartition -
                                prev_counters.aborted_repartition;
    stats.piggybacked_ops_applied = now.piggybacked_ops_applied -
                                    prev_counters.piggybacked_ops_applied;

    // The paper's four series.
    result.rep_rate.Append(
        repartitioner.RepRate(now.repartition_ops_applied));
    const double minutes = ToSeconds(stats.length) / 60.0;
    result.throughput.Append(
        minutes > 0 ? static_cast<double>(stats.normal_committed) / minutes
                    : 0.0);
    result.latency_ms.Append(accum.latency_count > 0
                                 ? accum.latency_sum_ms /
                                       static_cast<double>(accum.latency_count)
                                 : 0.0);
    result.latency_p99_ms.Append(
        accum.latency_histogram.Percentile(99.0) / 1000.0);
    const uint64_t submitted =
        (now.total_submitted() - prev_counters.total_submitted());
    const uint64_t aborted = (now.total_aborted() - prev_counters.total_aborted());
    result.failure_rate.Append(
        submitted > 0
            ? static_cast<double>(aborted) / static_cast<double>(submitted)
            : 0.0);
    result.queue_length.Append(static_cast<double>(tm.queue().Size()));
    result.rep_work_ratio.Append(stats.RepartitionWorkRatio());
    const uint64_t committed_distributed =
        now.committed_normal_distributed -
        prev_counters.committed_normal_distributed;
    const double distributed_ratio_window =
        stats.normal_committed > 0
            ? static_cast<double>(committed_distributed) /
                  static_cast<double>(stats.normal_committed)
            : 0.0;
    result.distributed_ratio.Append(distributed_ratio_window);
    const uint64_t w_committed = now.committed_normal_with_writes -
                                 prev_counters.committed_normal_with_writes;
    const uint64_t w_distributed =
        now.committed_normal_distributed_writes -
        prev_counters.committed_normal_distributed_writes;
    result.distributed_write_ratio.Append(
        w_committed > 0 ? static_cast<double>(w_distributed) /
                              static_cast<double>(w_committed)
                        : 0.0);
    const double worker_time =
        ToSeconds(stats.length) * capacity.total_workers;
    result.utilization.Append(
        worker_time > 0
            ? ToSeconds(stats.normal_work + stats.repartition_work) /
                  worker_time
            : 0.0);

    if (replica_mgr != nullptr) {
      const uint64_t reads =
          cluster.router().reads_routed() - prev_reads_routed;
      const uint64_t from_replicas =
          cluster.router().replica_reads() - prev_replica_reads;
      result.replica_read_ratio.Append(
          reads > 0 ? static_cast<double>(from_replicas) /
                          static_cast<double>(reads)
                    : 0.0);
      prev_reads_routed = cluster.router().reads_routed();
      prev_replica_reads = cluster.router().replica_reads();
      replica_mgr->PublishGauges();
    }

    // Timeline snapshot: every timeline_interval-th closed interval, one
    // tick with per-partition load, queue depth, windowed lock-wait p99
    // and the routing-change flow counters accumulated by the TM.
    if (timeline != nullptr &&
        (index + 1) % config_.obs.timeline_interval == 0) {
      obs::TimelineTick tick;
      tick.t_us = sim.Now();
      tick.interval = index;
      tick.queue_depth = tm.queue().Size();
      tick.distributed_ratio = distributed_ratio_window;
      const obs::LatencyHistogram* lock_hist =
          metrics->FindHistogram("soap_lock_wait_seconds");
      tick.lock_wait_p99_ms =
          lock_hist != nullptr
              ? lock_wait_window.WindowPercentileMs(lock_hist->histogram(),
                                                    99.0)
              : 0.0;
      const SimTime window = sim.Now() - timeline_prev_tick;
      const double worker_window =
          ToSeconds(window) *
          static_cast<double>(cluster_config.workers_per_node);
      const router::RoutingTable& routing = cluster.routing_table();
      obs::PartitionFlows* flows = timeline->flows();
      tick.partitions.reserve(cluster.num_nodes());
      for (uint32_t p = 0; p < cluster.num_nodes(); ++p) {
        obs::TimelinePartitionRow row;
        row.partition = p;
        const Duration busy = cluster.node(p).total_busy_time();
        row.load = worker_window > 0
                       ? ToSeconds(busy - prev_node_busy[p]) / worker_window
                       : 0.0;
        prev_node_busy[p] = busy;
        row.queued_jobs = cluster.node(p).queued_jobs();
        row.primaries = routing.CountPrimaries(p);
        row.replicas = routing.CountReplicas(p);
        row.migrations_in =
            flows->migrations_in[p] - prev_flows.migrations_in[p];
        row.migrations_out =
            flows->migrations_out[p] - prev_flows.migrations_out[p];
        row.replica_creates =
            flows->replica_creates[p] - prev_flows.replica_creates[p];
        row.replica_drops =
            flows->replica_drops[p] - prev_flows.replica_drops[p];
        tick.partitions.push_back(row);
      }
      prev_flows = *flows;
      timeline_prev_tick = sim.Now();
      timeline->Record(std::move(tick));
    }

    accum = IntervalAccum{};
    prev_counters = now;
    prev_normal_work = normal_work;
    prev_rep_work = rep_work;
    prev_boundary = sim.Now();

    repartitioner.OnIntervalTick(stats);
    if (online_planner != nullptr) online_planner->OnIntervalTick(index);

    // Snapshot AFTER the tick so the controller gauges reflect the
    // decision just taken for the coming interval.
    if (metrics) {
      repartitioner.PublishMetrics(now.repartition_ops_applied);
      metrics->GetGauge("soap_interval_index")
          ->Set(static_cast<double>(index));
      for (uint32_t i = 0; i < cluster.num_nodes(); ++i) {
        metrics
            ->GetGauge("soap_node_busy_seconds",
                       "node=\"" + std::to_string(i) + "\"")
            ->Set(ToSeconds(cluster.node(i).total_busy_time()));
      }
      metrics->GetGauge("soap_cluster_normal_work_seconds")
          ->Set(ToSeconds(normal_work));
      metrics->GetGauge("soap_cluster_repartition_work_seconds")
          ->Set(ToSeconds(rep_work));
      if (cluster.mvcc_enabled()) {
        metrics->GetGauge("soap_mvcc_versions_live")
            ->Set(static_cast<double>(cluster.versions().versions_live()));
        metrics->GetGauge("soap_mvcc_gc_pruned_total")
            ->Set(static_cast<double>(cluster.versions().pruned_total()));
      }
      if (!config_.obs.metrics_jsonl_out.empty()) {
        metrics_jsonl << metrics->ToJsonLine(sim.Now(), index) << '\n';
      }
    }
  };

  // --- Capacity disturbance (external tenant stealing worker time).
  // Emitted as a dense train of short external jobs so the theft is
  // spread across the disturbance window instead of arriving in bursts.
  if (config_.fault_options.disturbance.enabled) {
    const Disturbance& d = config_.fault_options.disturbance;
    const Duration slice = Millis(100);
    const SimTime from =
        static_cast<SimTime>(d.start_interval) * config_.interval_length;
    const SimTime to =
        static_cast<SimTime>(d.end_interval) * config_.interval_length;
    const uint32_t workers = cluster_config.workers_per_node;
    for (SimTime at = from; at < to; at += slice) {
      sim.At(at, [&cluster, &d, slice, workers]() {
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

  // --- Drive the intervals.
  for (uint32_t k = 0; k < total_intervals; ++k) {
    const SimTime start = static_cast<SimTime>(k) * config_.interval_length;
    sim.At(start, [&, k]() {
      // With the online planner the one-shot plan never deploys; the
      // planner emits its first generation at the same boundary.
      if (k == config_.warmup_intervals && online_planner == nullptr) {
        const bool started = repartitioner.StartRepartitioning();
        if (!started) {
          SOAP_LOG(kWarn) << "no repartitioning needed (empty plan)";
        }
      }
      std::vector<std::unique_ptr<txn::Transaction>> batch =
          replaying ? replay_trace.ReplayInterval(k, catalog)
                    : generator.GenerateInterval(per_interval_mean, k);
      for (auto& t : batch) {
        if (!config_.workload_options.record_trace_path.empty()) {
          int64_t value = 0;
          for (const txn::Operation& op : t->ops) {
            if (op.kind == txn::OpKind::kWrite) {
              value = op.write_value;
              break;
            }
          }
          const int phase = config_.workload_options.spec.PhaseIndexAt(k);
          record_trace.Record(k, t->template_id, value,
                              phase < 0 ? 0 : static_cast<uint32_t>(phase),
                              t->partner_template);
        }
        repartitioner.InterceptNormalSubmission(t.get());
        tm.Submit(std::move(t));
      }
    });
    const SimTime end =
        static_cast<SimTime>(k + 1) * config_.interval_length;
    sim.At(end, [&, k]() { close_interval(k); });
  }

  const SimTime run_end =
      static_cast<SimTime>(total_intervals) * config_.interval_length;
  sim.RunUntil(run_end);

  // --- Drain and audit.
  if (config_.drain_and_audit) {
    const SimTime drain_deadline = run_end + config_.drain_cap;
    while (sim.Now() < drain_deadline &&
           (tm.inflight() > 0 || !tm.queue().Empty())) {
      if (!sim.Step()) break;
    }
    result.drained = tm.inflight() == 0 && tm.queue().Empty();
    if (!result.drained && tm.inflight() == 0) {
      // Nothing is executing but transactions are still queued (e.g. the
      // drain cap hit while a node was down). They will never dispatch;
      // complete their callbacks with an abort so no submitter hangs.
      repartitioner.BeginShutdown();
      tm.DrainQueue(txn::AbortReason::kShutdown);
      result.drained = tm.inflight() == 0 && tm.queue().Empty();
    }
    const auto audit_t0 = std::chrono::steady_clock::now();
    result.audit = cluster.CheckConsistency();
    result.audit_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      audit_t0)
            .count();
    if (result.audit.ok() && cluster.lock_manager().LockedKeyCount() != 0) {
      result.audit = Status::Internal(
          "locks leaked after drain: " +
          std::to_string(cluster.lock_manager().LockedKeyCount()) +
          " keys still locked");
    }
  }

  if (!config_.workload_options.record_trace_path.empty()) {
    Status s = record_trace.SaveToFile(config_.workload_options.record_trace_path,
                                       static_cast<uint32_t>(catalog.size()));
    if (!s.ok()) {
      SOAP_LOG(kError) << "trace save failed: " << s.ToString();
    }
  }

  result.plan_ops_total = repartitioner.registry().total_ops();
  result.plan_ops_applied = tm.counters().repartition_ops_applied;
  result.piggybacked_ops = tm.counters().piggybacked_ops_applied;
  result.counters = tm.counters();
  result.lock_stats = cluster.lock_manager().stats();
  result.tpc_stats = cluster.tpc().stats();
  if (injector != nullptr) {
    result.faults_crashes = injector->stats().crashes;
    result.faults_msgs_dropped = injector->stats().msgs_dropped;
    result.faults_msgs_parked = injector->stats().msgs_parked;
  }
  result.plan_completed = repartitioner.Finished();
  result.plan_generations = repartitioner.rounds_started();
  if (online_planner != nullptr) {
    result.planner_stats = online_planner->stats();
  }
  if (replica_mgr != nullptr) {
    result.replica_stats = replica_mgr->stats();
    result.reads_routed = cluster.router().reads_routed();
    result.replica_reads = cluster.router().replica_reads();
    result.replica_count_final = cluster.routing_table().replicated_key_count();
  }
  result.end_time = sim.Now();
  result.events_executed = sim.events_executed();
  result.routing_bytes = cluster.routing_table().ApproxBytes();
  result.routing_ranges = cluster.routing_table().range_count();
  result.routing_exceptions = cluster.routing_table().exception_count();
  if (online_planner != nullptr) {
    result.graph_bytes = online_planner->graph().ApproxBytes();
    result.graph_vertices = online_planner->graph().vertex_count();
  }
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    const storage::Table& table = cluster.storage(n).table();
    result.storage_bytes += table.ApproxBytes();
    result.storage_materialized_rows += table.materialized_size();
  }
  result.mvcc_enabled = cluster.mvcc_enabled();
  if (cluster.mvcc_enabled()) {
    result.mvcc_versions_live = cluster.versions().versions_live();
    result.mvcc_gc_pruned = cluster.versions().pruned_total();
  }

  // --- Consistency verdict: offline history audit plus the quiescent
  // invariant sweep (the sweep's preconditions — empty lock table, settled
  // routing — only hold once the drain succeeded).
  if (check_on) {
    if (invariants != nullptr && result.drained) {
      invariants->SweepQuiescent(sim.Now());
    }
    result.check_report = check::CheckHistory(
        *recorder,
        config_.cluster.isolation == cluster::IsolationLevel::kSerializable,
        cluster.mvcc_enabled());
    if (audit_log != nullptr) {
      // Mirror the offline checker's violations as audit records (the
      // invariant engine already wrote its own as they fired).
      for (const check::Violation& v : result.check_report.violations) {
        obs::AuditRecord rec(audit_log.get(), "invariant", v.at);
        rec.Str("check", v.check).Str("detail", v.detail);
      }
    }
    for (const check::Violation& v : invariants->violations()) {
      result.check_report.violations.push_back(v);
    }
    result.invariant_checks = invariants->checks_run();
    result.check_breaks_fired = tm.check_breaks_fired();
    if (audit_log != nullptr) {
      obs::AuditRecord rec(audit_log.get(), "check_summary", sim.Now());
      rec.U64("violations", result.check_report.violations.size())
          .U64("txns", result.check_report.txns_checked)
          .U64("reads", result.check_report.reads_checked)
          .U64("ww", result.check_report.ww_edges)
          .U64("wr", result.check_report.wr_edges)
          .U64("rw", result.check_report.rw_edges)
          .U64("rw_cycles", result.check_report.rw_cycles)
          .U64("invariant_checks", result.invariant_checks)
          .U64("breaks_fired", result.check_breaks_fired)
          .Bool("ok", result.check_report.ok());
    }
  }

  if (audit_log != nullptr) {
    // Trailer record: final counters so a truncated run is detectable and
    // the file summarises itself without the metrics export.
    const cluster::TmCounters& c = tm.counters();
    obs::AuditRecord rec(audit_log.get(), "run_end", sim.Now());
    rec.U64("events", sim.events_executed())
        .U64("committed_normal", c.committed_normal)
        .U64("committed_repartition", c.committed_repartition)
        .U64("repartition_ops_applied", c.repartition_ops_applied)
        .U64("piggybacked_ops_applied", c.piggybacked_ops_applied)
        .U64("rounds", repartitioner.rounds_started())
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

  // --- Observability exports.
  auto note_export = [&result](Status s) {
    if (!s.ok()) {
      SOAP_LOG(kError) << "observability export failed: " << s.ToString();
      if (result.obs_export.ok()) result.obs_export = std::move(s);
    }
  };
  if (tracer != nullptr) {
    result.critical_path = tracer->AggregateCriticalPath();
    if (!config_.obs.trace_out.empty()) {
      note_export(tracer->WriteChromeJson(config_.obs.trace_out));
    }
  }
  if (metrics != nullptr) {
    if (!config_.obs.metrics_out.empty()) {
      note_export(metrics->WriteFile(config_.obs.metrics_out,
                                     metrics->ToPrometheusText()));
    }
    if (!config_.obs.metrics_jsonl_out.empty()) {
      note_export(metrics->WriteFile(config_.obs.metrics_jsonl_out,
                                     metrics_jsonl.str()));
    }
  }
  if (audit_log != nullptr && !config_.obs.audit_out.empty()) {
    note_export(audit_log->WriteFile(config_.obs.audit_out));
  }
  if (recorder != nullptr && !config_.check.history_out.empty()) {
    note_export(recorder->WriteHistoryFile(config_.check.history_out));
  }
  if (timeline != nullptr && !config_.obs.timeline_out.empty()) {
    note_export(timeline->WriteFile(config_.obs.timeline_out));
  }
  result.metrics = std::move(metrics);
  result.tracer = std::move(tracer);
  result.audit_log = std::move(audit_log);
  result.timeline = std::move(timeline);
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
