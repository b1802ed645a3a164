#include "replay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>

#include "spans.h"
#include "src/check/checker.h"
#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"
#include "src/mvcc/snapshot_manager.h"
#include "src/mvcc/version_store.h"
#include "src/planner/co_access_graph.h"
#include "src/repartition/cost_model.h"
#include "src/repartition/optimizer.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"
#include "src/workload/template_catalog.h"

namespace perfbench {

namespace {

using soap::SimTime;
using soap::storage::TupleKey;
using soap::txn::OpKind;

// Timed call sites; the metric each one feeds is named in Replay().
constexpr const char* kSpanTxn = "replay.txn";
constexpr const char* kSpanEmpty = "replay.empty";
constexpr const char* kSpanGenerate = "workload.generate_interval";
constexpr const char* kSpanRoute = "router.route_txn";
constexpr const char* kSpanGetPrimary = "router.get_primary";
constexpr const char* kSpanLocks = "txn.acquire_release";
constexpr const char* kSpanRead = "storage.read";
constexpr const char* kSpanApply = "storage.apply";
constexpr const char* kSpanSnapshot = "mvcc.snapshot";
constexpr const char* kSpanReadAsOf = "mvcc.read_as_of";
constexpr const char* kSpanInstall = "mvcc.install";
constexpr const char* kSpanWritePathTxn = "mvcc.write_path_txn";
constexpr const char* kSpanObserve = "planner.observe";
constexpr const char* kSpanRecord = "check.record";
constexpr const char* kSpanVerify = "check.verify";

// Transactions replayed, sampled evenly over the whole horizon: enough
// for a p99 with 200 samples beyond it, and few enough that the spans of
// one replay stay a few MB.
constexpr uint64_t kReplayTxns = 20000;

// Virtual time between replayed transactions; each commits halfway.
constexpr SimTime kTxnSpacing = 1000;

// The MVCC write path is replayed on a write-bearing variant of the
// cell's stream: same seed and templates, this share of queries writing.
// An MVCC cell can run read-only clients only, because any client write
// under first-updater-wins aborts some transactions at its concurrency.
constexpr double kMvccWriteFraction = 0.1;

// Snapshots held open behind the newest one while the write path is
// replayed, so the version store's pruner has readers to keep versions for.
constexpr size_t kMvccOpenSnapshots = 32;

}  // namespace

ReplayOutcome Replay(const soap::engine::ExperimentConfig& config,
                     const ReplayOptions& options) {
  using namespace soap;
  ReplayOutcome out;
  auto fail = [&out](const std::string& message) {
    if (out.ok) {
      out.ok = false;
      out.error = message;
    }
  };
  if (!config.workload_options.replay_trace_path.empty()) {
    fail("replay of recorded traces is not supported");
    return out;
  }

  // --- The stack, assembled as Experiment::Run assembles it.
  const workload::WorkloadSpec& spec = config.workload_options.spec;
  sim::Simulator sim;
  cluster::ClusterConfig cluster_config = config.cluster;
  cluster_config.num_keys = spec.num_keys;
  cluster_config.seed = config.seed;
  const bool scale_out = spec.num_keys > config.scale.sketch_threshold;
  cluster_config.lazy_tables = scale_out;
  cluster::Cluster cluster(&sim, cluster_config);
  workload::TemplateCatalog catalog(spec, cluster.num_nodes());
  router::RoutingTable& routing = cluster.routing_table();
  if (Status s = routing.AssignRoundRobin(0, spec.num_keys, cluster.num_nodes());
      !s.ok()) {
    fail("routing base: " + s.ToString());
    return out;
  }
  auto load = [&](TupleKey key, uint32_t partition) {
    storage::Tuple tuple;
    tuple.key = key;
    tuple.content = static_cast<int64_t>(key);
    if (Status s = cluster.LoadTuple(tuple, partition); !s.ok()) {
      fail("bulk load: " + s.ToString());
    }
  };
  if (!scale_out) {
    for (TupleKey key = 0; key < spec.num_keys; ++key) {
      load(key, catalog.InitialPartitionOf(key));
    }
  } else {
    catalog.ForEachInitialOverride([&](TupleKey key, uint32_t partition) {
      cluster.storage(static_cast<uint32_t>(key % cluster.num_nodes()))
          .BulkEvict(key);
      load(key, partition);
    });
  }
  cluster.CheckpointAll();

  // --- Post-plan placement: deploy the one-shot optimizer plan, so every
  // lookup below resolves against the placement the cell converges to.
  repartition::CostModel cost_model(cluster_config.costs, spec.queries_per_txn);
  repartition::Optimizer optimizer(&catalog, &cost_model,
                                   cluster.TotalWorkers());
  const repartition::RepartitionPlan plan = optimizer.DerivePlan(routing);
  for (const repartition::PlacementAction& op : plan.ops) {
    if (op.kind != repartition::PlacementKind::kMigrate) continue;
    Result<storage::Tuple> tuple =
        cluster.storage(op.source_partition).Read(op.key);
    Status s = tuple.status();
    if (s.ok()) s = cluster.storage(op.target_partition).ApplyInsert(0, *tuple);
    if (s.ok()) s = cluster.storage(op.source_partition).ApplyErase(0, op.key);
    if (s.ok()) s = routing.Migrate(op.key, op.source_partition, op.target_partition);
    if (!s.ok()) {
      fail("plan deploy: " + s.ToString());
      return out;
    }
  }

  // --- Layers the cell runs with; the rest stay unmeasured (zero).
  const bool mvcc = cluster.mvcc_enabled();
  const bool serializable =
      config.cluster.isolation == cluster::IsolationLevel::kSerializable;
  const bool shared_read_locks = serializable && !mvcc;
  if (config.replicas.enabled) {
    cluster.router().set_policy(router::ReplicaPolicy::kNearestLive);
  }
  std::unique_ptr<planner::CoAccessGraph> graph;
  if (config.planner_options.enabled) {
    planner::CoAccessGraphConfig graph_config = config.planner_options.graph;
    graph_config.num_keys = spec.num_keys;
    graph_config.sketch_threshold = config.scale.sketch_threshold;
    graph_config.sketch_topk = config.scale.sketch_topk;
    graph_config.supernode_ranges = config.scale.supernode_ranges;
    graph = std::make_unique<planner::CoAccessGraph>(graph_config);
  }
  SimTime record_clock = 0;
  std::unique_ptr<check::HistoryRecorder> recorder;
  if (config.check.Enabled()) {
    recorder = std::make_unique<check::HistoryRecorder>();
    recorder->set_clock([&record_clock]() { return record_clock; });
  }

  // --- The cell's own arrival stream.
  workload::CapacityModel capacity;
  capacity.collocated_cost = cost_model.CollocatedTxnCost();
  capacity.distributed_cost = cost_model.DistributedTxnCost(2);
  capacity.total_workers = cluster.TotalWorkers();
  const double per_interval_mean =
      workload::WorkloadGenerator::CalibrateArrivalRate(
          catalog, capacity, config.workload_options.utilization) *
      ToSeconds(config.interval_length);
  const uint32_t intervals =
      config.warmup_intervals + config.measured_intervals;
  const double expected_txns = per_interval_mean * intervals;
  const auto stride = static_cast<uint64_t>(std::max(
      1.0, std::floor(expected_txns / static_cast<double>(kReplayTxns))));
  // The engine's generator seed (experiment.cc). run.py checks that the
  // stream generated here has as many transactions as the cell submitted.
  workload::WorkloadGenerator generator(&catalog, config.seed * 7919 + 13);

  SpanLog log;
  log.Reserve(static_cast<size_t>(kReplayTxns) *
                  (6 + 4 * spec.queries_per_txn) +
              intervals + 2048);
  const uint32_t span_txn = log.Intern(kSpanTxn);
  const uint32_t span_empty = log.Intern(kSpanEmpty);
  const uint32_t span_generate = log.Intern(kSpanGenerate);
  const uint32_t span_route = log.Intern(kSpanRoute);
  const uint32_t span_get_primary = log.Intern(kSpanGetPrimary);
  const uint32_t span_locks = log.Intern(kSpanLocks);
  const uint32_t span_read = log.Intern(kSpanRead);
  const uint32_t span_apply = log.Intern(kSpanApply);
  const uint32_t span_snapshot = log.Intern(kSpanSnapshot);
  const uint32_t span_read_as_of = log.Intern(kSpanReadAsOf);
  const uint32_t span_install = log.Intern(kSpanInstall);
  const uint32_t span_write_path_txn = log.Intern(kSpanWritePathTxn);
  const uint32_t span_observe = log.Intern(kSpanObserve);
  const uint32_t span_record = log.Intern(kSpanRecord);
  const uint32_t span_verify = log.Intern(kSpanVerify);

  // Cost of the span machinery itself, for reading the numbers below.
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan empty(&log, span_empty, 0);
  }

  txn::LockManager& locks = cluster.lock_manager();
  uint64_t write_ops = 0;
  txn::TxnId next_id = 1;
  SimTime now = kTxnSpacing;
  std::vector<uint64_t> observed_writer;

  auto replay_txn = [&](txn::Transaction* t) {
    t->id = next_id++;
    const SimTime begin_ts = now;
    const SimTime commit_ts = now + kTxnSpacing / 2;
    now += kTxnSpacing;
    ScopedSpan root(&log, span_txn, t->id);
    if (mvcc) {
      ScopedSpan span(&log, span_snapshot, t->id, root.id());
      cluster.snapshots().Begin(t->id, begin_ts);
    }

    bool routed = false;
    {
      ScopedSpan span(&log, span_route, t->id, root.id());
      routed = cluster.router().RouteTransaction(t).ok();
    }
    if (!routed) fail("RouteTransaction failed");
    for (const txn::Operation& op : t->ops) {
      Result<router::PartitionId> primary = router::PartitionId{0};
      {
        ScopedSpan span(&log, span_get_primary, t->id, root.id());
        primary = routing.GetPrimary(op.key);
      }
      if (!primary.ok() || *primary != op.source_partition) {
        fail("GetPrimary disagrees with RouteTransaction on key " +
             std::to_string(op.key));
      }
    }

    bool granted = true;
    {
      ScopedSpan span(&log, span_locks, t->id, root.id());
      for (const txn::Operation& op : t->ops) {
        const bool write = op.kind == OpKind::kWrite;
        if (!write && !shared_read_locks) continue;
        const txn::LockMode mode =
            write ? txn::LockMode::kExclusive : txn::LockMode::kShared;
        granted &= locks.Acquire(t->id, op.key, mode, []() {}) ==
                   txn::AcquireOutcome::kGranted;
      }
      locks.ReleaseAll(t->id);
    }
    if (!granted) fail("an uncontended lock was not granted");

    // Reads at execution, writes at commit, as the TM orders them.
    observed_writer.assign(t->ops.size(), 0);
    for (size_t i = 0; i < t->ops.size(); ++i) {
      const txn::Operation& op = t->ops[i];
      if (op.kind != OpKind::kRead) continue;
      bool found = false;
      {
        ScopedSpan span(&log, span_read, t->id, root.id());
        found = cluster.storage(op.source_partition).Read(op.key).ok();
      }
      if (!found) fail("read missing at its routed partition");
      // The TM resolves a snapshot read's version only for the recorder.
      if (mvcc && recorder != nullptr) {
        ScopedSpan span(&log, span_read_as_of, t->id, root.id());
        observed_writer[i] = cluster.versions().ReadAsOf(op.key, begin_ts).writer;
      }
    }
    for (const txn::Operation& op : t->ops) {
      if (op.kind != OpKind::kWrite) continue;
      ++write_ops;
      Status applied;
      {
        ScopedSpan span(&log, span_apply, t->id, root.id());
        applied = cluster.storage(op.source_partition)
                      .ApplyUpdate(t->id, op.key, op.write_value,
                                   mvcc ? commit_ts : 0);
      }
      if (!applied.ok()) fail("ApplyUpdate: " + applied.ToString());
      if (mvcc) {
        ScopedSpan span(&log, span_install, t->id, root.id());
        cluster.versions().Install(op.key, t->id, op.write_value, commit_ts);
      }
    }

    if (graph != nullptr) {
      ScopedSpan span(&log, span_observe, t->id, root.id());
      graph->Observe(*t);
    }
    if (recorder != nullptr) {
      ScopedSpan span(&log, span_record, t->id, root.id());
      record_clock = begin_ts;
      for (size_t i = 0; i < t->ops.size(); ++i) {
        const txn::Operation& op = t->ops[i];
        if (op.kind != OpKind::kRead) continue;
        if (mvcc) {
          recorder->OnSnapshotRead(t->id, op.key, op.source_partition,
                                   observed_writer[i], begin_ts, begin_ts);
        } else {
          recorder->OnRead(t->id, op.key, op.source_partition, begin_ts);
        }
      }
      record_clock = commit_ts;
      for (const txn::Operation& op : t->ops) {
        if (op.kind != OpKind::kWrite) continue;
        storage::Tuple tuple;
        tuple.key = op.key;
        tuple.content = op.write_value;
        recorder->OnApplyUpdate(op.source_partition, t->id, tuple);
      }
      t->state = txn::TxnState::kCommitted;
      recorder->OnCommit(*t, commit_ts);
    }
    if (mvcc) {
      ScopedSpan span(&log, span_snapshot, t->id, root.id());
      cluster.snapshots().End(t->id);
    }
  };

  uint64_t sequence = 0;
  for (uint32_t k = 0; k < intervals && out.ok; ++k) {
    std::vector<std::unique_ptr<txn::Transaction>> batch;
    {
      ScopedSpan span(&log, span_generate, k);
      batch = generator.GenerateInterval(per_interval_mean, k);
      log.SetItems(span.id(), static_cast<uint32_t>(batch.size()));
    }
    out.txns_generated += batch.size();
    for (auto& t : batch) {
      if (sequence++ % stride != 0 || out.txns_replayed >= kReplayTxns) {
        continue;
      }
      replay_txn(t.get());
      ++out.txns_replayed;
    }
    if (graph != nullptr) graph->Decay();
  }

  if (recorder != nullptr && out.ok) {
    check::CheckReport report;
    {
      ScopedSpan span(&log, span_verify, 0);
      report = check::CheckHistory(*recorder, serializable, mvcc);
    }
    if (!report.ok()) fail("replayed history: " + report.ToString());
  }
  if (out.ok) {
    if (Status s = cluster.CheckConsistency(); !s.ok()) {
      fail("post-replay audit: " + s.ToString());
    }
    if (locks.LockedKeyCount() != 0) fail("locks leaked by the replay");
  }

  // --- MVCC write path: snapshot reads and version installs over a
  // write-bearing variant of the stream, on a version store of its own.
  // A template's keys are either always read or always written, so reads
  // alone would only ever find base versions: every key is read at the
  // snapshot, written ones too (read-modify-write), before the installs.
  // Replayed transactions never overlap, so every read must see the last
  // installed value of its key (or the key itself, its base version).
  uint64_t as_of_reads = 0;
  uint64_t chain_reads = 0;
  if (mvcc && out.ok) {
    workload::WorkloadSpec write_spec = spec;
    write_spec.write_fraction = kMvccWriteFraction;
    workload::TemplateCatalog write_catalog(write_spec, cluster.num_nodes());
    workload::WorkloadGenerator write_generator(&write_catalog,
                                                config.seed * 7919 + 13);
    mvcc::SnapshotManager snapshots;
    mvcc::VersionStore versions(&snapshots);
    std::unordered_map<TupleKey, int64_t> latest;
    std::deque<txn::TxnId> open;
    uint64_t write_sequence = 0;
    uint64_t write_replayed = 0;
    for (uint32_t k = 0; k < intervals && out.ok; ++k) {
      for (auto& t : write_generator.GenerateInterval(per_interval_mean, k)) {
        if (write_sequence++ % stride != 0 || write_replayed >= kReplayTxns) {
          continue;
        }
        ++write_replayed;
        t->id = next_id++;
        const SimTime begin_ts = now;
        const SimTime commit_ts = now + kTxnSpacing / 2;
        now += kTxnSpacing;
        ScopedSpan root(&log, span_write_path_txn, t->id);
        {
          ScopedSpan span(&log, span_snapshot, t->id, root.id());
          snapshots.Begin(t->id, begin_ts);
        }
        open.push_back(t->id);
        for (const txn::Operation& op : t->ops) {
          mvcc::VersionRead read;
          {
            ScopedSpan span(&log, span_read_as_of, t->id, root.id());
            read = versions.ReadAsOf(op.key, begin_ts);
          }
          ++as_of_reads;
          auto it = latest.find(op.key);
          if (it != latest.end()) ++chain_reads;
          if (read.value != (it != latest.end() ? it->second
                                                : static_cast<int64_t>(op.key))) {
            fail("ReadAsOf missed the last installed version of key " +
                 std::to_string(op.key));
          }
        }
        for (const txn::Operation& op : t->ops) {
          if (op.kind != OpKind::kWrite) continue;
          {
            ScopedSpan span(&log, span_install, t->id, root.id());
            versions.Install(op.key, t->id, op.write_value, commit_ts);
          }
          latest[op.key] = op.write_value;
        }
        if (open.size() > kMvccOpenSnapshots) {
          ScopedSpan span(&log, span_snapshot, open.front(), root.id());
          snapshots.End(open.front());
          open.pop_front();
        }
      }
    }
  }

  // --- Per-layer metrics (zero for layers the cell does not run).
  auto timing = [&](const std::string& metric, const char* span) {
    const SpanSummary s = log.Summarize(span);
    out.metrics.emplace_back(metric + ".p50", s.p50_ns);
    out.metrics.emplace_back(metric + ".p99", s.p99_ns);
    out.metrics.emplace_back(metric + ".n", static_cast<double>(s.n));
  };
  timing("router.get_primary_ns", kSpanGetPrimary);
  timing("router.route_txn_ns", kSpanRoute);
  timing("txn.acquire_release_ns", kSpanLocks);
  timing("storage.read_ns", kSpanRead);
  timing("storage.apply_ns", kSpanApply);
  timing("workload.gen_ns_per_txn", kSpanGenerate);
  timing("planner.observe_ns_per_txn", kSpanObserve);
  timing("mvcc.snapshot_ns", kSpanSnapshot);
  timing("mvcc.read_as_of_ns", kSpanReadAsOf);
  timing("mvcc.install_ns", kSpanInstall);
  timing("check.record_ns_per_txn", kSpanRecord);
  timing("replay.txn_self_ns", kSpanTxn);
  out.metrics.emplace_back("check.verify_s",
                           log.Summarize(kSpanVerify).total_ns / 1e9);
  out.metrics.emplace_back("replay.empty_span_ns.p50",
                           log.Summarize(kSpanEmpty).p50_ns);
  const double replayed = static_cast<double>(std::max<uint64_t>(1, out.txns_replayed));
  out.metrics.emplace_back("txn.write_ops_per_txn",
                           static_cast<double>(write_ops) / replayed);
  out.metrics.emplace_back(
      "mvcc.chain_read_share",
      static_cast<double>(chain_reads) /
          static_cast<double>(std::max<uint64_t>(1, as_of_reads)));

  out.spans = log.size();
  if (!options.spans_out.empty() && !log.WriteCsv(options.spans_out)) {
    fail("cannot write " + options.spans_out);
  }
  return out;
}

}  // namespace perfbench
