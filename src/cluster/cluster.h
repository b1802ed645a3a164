// Cluster wiring: N data nodes (paper: 5), their storage engines, one
// logical lock table, the routing table + query router, the network and
// the 2PC driver, all on one simulator.

#ifndef SOAP_CLUSTER_CLUSTER_H_
#define SOAP_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/mvcc/cc_mode.h"
#include "src/mvcc/snapshot_manager.h"
#include "src/mvcc/version_store.h"
#include "src/router/query_router.h"
#include "src/router/routing_table.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_engine.h"
#include "src/txn/lock_manager.h"
#include "src/txn/two_phase_commit.h"
#include "src/cluster/node.h"

namespace soap::cluster {

/// Service-time model for node work. Defaults are calibrated (see
/// EXPERIMENTS.md) so that a distributed transaction costs ~2x a collocated
/// one, matching the paper's cost model (§3.1), and so a 5-node cluster
/// saturates around the paper's observed ~2.5e4 txn/min.
struct ExecutionCosts {
  Duration begin = Millis(1);          ///< transaction start, coordinator
  Duration read_query = Millis(3);     ///< one single-tuple read
  Duration write_query = Millis(3);    ///< one single-tuple write
  Duration local_commit = Millis(2);   ///< single-partition commit
  Duration prepare = Millis(4);        ///< 2PC phase 1, per participant
  Duration commit_apply = Millis(4);   ///< 2PC phase 2, per participant
  Duration abort_cleanup = Millis(1);  ///< rollback work, per participant
  Duration migrate_insert = Millis(15);  ///< copy one tuple into dest
  Duration migrate_delete = Millis(3);   ///< drop one tuple at source
  Duration replica_create = Millis(15);
  Duration replica_delete = Millis(3);
  /// Swap primary/replica roles for one key (no data copied; the target
  /// already holds the bytes, so this is metadata + a WAL refresh record).
  Duration leader_shift = Millis(3);
  /// Abort a lock wait after this long (PostgreSQL lock_timeout analogue;
  /// also the backstop for distributed deadlocks).
  Duration lock_timeout = Seconds(30);
  /// End-to-end transaction deadline (the JTA transaction timeout in the
  /// paper's Bitronix stack): a normal transaction still queued this long
  /// after submission is aborted instead of dispatched. Repartition
  /// transactions never expire; their schedulers own their fate.
  Duration txn_timeout = Seconds(180);
  /// WAL-replay cost charged when a crashed node restarts (fault
  /// injection only): fixed startup plus a per-WAL-record scan term.
  Duration recovery_fixed = Millis(50);
  Duration recovery_per_record = Micros(2);
};

/// Transaction isolation level at the data nodes. The paper's prototype
/// runs PostgreSQL at read committed and notes a higher level "will
/// decrease the system concurrency and hence lower the system's capacity.
/// But it will not affect the performance of our algorithms" — the
/// isolation ablation bench validates exactly that claim.
enum class IsolationLevel : uint8_t {
  /// Reads are lock-free (MVCC); writes lock for the commit window.
  kReadCommitted,
  /// Reads take shared locks at execution, held to commit (S2PL); the
  /// write set upgrades them to exclusive at commit.
  kSerializable,
};

struct ClusterConfig {
  uint32_t num_nodes = 5;
  uint32_t workers_per_node = 2;
  IsolationLevel isolation = IsolationLevel::kReadCommitted;
  /// Total transactions executing concurrently (TM-side admission; the
  /// paper's PostgreSQL nodes cap at 100 connections each, hence 500).
  uint32_t max_inflight = 500;
  /// Concurrent low-priority (AfterAll) transactions admitted during an
  /// idle window.
  uint32_t low_priority_max_inflight = 10;
  uint64_t num_keys = 500'000;
  /// Production-cardinality mode: nodes declare their seed base lazily
  /// (Table::SetLazyBase) instead of materialising num_keys rows, and skip
  /// the up-front hash reserve. Requires the bulk loader to use
  /// AssignRoundRobin + override eviction instead of per-key LoadTuple.
  bool lazy_tables = false;
  /// Concurrency-control engine (--cc). k2PL is the seed pipeline and the
  /// default; kMvcc adds versioned storage + lock-free snapshot reads.
  mvcc::ConcurrencyControl cc = mvcc::ConcurrencyControl::k2PL;
  ExecutionCosts costs;
  sim::NetworkConfig network;
  uint64_t seed = 1;
};

/// Owns every per-node component. Partitions map 1:1 onto nodes, as in the
/// paper's testbed.
class Cluster {
 public:
  Cluster(sim::Simulator* sim, const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  sim::Simulator* simulator() { return sim_; }
  sim::Network& network() { return network_; }
  txn::LockManager& lock_manager() { return lock_manager_; }
  txn::TwoPhaseCommitDriver& tpc() { return tpc_; }
  router::RoutingTable& routing_table() { return routing_table_; }
  router::QueryRouter& router() { return router_; }

  uint32_t num_nodes() const { return config_.num_nodes; }
  Node& node(uint32_t i) { return *nodes_[i]; }
  storage::StorageEngine& storage(uint32_t i) { return *storage_[i]; }

  /// MVCC engine state; allocated only under --cc=mvcc (the accessors
  /// below must not be called otherwise). The store is cluster-global —
  /// see version_store.h for why migrations need not move chains.
  bool mvcc_enabled() const { return versions_ != nullptr; }
  mvcc::VersionStore& versions() { return *versions_; }
  mvcc::SnapshotManager& snapshots() { return *snapshots_; }

  /// Bulk-loads a tuple onto a partition and routes it there.
  Status LoadTuple(const storage::Tuple& tuple, uint32_t partition);

  /// Checkpoints every node's storage (call once after bulk load, and
  /// periodically if WAL growth matters); seals the un-logged load base
  /// so CrashAndRecover() is exact.
  void CheckpointAll();

  /// Total worker-time spent, per category, across all nodes.
  Duration TotalBusyTime(WorkCategory category) const;

  /// Aggregate capacity in worker-microseconds per second of virtual time
  /// (= number of workers): utilisation = busy_time / (elapsed * workers).
  uint32_t TotalWorkers() const {
    return config_.num_nodes * config_.workers_per_node;
  }

  /// Publishes the shared components' metrics (lock manager, 2PC driver,
  /// network) into `registry`; nullptr detaches. Per-node busy-time gauges
  /// are exported by the experiment engine, which owns interval timing.
  void BindMetrics(obs::MetricsRegistry* registry) {
    network_.BindMetrics(registry);
    lock_manager_.BindMetrics(registry);
    tpc_.BindMetrics(registry);
  }

  /// Forwards a lifecycle tracer to the 2PC driver (nullptr detaches).
  void set_tracer(obs::TxnTracer* tracer) { tpc_.set_tracer(tracer); }

  /// The ownership audit: every placed copy (primary or replica) is
  /// stored where routing says, every stored tuple is placed on its
  /// partition, no placement lists a partition twice and none names a
  /// partition beyond num_nodes. Costs O(materialized rows + routing
  /// exceptions), not O(keyspace): lazy virtual rows are reasoned about
  /// arithmetically. Used by tests, the engine's end-of-run audit and, as
  /// a prefilter, the invariant engine's ownership sweep.
  Status CheckConsistency() const;

 private:
  sim::Simulator* sim_;
  ClusterConfig config_;
  sim::Network network_;
  txn::LockManager lock_manager_;
  txn::TwoPhaseCommitDriver tpc_;
  router::RoutingTable routing_table_;
  router::QueryRouter router_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<storage::StorageEngine>> storage_;
  std::unique_ptr<mvcc::SnapshotManager> snapshots_;
  std::unique_ptr<mvcc::VersionStore> versions_;
};

}  // namespace soap::cluster

#endif  // SOAP_CLUSTER_CLUSTER_H_
