// Primary-copy replication manager: failover and catch-up on top of the
// routing table's placements. Normal-path replica maintenance (creation,
// deletion, synchronous write shipping) is executed by the transaction
// layer; this class owns the crash-time protocol:
//
//  * On a node crash, after a failure-detection delay, every key whose
//    primary lived on the node and that still has a live replica is
//    promoted: the lowest-numbered live replica becomes the primary and
//    the dead node is demoted to a (stale) replica entry, so its on-disk
//    copy stays routed and can be caught up later. Reads fail over to live
//    replicas immediately via QueryRouter::RouteReadNear; the delay
//    models the failure detector's lease, during which reads are served by
//    replicas while writes to the dead primary abort.
//
//  * On a restart (after WAL replay restores the node's committed state),
//    the node's surviving copies are caught up: every tuple it stores for
//    a key whose current primary is elsewhere is refreshed from that
//    primary, and tuples the routing table no longer places here are
//    dropped. The sweep is charged to the node as repartition-class work.
//
// With replication disabled no key ever has a replica, both sweeps visit
// nothing, and no event is scheduled that consumes virtual time — which is
// what keeps replication-off runs byte-identical.

#ifndef SOAP_REPLICA_REPLICA_MANAGER_H_
#define SOAP_REPLICA_REPLICA_MANAGER_H_

#include <cstdint>
#include <functional>
#include <set>

#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/obs/audit_log.h"
#include "src/obs/metrics.h"

namespace soap::replica {

struct ReplicaManagerConfig {
  /// Failure-detection delay between a crash and the promotion sweep (the
  /// lease a real failure detector would wait out before failing over).
  Duration promotion_delay = Millis(500);
  /// Catch-up sweep cost on the restarted node: fixed startup plus a
  /// per-stored-tuple term.
  Duration catchup_fixed = Millis(50);
  Duration catchup_per_tuple = Millis(3);
};

struct ReplicaStats {
  uint64_t promotions = 0;        ///< keys whose primary was failed over
  uint64_t failovers = 0;         ///< crash sweeps that promoted >=1 key
  uint64_t catchup_refreshed = 0; ///< stale replica tuples refreshed
  uint64_t catchup_dropped = 0;   ///< orphaned tuples erased at restart
};

class ReplicaManager {
 public:
  explicit ReplicaManager(cluster::Cluster* cluster,
                          ReplicaManagerConfig config = {});

  /// Fault-layer hook: called when `node` crashes. Schedules the promotion
  /// sweep `promotion_delay` later; the sweep is skipped if the node came
  /// back in the meantime.
  void OnNodeCrash(uint32_t node);

  /// Fault-layer hook: called once WAL replay has restored the node's
  /// committed state. Schedules the catch-up sweep as a job on the node.
  void OnNodeRestart(uint32_t node);

  const ReplicaStats& stats() const { return stats_; }

  /// True while `node`'s surviving replica copies may lag the primary: from
  /// its crash until the restart catch-up sweep finishes. Reads must not be
  /// served by a stale replica (the router folds this into its down probe),
  /// and the consistency checker's coherence sweep skips such nodes.
  bool IsStale(uint32_t node) const { return stale_.count(node) != 0; }

  /// Invoked once per key successfully failed over (after the routing
  /// table's Promote), with the key and its new primary. Used by the
  /// consistency checker's promotion invariants.
  void set_promotion_hook(
      std::function<void(storage::TupleKey, uint32_t)> hook) {
    promotion_hook_ = std::move(hook);
  }

  /// Publishes promotion counters and replica-count gauges into
  /// `registry`; nullptr detaches.
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Refreshes the replica-count gauges (the engine calls this at interval
  /// boundaries). No-op when metrics are unbound.
  void PublishGauges();

  /// Attaches the decision audit log: promotion sweeps and catch-up
  /// sweeps get one record each. nullptr detaches.
  void set_audit(obs::AuditLog* audit) { audit_ = audit; }

 private:
  void PromoteAwayFrom(uint32_t node);
  void ApplyCatchup(uint32_t node);

  cluster::Cluster* cluster_;
  ReplicaManagerConfig config_;
  ReplicaStats stats_;
  obs::Counter* m_promotions_ = nullptr;
  obs::Gauge* m_replica_count_ = nullptr;
  obs::Gauge* m_replicated_keys_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
  /// Nodes whose replica copies may lag (crashed, catch-up not yet done).
  std::set<uint32_t> stale_;
  std::function<void(storage::TupleKey, uint32_t)> promotion_hook_;
};

}  // namespace soap::replica

#endif  // SOAP_REPLICA_REPLICA_MANAGER_H_
