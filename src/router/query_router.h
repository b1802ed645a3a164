// Query router (§2.1): resolves each query's target partition from the
// routing table, chooses among replicas, and annotates transaction
// operations with their source partitions. The repartitioner calls back
// into the router to update mappings when repartition transactions commit.

#ifndef SOAP_ROUTER_QUERY_ROUTER_H_
#define SOAP_ROUTER_QUERY_ROUTER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/router/query_parser.h"
#include "src/router/routing_table.h"
#include "src/txn/transaction.h"

namespace soap::router {

/// Replica-selection policy for reads.
enum class ReplicaPolicy {
  kPrimaryOnly,  ///< always read the primary copy
  kRoundRobin,   ///< rotate over primary + replicas
  kNearestLive,  ///< prefer a live copy collocated with the caller
};

class QueryRouter {
 public:
  /// Sentinel for RouteReadNear/PickReadPartition: no collocation hint.
  static constexpr PartitionId kNoPreference = UINT32_MAX;

  /// Liveness probe: returns true if the partition's node is down. Unset
  /// means "everything is up" (the replication-off fast path).
  using DownProbe = std::function<bool(PartitionId)>;

  explicit QueryRouter(RoutingTable* table,
                       ReplicaPolicy policy = ReplicaPolicy::kPrimaryOnly)
      : table_(table), policy_(policy) {}

  const RoutingTable& routing_table() const { return *table_; }

  void set_policy(ReplicaPolicy policy) { policy_ = policy; }
  ReplicaPolicy policy() const { return policy_; }
  void set_down_probe(DownProbe probe) { down_probe_ = std::move(probe); }

  /// Partition a read of `key` should visit (replica choice applied).
  Result<PartitionId> RouteRead(storage::TupleKey key);

  /// Replica-aware read routing with a collocation hint: prefer the copy
  /// on `preferred` (typically the transaction's coordinator), else the
  /// primary, else the lowest-numbered live replica. Only ever deviates
  /// from the primary when the key actually has replicas, so with
  /// replication off this is exactly RouteRead.
  Result<PartitionId> RouteReadNear(storage::TupleKey key,
                                    PartitionId preferred);

  /// Side-effect-free version of RouteReadNear (no counters); used for
  /// coordinator selection so the pick is not double-counted.
  Result<PartitionId> PickReadPartition(storage::TupleKey key,
                                        PartitionId preferred) const;

  /// Partition a write of `key` must visit (always the primary).
  Result<PartitionId> RouteWrite(storage::TupleKey key);

  /// Fills every operation's source_partition. Distinct partitions touched
  /// are returned (the transaction's participant set before piggybacking).
  Result<std::vector<PartitionId>> RouteTransaction(txn::Transaction* txn);

  /// Parses SQL and routes it in one step (the paper's parser+router path;
  /// exercised by examples and tests, the hot path pre-parses).
  Result<PartitionId> RouteSql(std::string_view sql);

  /// True if all ops of the transaction land on a single partition — the
  /// distinction the whole cost model rests on (Ci vs 2·Ci).
  static bool IsCollocated(const std::vector<PartitionId>& partitions) {
    return partitions.size() == 1;
  }

  uint64_t routed_queries() const { return routed_queries_; }
  /// Read routes issued (RouteRead + RouteReadNear).
  uint64_t reads_routed() const { return reads_routed_; }
  /// Reads served by a non-primary copy — the replica-read fraction's
  /// numerator. Zero whenever no key has replicas.
  uint64_t replica_reads() const { return replica_reads_; }

  /// Publishes soap_replica_read_routed_total{target="primary"|"replica"}
  /// counters; nullptr detaches.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  /// Returns {chosen partition, current primary} for a read of `key`.
  Result<std::pair<PartitionId, PartitionId>> PickWithPrimary(
      storage::TupleKey key, PartitionId preferred) const;

  RoutingTable* table_;
  ReplicaPolicy policy_;
  DownProbe down_probe_;
  uint64_t routed_queries_ = 0;
  uint64_t round_robin_ = 0;
  uint64_t reads_routed_ = 0;
  uint64_t replica_reads_ = 0;
  // Observability hooks; nullptr when disabled.
  obs::Counter* m_reads_primary_ = nullptr;
  obs::Counter* m_reads_replica_ = nullptr;
};

}  // namespace soap::router

#endif  // SOAP_ROUTER_QUERY_ROUTER_H_
