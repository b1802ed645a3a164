#include "src/replica/replica_manager.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"

namespace soap::replica {

ReplicaManager::ReplicaManager(cluster::Cluster* cluster,
                               ReplicaManagerConfig config)
    : cluster_(cluster), config_(config) {}

void ReplicaManager::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_promotions_ = nullptr;
    m_replica_count_ = nullptr;
    m_replicated_keys_ = nullptr;
    return;
  }
  m_promotions_ = registry->GetCounter("soap_replica_promotions_total");
  m_replica_count_ = registry->GetGauge("soap_replica_count");
  m_replicated_keys_ = registry->GetGauge("soap_replicated_keys");
}

void ReplicaManager::PublishGauges() {
  if (m_replica_count_ == nullptr) return;
  const router::RoutingTable& routing = cluster_->routing_table();
  uint64_t replicas = 0;
  for (uint32_t p = 0; p < cluster_->num_nodes(); ++p) {
    replicas += routing.CountReplicas(p);
  }
  m_replica_count_->Set(static_cast<double>(replicas));
  m_replicated_keys_->Set(static_cast<double>(routing.replicated_key_count()));
}

void ReplicaManager::OnNodeCrash(uint32_t node) {
  // Nothing to fail over if no key is replicated; scheduling no event
  // keeps the replication-off run's event stream untouched.
  if (cluster_->routing_table().replicated_key_count() == 0) return;
  // Until the restart catch-up completes, the node's surviving replica
  // copies must be treated as stale (reads route around them).
  stale_.insert(node);
  cluster_->simulator()->After(config_.promotion_delay, [this, node]() {
    if (cluster_->node(node).down()) PromoteAwayFrom(node);
  });
}

void ReplicaManager::PromoteAwayFrom(uint32_t node) {
  router::RoutingTable& routing = cluster_->routing_table();
  uint64_t promoted = 0;
  // Ordered streaming sweep: ForEachReplicated resumes past each visited
  // key, so Promote below mutates the table safely mid-iteration.
  routing.ForEachReplicated([&](storage::TupleKey key,
                                const router::Placement& placement) {
    if (placement.primary != node) return;
    router::PartitionId best = router::QueryRouter::kNoPreference;
    for (router::PartitionId r : placement.replicas) {
      if (!cluster_->node(r).down() &&
          (best == router::QueryRouter::kNoPreference || r < best)) {
        best = r;
      }
    }
    if (best == router::QueryRouter::kNoPreference) return;
    Status s = routing.Promote(key, best);
    if (s.ok()) {
      ++promoted;
      ++stats_.promotions;
      if (m_promotions_) m_promotions_->Increment();
      if (promotion_hook_) promotion_hook_(key, best);
    } else {
      SOAP_LOG(kWarn) << "promotion of key " << key << " failed: "
                      << s.ToString();
    }
  });
  if (promoted > 0) ++stats_.failovers;
  if (audit_ != nullptr) {
    obs::AuditRecord rec(audit_, "promotion",
                         cluster_->simulator()->Now());
    rec.U64("node", node).U64("promoted", promoted).U64(
        "failovers", stats_.failovers);
  }
}

void ReplicaManager::OnNodeRestart(uint32_t node) {
  if (cluster_->routing_table().replicated_key_count() == 0) {
    // No replicated keys anywhere: WAL replay already restored this node
    // exactly, so there is nothing to catch up (and nothing stale).
    stale_.erase(node);
    return;
  }
  // Size the sweep by what the node stores now; the refresh set is
  // recomputed when the job completes so it reflects any writes that
  // landed during the sweep.
  const size_t stored = cluster_->storage(node).tuple_count();
  const Duration service =
      config_.catchup_fixed +
      config_.catchup_per_tuple * static_cast<Duration>(stored);
  cluster_->node(node).RunJob(service, cluster::WorkCategory::kRepartition,
                              cluster::JobClass::kBulk,
                              [this, node]() { ApplyCatchup(node); });
}

void ReplicaManager::ApplyCatchup(uint32_t node) {
  const uint64_t refreshed_before = stats_.catchup_refreshed;
  const uint64_t dropped_before = stats_.catchup_dropped;
  router::RoutingTable& routing = cluster_->routing_table();
  storage::StorageEngine& store = cluster_->storage(node);
  // Orphan pass: copies the routing table no longer places on this node
  // (migration committed, or the replica was dropped, while it was down)
  // are unreachable — erase them.
  std::vector<storage::TupleKey> keys;
  keys.reserve(store.tuple_count());
  store.table().ForEach(
      [&keys](const storage::Tuple& t) { keys.push_back(t.key); });
  std::sort(keys.begin(), keys.end());
  for (storage::TupleKey key : keys) {
    Result<router::Placement> placement = routing.GetPlacement(key);
    if (!placement.ok() || !placement->HasReplicaOn(node)) {
      if (store.ApplyErase(0, key).ok()) ++stats_.catchup_dropped;
    }
  }
  // Refresh pass, straight off the routing table's ordered replica index:
  // surviving stale replicas take their content from the current primary.
  routing.ForEachReplicated([&](storage::TupleKey key,
                                const router::Placement& placement) {
    if (placement.primary == node) return;  // WAL replay restored it
    if (std::find(placement.replicas.begin(), placement.replicas.end(),
                  node) == placement.replicas.end()) {
      return;
    }
    if (!store.Contains(key)) return;  // never copied while it was down
    Result<storage::Tuple> fresh =
        cluster_->storage(placement.primary).Read(key);
    if (!fresh.ok()) return;
    if (store.ApplyUpdate(0, key, fresh->content).ok()) {
      ++stats_.catchup_refreshed;
    }
  });
  // Every surviving copy is refreshed (or dropped): the node's replicas
  // are coherent again and may serve reads.
  stale_.erase(node);
  if (audit_ != nullptr) {
    obs::AuditRecord rec(audit_, "catchup", cluster_->simulator()->Now());
    rec.U64("node", node)
        .U64("refreshed", stats_.catchup_refreshed - refreshed_before)
        .U64("dropped", stats_.catchup_dropped - dropped_before);
  }
}

}  // namespace soap::replica
