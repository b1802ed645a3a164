#include "src/cluster/cluster.h"

#include <algorithm>
#include <string>
#include <vector>

namespace soap::cluster {

Cluster::Cluster(sim::Simulator* sim, const ClusterConfig& config)
    : sim_(sim),
      config_(config),
      network_(sim, config.network, config.seed ^ 0xA5A5A5A5ULL),
      tpc_(sim, &network_),
      routing_table_(config.num_keys),
      router_(&routing_table_) {
  nodes_.reserve(config_.num_nodes);
  storage_.reserve(config_.num_nodes);
  // Size the hash maps from the config's cardinalities up front: tables see
  // ~num_keys/num_nodes rows (replication adds slack), and the lock table
  // sees at most max_inflight concurrent transactions touching a handful of
  // keys each. Avoids rehash stalls mid-run.
  // In lazy mode the base stays virtual, so reserving num_keys/num_nodes
  // buckets would defeat the point; materialised rows grow on demand.
  const size_t rows_per_node =
      config_.num_nodes == 0 || config_.lazy_tables
          ? 0
          : (static_cast<size_t>(config_.num_keys) / config_.num_nodes) * 2;
  for (uint32_t i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(sim_, i, config_.workers_per_node));
    storage_.push_back(std::make_unique<storage::StorageEngine>(i));
    if (config_.lazy_tables) {
      storage_.back()->SetLazyBase(config_.num_keys, config_.num_nodes);
    } else {
      storage_.back()->Reserve(rows_per_node);
    }
  }
  lock_manager_.Reserve(static_cast<size_t>(config_.max_inflight) * 8,
                        static_cast<size_t>(config_.max_inflight) * 2);
  if (config_.cc == mvcc::ConcurrencyControl::kMvcc) {
    snapshots_ = std::make_unique<mvcc::SnapshotManager>();
    versions_ = std::make_unique<mvcc::VersionStore>(snapshots_.get());
  }
}

Status Cluster::LoadTuple(const storage::Tuple& tuple, uint32_t partition) {
  if (partition >= config_.num_nodes) {
    return Status::InvalidArgument("partition " + std::to_string(partition) +
                                   " out of range");
  }
  storage_[partition]->BulkLoad(tuple);
  return routing_table_.SetPrimary(tuple.key, partition);
}

void Cluster::CheckpointAll() {
  for (auto& engine : storage_) engine->Checkpoint();
}

Duration Cluster::TotalBusyTime(WorkCategory category) const {
  Duration total = 0;
  for (const auto& node : nodes_) total += node->busy_time(category);
  return total;
}

namespace {

/// Calls fn(p, key) for every virtual row of a lazy table that could be
/// unplaced on its partition p (and possibly for some that are placed).
///
/// A lazy table on partition p with stride S virtually holds the keys
/// k ≡ p (mod S) below its num_keys. Under a round-robin base range of
/// modulus S, routing's base owner of such a key is k % S = p, so the row
/// is placed unless a point exception moved its primary. Only the overlay's
/// exceptions and keys outside such ranges can be unplaced: the former are
/// visited from the overlay, the latter walked key by key. A table whose
/// base does not follow that layout (declared for another partition, or a
/// stride other tables do not share) is walked whole.
template <typename Fn>
void ForEachSuspectVirtualRow(
    const router::RoutingTable& routing,
    const std::vector<std::unique_ptr<storage::StorageEngine>>& storage,
    Fn&& fn) {
  const uint32_t n = static_cast<uint32_t>(storage.size());
  auto walk = [&](uint32_t p, uint64_t from, uint64_t to) {
    const storage::Table& table = storage[p]->table();
    const storage::Table::LazyBase base = table.lazy_base();
    uint64_t key = from + (base.partition + base.stride - from % base.stride) %
                              base.stride;
    for (; key < to; key += base.stride) {
      if (table.VirtualLive(key)) fn(p, key);
    }
  };
  uint32_t stride = 0;  // shared by the tables that follow the layout
  std::vector<uint8_t> arithmetic(n, 0);
  for (uint32_t p = 0; p < n; ++p) {
    const storage::Table& table = storage[p]->table();
    if (!table.lazy()) continue;
    const storage::Table::LazyBase base = table.lazy_base();
    if (base.partition == p && (stride == 0 || base.stride == stride)) {
      stride = base.stride;
      arithmetic[p] = 1;
    } else {
      walk(p, 0, base.num_keys);
    }
  }
  if (stride == 0) return;
  for (uint32_t p = 0; p < n; ++p) {
    if (!arithmetic[p]) continue;
    const uint64_t num_keys = storage[p]->table().lazy_base().num_keys;
    uint64_t covered = 0;  // keys below this are covered or walked
    routing.ForEachRange([&](storage::TupleKey start, storage::TupleKey end,
                             bool round_robin, uint32_t owner) {
      if (!round_robin || owner != stride) return;
      if (covered < start) {
        walk(p, covered, std::min<uint64_t>(start, num_keys));
      }
      covered = std::max<uint64_t>(covered, end);
    });
    if (covered < num_keys) walk(p, covered, num_keys);
  }
  routing.ForEachException([&](storage::TupleKey key, uint32_t) {
    const uint64_t p = key % stride;
    if (p < n && arithmetic[p] && storage[p]->table().VirtualLive(key)) {
      fn(static_cast<uint32_t>(p), key);
    }
  });
}

}  // namespace

Status Cluster::CheckConsistency() const {
  // One ownership audit for the end-of-run check and the invariant sweep's
  // prefilter. Three facts together are equivalent to four per-key
  // properties over the whole keyspace (every placed copy stored, every
  // stored tuple placed, no partition listed twice in a placement, no
  // placement on an unknown partition):
  //   (1) stored ⊆ placed: every stored tuple is placed on its partition;
  //   (2) per partition, the stored-row count equals the number of copies
  //       routing places there (O(1) maintained counters);
  //   (3) partitions >= num_nodes have zero counters.
  // By (1) the stored keys inject into the distinct keys placed on p, so
  // stored <= distinct placed <= placed copies = stored (2): all equal.
  // Hence every placed key is stored, and no placement lists p twice.
  //
  // Cost: (1) visits materialized rows plus, on lazy tables, only the
  // virtual rows a routing exception or a mismatched base range could
  // have displaced (ForEachSuspectVirtualRow); (2) and (3) are counters.
  // The smallest unplaced key of the lowest failing partition is named.
  constexpr storage::TupleKey kNone = ~storage::TupleKey{0};
  const uint32_t num_nodes = config_.num_nodes;
  std::vector<storage::TupleKey> unplaced(num_nodes, kNone);
  auto check = [&](uint32_t p, storage::TupleKey key) {
    if (key < unplaced[p] && !routing_table_.IsPlacedOn(key, p)) {
      unplaced[p] = key;
    }
  };
  for (uint32_t p = 0; p < num_nodes; ++p) {
    storage_[p]->table().ForEachMaterialized(
        [&](const storage::Tuple& tuple) { check(p, tuple.key); });
  }
  ForEachSuspectVirtualRow(routing_table_, storage_, check);

  for (uint32_t p = 0; p < num_nodes; ++p) {
    if (unplaced[p] != kNone) {
      return Status::Corruption(
          "partition " + std::to_string(p) + " stores unrouted key " +
          std::to_string(unplaced[p]));
    }
    const uint64_t placed = routing_table_.CountPrimaries(p) +
                            routing_table_.CountReplicas(p);
    const uint64_t stored = storage_[p]->table().size();
    if (stored != placed) {
      return Status::Corruption(
          "partition " + std::to_string(p) + " stores " +
          std::to_string(stored) + " tuples but routing places " +
          std::to_string(placed) + " there");
    }
  }
  for (uint32_t p = num_nodes; p < routing_table_.partition_extent(); ++p) {
    const uint64_t placed = routing_table_.CountPrimaries(p) +
                            routing_table_.CountReplicas(p);
    if (placed != 0) {
      return Status::Corruption(
          "routing places " + std::to_string(placed) +
          " copies on partition " + std::to_string(p) + " of a " +
          std::to_string(num_nodes) + "-node cluster");
    }
  }
  return Status::OK();
}

}  // namespace soap::cluster
