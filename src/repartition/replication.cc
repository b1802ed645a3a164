#include "src/repartition/replication.h"

#include <algorithm>
#include <string>

namespace soap::repartition {

Result<RepartitionPlan> ReplicaPlanner::PlanReplication(
    const router::RoutingTable& routing,
    const std::vector<storage::TupleKey>& keys, uint32_t factor) const {
  if (factor < 1 || factor > num_partitions_) {
    return Status::InvalidArgument(
        "replication factor " + std::to_string(factor) +
        " out of range for " + std::to_string(num_partitions_) +
        " partitions");
  }
  // Copies already hosted per partition, to spread the new ones.
  std::vector<uint64_t> load(num_partitions_, 0);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    load[p] = routing.CountPrimaries(p);
  }

  RepartitionPlan plan;
  uint64_t next_id = 1;
  for (storage::TupleKey key : keys) {
    Result<router::Placement> placement = routing.GetPlacement(key);
    if (!placement.ok()) return placement.status();
    uint32_t copies = static_cast<uint32_t>(placement->copy_count());
    while (copies < factor) {
      // Least-loaded partition without a copy of this key.
      int best = -1;
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        if (placement->HasReplicaOn(p)) continue;
        if (best < 0 || load[p] < load[static_cast<uint32_t>(best)]) {
          best = static_cast<int>(p);
        }
      }
      if (best < 0) break;  // no eligible partition left
      PlacementAction op;
      op.id = next_id++;
      op.kind = PlacementKind::kReplicaCreate;
      op.key = key;
      op.source_partition = placement->primary;
      op.target_partition = static_cast<uint32_t>(best);
      plan.ops.push_back(op);
      placement->replicas.push_back(static_cast<uint32_t>(best));
      load[static_cast<uint32_t>(best)]++;
      ++copies;
    }
  }
  return plan;
}

Result<RepartitionPlan> ReplicaPlanner::PlanDereplication(
    const router::RoutingTable& routing,
    const std::vector<storage::TupleKey>& keys, uint32_t factor) const {
  if (factor < 1) {
    return Status::InvalidArgument("cannot drop below one copy");
  }
  std::vector<uint64_t> load(num_partitions_, 0);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    load[p] = routing.CountPrimaries(p);
  }

  RepartitionPlan plan;
  uint64_t next_id = 1;
  for (storage::TupleKey key : keys) {
    Result<router::Placement> placement = routing.GetPlacement(key);
    if (!placement.ok()) return placement.status();
    auto copies = static_cast<uint32_t>(placement->copy_count());
    // Drop from the most-loaded replica partitions first (never the
    // primary).
    std::vector<uint32_t> replicas = placement->replicas;
    std::sort(replicas.begin(), replicas.end(),
              [&](uint32_t a, uint32_t b) { return load[a] > load[b]; });
    for (uint32_t p : replicas) {
      if (copies <= factor) break;
      PlacementAction op;
      op.id = next_id++;
      op.kind = PlacementKind::kReplicaDrop;
      op.key = key;
      op.source_partition = p;
      plan.ops.push_back(op);
      if (load[p] > 0) load[p]--;
      --copies;
    }
  }
  return plan;
}

}  // namespace soap::repartition
