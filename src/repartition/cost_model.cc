#include "src/repartition/cost_model.h"

namespace soap::repartition {

Duration CostModel::CollocatedTxnCost() const {
  // begin + q queries + one-phase local commit. Reads and writes cost the
  // same in the default model; use the mean if they ever differ.
  const Duration query =
      (costs_.read_query + costs_.write_query) / 2;
  return costs_.begin + queries_per_txn_ * query + costs_.local_commit;
}

Duration CostModel::DistributedTxnCost(uint32_t partitions) const {
  if (partitions <= 1) return CollocatedTxnCost();
  const Duration query =
      (costs_.read_query + costs_.write_query) / 2;
  return costs_.begin + queries_per_txn_ * query +
         static_cast<Duration>(partitions) *
             (costs_.prepare + costs_.commit_apply);
}

Duration CostModel::RepartitionTxnCost(
    const std::vector<PlacementAction>& ops) const {
  Duration work = costs_.begin;
  uint32_t partitions = 0;
  bool crosses = false;
  for (const PlacementAction& op : ops) {
    switch (op.kind) {
      case PlacementKind::kMigrate:
        work += costs_.migrate_insert + costs_.migrate_delete;
        crosses = true;
        break;
      case PlacementKind::kReplicaCreate:
        work += costs_.replica_create;
        crosses = true;
        break;
      case PlacementKind::kReplicaDrop:
        work += costs_.replica_delete;
        break;
      case PlacementKind::kLeaderShift:
        // Role swap: no data moves, but the old and new primary both
        // participate in the commit.
        work += costs_.leader_shift;
        crosses = true;
        break;
    }
  }
  // Migrations always involve a source and a destination, so the commit
  // is a two-participant 2PC.
  partitions = crosses ? 2 : 1;
  if (partitions > 1) {
    work += static_cast<Duration>(partitions) *
            (costs_.prepare + costs_.commit_apply);
  } else {
    work += costs_.local_commit;
  }
  return work;
}

Duration CostModel::PiggybackedOpCost(const PlacementAction& op) const {
  switch (op.kind) {
    case PlacementKind::kMigrate:
      return costs_.migrate_insert + costs_.migrate_delete;
    case PlacementKind::kReplicaCreate:
      return costs_.replica_create;
    case PlacementKind::kReplicaDrop:
      return costs_.replica_delete;
    case PlacementKind::kLeaderShift:
      return costs_.leader_shift;
  }
  return 0;
}

}  // namespace soap::repartition
