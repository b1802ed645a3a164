// Placement actions: the unified planner-op vocabulary. The paper's
// optimizer (§2.2) emitted three ad-hoc op kinds (migration, replica
// creation, replica deletion); the Lion-style provisioner adds leader
// shifting, and all four are now one `PlacementAction` carrying a uniform
// cost breakdown so the PlanBuilder can price migrate-vs-replicate-vs-shift
// from a single candidate pool.

#ifndef SOAP_REPARTITION_OPERATION_H_
#define SOAP_REPARTITION_OPERATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/tuple.h"

namespace soap::repartition {

enum class PlacementKind : uint8_t {
  /// Move the primary copy (insert-at-destination + delete-at-source
  /// inside one transaction).
  kMigrate,
  /// Install a read replica at the target partition.
  kReplicaCreate,
  /// Retire the replica hosted at the source partition.
  kReplicaDrop,
  /// Atomically swap primary/replica roles: the target partition (which
  /// must already hold a replica) becomes the primary and the old primary
  /// is demoted into the replica set. No data moves.
  kLeaderShift,
};

inline const char* PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kMigrate: return "migrate";
    case PlacementKind::kReplicaCreate: return "replica_create";
    case PlacementKind::kReplicaDrop: return "replica_delete";
    case PlacementKind::kLeaderShift: return "leader_shift";
  }
  return "unknown";
}

/// Uniform cost inputs attached to every placement action so candidates of
/// different kinds are comparable in one pool (§ DESIGN.md 9.1).
struct PlacementCost {
  /// Bytes copied over the wire to deploy this action (0 for role swaps
  /// and drops).
  uint64_t move_bytes = 0;
  /// Estimated 2PC work saved per window, from the sliding co-access
  /// window: pull mass toward the target times the distributed-vs-local
  /// cost gap (microseconds of cluster work).
  double tpc_savings = 0.0;
  /// Ongoing freshness/lag cost the action commits us to: write fan-out
  /// for replicas, remote-reader staleness for shifts (microseconds).
  double freshness_penalty = 0.0;

  /// Net score used to rank candidates: savings minus penalties.
  double Net() const {
    return tpc_savings - freshness_penalty - static_cast<double>(move_bytes);
  }
};

/// One plan unit: moves/copies/deletes one tuple or swaps its leader.
/// `id` is the unit the RepRate metric counts (1-based; 0 means "not a
/// repartition op" in transaction operations).
struct PlacementAction {
  uint64_t id = 0;
  PlacementKind kind = PlacementKind::kMigrate;
  storage::TupleKey key = 0;
  uint32_t source_partition = 0;
  uint32_t target_partition = 0;
  /// Templates of normal transactions whose objects this op repartitions
  /// (Algorithm 1's "normal transaction ti accessing the objects modified
  /// by opk"). With disjoint template key sets this has one element.
  std::vector<uint32_t> affected_templates;
  /// Accumulated benefit, filled by Algorithm 1 (lines 6-9).
  double benefit = 0.0;
  /// Uniform cost breakdown (filled by cost-aware producers; zeroed by
  /// legacy ones).
  PlacementCost cost;
};

/// The optimizer's output: the full set of plan units. `epoch` numbers the
/// plan generation the ids were drawn in (1-based; 0 = unset/legacy).
struct RepartitionPlan {
  std::vector<PlacementAction> ops;
  uint64_t epoch = 0;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }
};

/// Monotonic op-id source shared by every plan producer in a run. Op ids
/// feed the TM's applied-op idempotency tracking and the RepRate metric,
/// so ids from successive plan generations must never collide — each
/// generation opens a new epoch and keeps drawing from the same counter.
class OpIdAllocator {
 public:
  /// Next unique op id (1-based, never reused within a run).
  uint64_t Allocate() { return next_id_++; }

  /// Opens a new plan generation and returns its epoch number (1-based).
  uint64_t BeginEpoch() { return ++epochs_; }

  uint64_t next_id() const { return next_id_; }
  uint64_t epochs() const { return epochs_; }

 private:
  uint64_t next_id_ = 1;
  uint64_t epochs_ = 0;
};

}  // namespace soap::repartition

#endif  // SOAP_REPARTITION_OPERATION_H_
