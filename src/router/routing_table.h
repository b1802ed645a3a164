// The query router's lookup table (§4.1): maps every tuple key to the
// partition(s) holding a replica of it. The repartitioner updates these
// mappings at repartition-transaction commit time, so routing switches
// atomically with the data movement.
//
// Representation (production-cardinality scale-out): instead of a dense
// per-key vector, the table stores sorted *interval entries* — block
// ranges (one owner) and round-robin ranges (owner = key % modulus, the
// bulk-load layout) — plus a point-exception overlay that only keys whose
// placement diverged from their enclosing range ever enter (migrated,
// replicated or promoted keys). A 4M-key table bulk-loads into a single
// round-robin range; memory is O(ranges + exceptions), not O(keyspace).
// Exceptions are absorbed back into the range when a key's placement
// returns to its range owner, and migrations at a block range's first or
// last key split/coalesce the range itself instead of leaving a point
// entry behind. The overlay is a flat open-addressing table
// (exception_overlay.h), the same structure at 500k and at 4M keys.
//
// Not thread-safe: each simulated cell owns its cluster, routing table
// included, and drives it from its single event-loop thread.

#ifndef SOAP_ROUTER_ROUTING_TABLE_H_
#define SOAP_ROUTER_ROUTING_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/router/exception_overlay.h"
#include "src/storage/tuple.h"

namespace soap::router {

using PartitionId = uint32_t;

/// Placement of one tuple: the primary copy plus high-availability
/// replicas. The paper assumes replicas live on distinct partitions.
struct Placement {
  PartitionId primary = 0;
  std::vector<PartitionId> replicas;  // excludes primary

  bool HasReplicaOn(PartitionId p) const;
  size_t copy_count() const { return 1 + replicas.size(); }
};

/// Key -> placement lookup table backed by interval entries with a
/// point-exception overlay (see file comment). Single-threaded.
class RoutingTable {
 public:
  /// Creates a table for keys [0, num_keys) all initially unassigned;
  /// callers either AssignRange/AssignRoundRobin the bulk-load layout or
  /// SetPrimary each key individually.
  explicit RoutingTable(uint64_t num_keys);

  uint64_t num_keys() const { return num_keys_; }

  /// Installs a block range: every key in [start, end) is primary on
  /// `partition`. The range must not overlap an existing one. Existing
  /// point exceptions inside it stay authoritative (those matching
  /// `partition` are absorbed).
  Status AssignRange(storage::TupleKey start, storage::TupleKey end,
                     PartitionId partition);

  /// Installs a round-robin range: every key in [start, end) is primary
  /// on `key % num_partitions` — the bulk-load layout, one entry for the
  /// whole table. Same overlap/exception rules as AssignRange.
  Status AssignRoundRobin(storage::TupleKey start, storage::TupleKey end,
                          uint32_t num_partitions);

  /// Primary partition of a key.
  Result<PartitionId> GetPrimary(storage::TupleKey key) const;

  /// Full placement (primary + replicas).
  Result<Placement> GetPlacement(storage::TupleKey key) const;

  /// Assigns/overwrites the primary partition (bulk load & migration).
  Status SetPrimary(storage::TupleKey key, PartitionId partition);

  /// Adds a replica on `partition`. Fails with AlreadyExists if one (or
  /// the primary) is already there — the paper requires replicas on
  /// distinct partitions.
  Status AddReplica(storage::TupleKey key, PartitionId partition);

  /// Drops the replica on `partition`. The primary cannot be dropped this
  /// way; migrate it first.
  Status RemoveReplica(storage::TupleKey key, PartitionId partition);

  /// Atomically retargets the primary from `from` to `to` (the routing
  /// flip at the commit of an objects-migration transaction). If `to`
  /// already held a replica of the key, that replica entry is absorbed
  /// into the primary slot so no partition appears twice in the placement.
  Status Migrate(storage::TupleKey key, PartitionId from, PartitionId to);

  /// Failover: swaps the primary with the replica on `new_primary` (which
  /// must exist). The old primary is demoted into the replica list — its
  /// copy of the data survives the crash on disk and is caught up on
  /// restart, so routing keeps pointing at it as a (stale) replica.
  Status Promote(storage::TupleKey key, PartitionId new_primary);

  /// Keys that currently have at least one non-primary replica, sorted
  /// ascending (deterministic iteration for failover sweeps).
  std::vector<storage::TupleKey> ReplicatedKeys() const;

  /// Visits every replicated key in ascending order with its current
  /// placement. The callback may mutate the table (promote, drop
  /// replicas): the sweep resumes past the visited key, so keys
  /// replicated *after* it mid-sweep are still visited, and the placement
  /// passed is a copy taken when its key is reached. Replaces
  /// materializing ReplicatedKeys() on failover and coherence sweeps.
  void ForEachReplicated(
      const std::function<void(storage::TupleKey, const Placement&)>& fn)
      const;

  /// True when `partition` holds a copy (primary or replica) of `key`.
  /// The consistency audit's per-tuple test: unlike GetPlacement it never
  /// materialises a Placement, so sweeping every stored row stays
  /// allocation-free.
  bool IsPlacedOn(storage::TupleKey key, PartitionId partition) const;

  /// Number of keys whose primary is `partition`. O(1): maintained
  /// counters, debug-asserted against a structural recount.
  uint64_t CountPrimaries(PartitionId partition) const;

  /// Number of non-primary replicas hosted on `partition`. O(1).
  uint64_t CountReplicas(PartitionId partition) const;

  /// Number of keys with at least one non-primary replica.
  uint64_t replicated_key_count() const { return replicas_.size(); }

  /// Interval entries currently in the base layer (ranges).
  size_t range_count() const { return base_.size(); }

  /// Keys currently carried as point exceptions over the base layer.
  size_t exception_count() const { return exceptions_.size(); }

  /// Visits every base range in key order as fn(start, end, round_robin,
  /// owner): `owner` is the block's partition, or a round-robin range's
  /// modulus.
  template <typename Fn>
  void ForEachRange(Fn&& fn) const {
    for (const auto& [start, range] : base_) {
      fn(start, range.end, range.round_robin,
         range.round_robin ? range.modulus : range.partition);
    }
  }

  /// Visits every point exception as fn(key, primary), in no particular
  /// order. `fn` must not mutate the table.
  template <typename Fn>
  void ForEachException(Fn&& fn) const {
    exceptions_.ForEach(fn);
  }

  /// One past the highest partition any placement has ever named: every
  /// partition at or above it has zero primaries and zero replicas.
  uint32_t partition_extent() const {
    return static_cast<uint32_t>(
        std::max(primaries_count_.size(), replicas_count_.size()));
  }

  /// Rough heap footprint of the table (entries + index overhead), for
  /// scaling reports. Not an allocator-exact byte count.
  size_t ApproxBytes() const;

  /// Routing-table version, bumped on every mutation (lets caches detect
  /// staleness).
  uint64_t version() const { return version_; }

  /// Opt-in per-key placement epochs for the consistency checker: every
  /// primary-changing mutation (SetPrimary, Migrate, Promote) bumps the
  /// key's epoch, giving failover a monotonic freshness counter to assert
  /// on. Off by default — enabling it is the only way the table allocates
  /// the epoch map.
  void EnableEpochTracking() { track_epochs_ = true; }
  /// The key's placement epoch (0 until the first tracked mutation, or
  /// always when tracking is off).
  uint64_t PlacementEpoch(storage::TupleKey key) const;

 private:
  /// One base-layer interval entry, keyed in `base_` by its start key.
  struct BaseRange {
    storage::TupleKey end = 0;  ///< exclusive
    bool round_robin = false;
    PartitionId partition = 0;  ///< block owner (round_robin == false)
    uint32_t modulus = 0;       ///< round-robin divisor (round_robin)
  };

  void BumpEpoch(storage::TupleKey key) {
    if (track_epochs_) ++epochs_[key];
  }

  /// Validates [start, end) against the key space and the existing
  /// ranges, then installs `range` at `start`: bumps the primary counters
  /// and absorbs the point exceptions that now agree with it.
  Status InstallRange(storage::TupleKey start, const BaseRange& range);

  /// The base entry covering `key` (nullptr if uncovered); `start_out`
  /// receives its start key.
  const BaseRange* FindBase(storage::TupleKey key,
                            storage::TupleKey* start_out) const;
  static PartitionId RangeOwner(const BaseRange& range,
                                storage::TupleKey key) {
    return range.round_robin
               ? static_cast<PartitionId>(key % range.modulus)
               : range.partition;
  }
  std::optional<PartitionId> BaseOwner(storage::TupleKey key) const;
  std::optional<PartitionId> PrimaryOf(storage::TupleKey key) const;

  /// The primary-placement mutation core: one overlay probe finds the
  /// key's slot, then the overlay is updated (absorbing where possible),
  /// block ranges split/coalesce at their boundary keys, and the
  /// per-partition primary counters follow.
  void PlacePrimary(storage::TupleKey key, PartitionId partition);
  /// Block-range restructuring for a boundary (or singleton) key; returns
  /// false when the key is interior and must become an exception.
  bool RestructureBlock(storage::TupleKey start, storage::TupleKey key,
                        PartitionId partition);
  /// Merges `base_[start]` with equal-owner adjacent block ranges.
  void CoalesceAround(storage::TupleKey start);

  void BumpPrimaryCount(PartitionId partition, int64_t delta);
  void BumpReplicaCount(PartitionId partition, int64_t delta);

  /// Structural O(ranges + exceptions) recount backing the debug assert
  /// in CountPrimaries.
  uint64_t RecountPrimaries(PartitionId partition) const;
  uint64_t RecountReplicas(PartitionId partition) const;

  uint64_t num_keys_;
  /// Sorted, non-overlapping interval entries, keyed by start.
  std::map<storage::TupleKey, BaseRange> base_;
  /// Keys whose primary differs from their base range (or that have no
  /// base range at all). Probed first on every lookup: the hot path.
  ExceptionOverlay exceptions_;
  /// Replica lists, ordered by key so failover/coherence sweeps iterate
  /// deterministically without materializing + sorting.
  std::map<storage::TupleKey, std::vector<PartitionId>> replicas_;
  /// Per-partition maintained counters (grown on demand).
  std::vector<uint64_t> primaries_count_;
  std::vector<uint64_t> replicas_count_;
  uint64_t version_ = 0;
  bool track_epochs_ = false;
  std::unordered_map<storage::TupleKey, uint64_t> epochs_;
};

}  // namespace soap::router

#endif  // SOAP_ROUTER_ROUTING_TABLE_H_
