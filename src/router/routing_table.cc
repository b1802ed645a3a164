#include "src/router/routing_table.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace soap::router {

namespace {

/// Number of keys k in [0, x) with k % modulus == r.
uint64_t CongruentBelow(uint64_t x, uint32_t modulus, uint32_t r) {
  if (x <= r) return 0;
  return (x - r + modulus - 1) / modulus;
}

/// Number of keys k in [start, end) with k % modulus == r.
uint64_t CongruentInRange(uint64_t start, uint64_t end, uint32_t modulus,
                          uint32_t r) {
  return CongruentBelow(end, modulus, r) - CongruentBelow(start, modulus, r);
}

}  // namespace

bool Placement::HasReplicaOn(PartitionId p) const {
  if (primary == p) return true;
  return std::find(replicas.begin(), replicas.end(), p) != replicas.end();
}

RoutingTable::RoutingTable(uint64_t num_keys) : num_keys_(num_keys) {}

const RoutingTable::BaseRange* RoutingTable::FindBase(
    storage::TupleKey key, storage::TupleKey* start_out) const {
  auto it = base_.upper_bound(key);
  if (it == base_.begin()) return nullptr;
  --it;
  if (key >= it->second.end) return nullptr;
  *start_out = it->first;
  return &it->second;
}

std::optional<PartitionId> RoutingTable::BaseOwner(
    storage::TupleKey key) const {
  storage::TupleKey start = 0;
  const BaseRange* range = FindBase(key, &start);
  if (range == nullptr) return std::nullopt;
  return RangeOwner(*range, key);
}

std::optional<PartitionId> RoutingTable::PrimaryOf(
    storage::TupleKey key) const {
  if (const uint32_t* p = exceptions_.Find(key)) return *p;
  return BaseOwner(key);
}

void RoutingTable::BumpPrimaryCount(PartitionId partition, int64_t delta) {
  if (partition >= primaries_count_.size()) {
    primaries_count_.resize(static_cast<size_t>(partition) + 1, 0);
  }
  primaries_count_[partition] += static_cast<uint64_t>(delta);
}

void RoutingTable::BumpReplicaCount(PartitionId partition, int64_t delta) {
  if (partition >= replicas_count_.size()) {
    replicas_count_.resize(static_cast<size_t>(partition) + 1, 0);
  }
  replicas_count_[partition] += static_cast<uint64_t>(delta);
}

Status RoutingTable::InstallRange(storage::TupleKey start,
                                  const BaseRange& range) {
  if (start >= range.end || range.end > num_keys_) {
    return Status::InvalidArgument("range [" + std::to_string(start) + ", " +
                                   std::to_string(range.end) +
                                   ") out of bounds");
  }
  auto it = base_.upper_bound(start);
  if ((it != base_.begin() && std::prev(it)->second.end > start) ||
      (it != base_.end() && it->first < range.end)) {
    return Status::FailedPrecondition("range overlaps an existing entry");
  }
  base_.emplace(start, range);
  if (range.round_robin) {
    for (uint32_t p = 0; p < range.modulus; ++p) {
      BumpPrimaryCount(p, static_cast<int64_t>(CongruentInRange(
                              start, range.end, range.modulus, p)));
    }
  } else {
    BumpPrimaryCount(range.partition, static_cast<int64_t>(range.end - start));
  }
  // Existing point exceptions stay authoritative over the new base: back
  // the base owner out of the counters for each, absorbing exceptions
  // that now agree with it. Collect first — erasing shifts slots.
  std::vector<storage::TupleKey> inside;
  exceptions_.ForEach([&](storage::TupleKey key, uint32_t) {
    if (key >= start && key < range.end) inside.push_back(key);
  });
  for (storage::TupleKey key : inside) {
    const PartitionId owner = RangeOwner(range, key);
    BumpPrimaryCount(owner, -1);
    const size_t slot = exceptions_.Probe(key);
    if (exceptions_.partition(slot) == owner) exceptions_.EraseAt(slot);
  }
  ++version_;
  return Status::OK();
}

Status RoutingTable::AssignRange(storage::TupleKey start,
                                 storage::TupleKey end,
                                 PartitionId partition) {
  return InstallRange(start, BaseRange{end, false, partition, 0});
}

Status RoutingTable::AssignRoundRobin(storage::TupleKey start,
                                      storage::TupleKey end,
                                      uint32_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("round-robin needs >= 1 partition");
  }
  return InstallRange(start, BaseRange{end, true, 0, num_partitions});
}

Result<PartitionId> RoutingTable::GetPrimary(storage::TupleKey key) const {
  if (key < num_keys_) {
    if (std::optional<PartitionId> p = PrimaryOf(key); p.has_value()) {
      return *p;
    }
  }
  return Status::NotFound("key " + std::to_string(key) + " not routed");
}

Result<Placement> RoutingTable::GetPlacement(storage::TupleKey key) const {
  std::optional<PartitionId> primary;
  if (key < num_keys_) primary = PrimaryOf(key);
  if (!primary.has_value()) {
    return Status::NotFound("key " + std::to_string(key) + " not routed");
  }
  Placement p;
  p.primary = *primary;
  auto it = replicas_.find(key);
  if (it != replicas_.end()) p.replicas = it->second;
  return p;
}

bool RoutingTable::IsPlacedOn(storage::TupleKey key,
                              PartitionId partition) const {
  if (key >= num_keys_) return false;
  const std::optional<PartitionId> primary = PrimaryOf(key);
  if (!primary.has_value()) return false;
  if (*primary == partition) return true;
  auto it = replicas_.find(key);
  return it != replicas_.end() &&
         std::find(it->second.begin(), it->second.end(), partition) !=
             it->second.end();
}

void RoutingTable::CoalesceAround(storage::TupleKey start) {
  auto it = base_.find(start);
  if (it == base_.end() || it->second.round_robin) return;
  auto next = base_.find(it->second.end);
  if (next != base_.end() && !next->second.round_robin &&
      next->second.partition == it->second.partition) {
    it->second.end = next->second.end;
    base_.erase(next);
  }
  if (it != base_.begin()) {
    auto prev = std::prev(it);
    if (!prev->second.round_robin && prev->second.end == it->first &&
        prev->second.partition == it->second.partition) {
      prev->second.end = it->second.end;
      base_.erase(it);
    }
  }
}

bool RoutingTable::RestructureBlock(storage::TupleKey start,
                                    storage::TupleKey key,
                                    PartitionId partition) {
  auto it = base_.find(start);
  const storage::TupleKey end = it->second.end;
  if (end - start == 1) {
    // Singleton range: retarget and merge into equal-owner neighbours.
    it->second.partition = partition;
    CoalesceAround(start);
    return true;
  }
  if (key == start) {
    // Split off the first key: extend an adjacent equal-owner block range
    // over it, or mint a singleton range.
    BaseRange rest = it->second;
    bool extended = false;
    if (it != base_.begin()) {
      auto prev = std::prev(it);
      if (!prev->second.round_robin && prev->second.end == start &&
          prev->second.partition == partition) {
        prev->second.end = start + 1;
        extended = true;
      }
    }
    base_.erase(it);
    base_.emplace(start + 1, rest);
    if (!extended) {
      base_.emplace(start, BaseRange{start + 1, false, partition, 0});
    }
    return true;
  }
  if (key == end - 1) {
    // Split off the last key, symmetrically.
    it->second.end = end - 1;
    auto next = base_.find(end);
    if (next != base_.end() && !next->second.round_robin &&
        next->second.partition == partition) {
      BaseRange moved = next->second;
      base_.erase(next);
      base_.emplace(end - 1, moved);
    } else {
      base_.emplace(end - 1, BaseRange{end, false, partition, 0});
    }
    return true;
  }
  return false;  // interior: overlay an exception instead
}

void RoutingTable::PlacePrimary(storage::TupleKey key,
                                PartitionId partition) {
  const size_t slot = exceptions_.Probe(key);
  const bool listed = exceptions_.occupied(slot);
  storage::TupleKey start = 0;
  const BaseRange* range = FindBase(key, &start);
  if (listed) {
    BumpPrimaryCount(exceptions_.partition(slot), -1);
  } else if (range != nullptr) {
    BumpPrimaryCount(RangeOwner(*range, key), -1);
  }
  BumpPrimaryCount(partition, +1);

  if (range != nullptr) {
    if (RangeOwner(*range, key) == partition) {
      // The placement returned to its enclosing range: absorb.
      if (listed) exceptions_.EraseAt(slot);
      return;
    }
    if (!listed && !range->round_robin &&
        RestructureBlock(start, key, partition)) {
      return;  // boundary key: the range itself split/coalesced
    }
  }
  if (listed) {
    exceptions_.set_partition(slot, partition);
  } else {
    exceptions_.InsertAt(slot, key, partition);
  }
}

Status RoutingTable::SetPrimary(storage::TupleKey key,
                                PartitionId partition) {
  if (key >= num_keys_) {
    return Status::InvalidArgument("key " + std::to_string(key) +
                                   " out of range");
  }
  PlacePrimary(key, partition);
  BumpEpoch(key);
  ++version_;
  return Status::OK();
}

Status RoutingTable::AddReplica(storage::TupleKey key,
                                PartitionId partition) {
  std::optional<PartitionId> primary;
  if (key < num_keys_) primary = PrimaryOf(key);
  if (!primary.has_value()) {
    return Status::NotFound("key " + std::to_string(key) + " not routed");
  }
  if (*primary == partition) {
    return Status::AlreadyExists("primary already on partition " +
                                 std::to_string(partition));
  }
  auto& reps = replicas_[key];
  if (std::find(reps.begin(), reps.end(), partition) != reps.end()) {
    return Status::AlreadyExists("replica already on partition " +
                                 std::to_string(partition));
  }
  reps.push_back(partition);
  BumpReplicaCount(partition, +1);
  ++version_;
  return Status::OK();
}

Status RoutingTable::RemoveReplica(storage::TupleKey key,
                                   PartitionId partition) {
  std::optional<PartitionId> primary;
  if (key < num_keys_) primary = PrimaryOf(key);
  if (!primary.has_value()) {
    return Status::NotFound("key " + std::to_string(key) + " not routed");
  }
  if (*primary == partition) {
    return Status::FailedPrecondition(
        "cannot remove the primary copy via RemoveReplica");
  }
  auto it = replicas_.find(key);
  if (it == replicas_.end()) {
    return Status::NotFound("no replica on partition " +
                            std::to_string(partition));
  }
  auto& reps = it->second;
  auto rep_it = std::find(reps.begin(), reps.end(), partition);
  if (rep_it == reps.end()) {
    return Status::NotFound("no replica on partition " +
                            std::to_string(partition));
  }
  reps.erase(rep_it);
  if (reps.empty()) replicas_.erase(it);
  BumpReplicaCount(partition, -1);
  ++version_;
  return Status::OK();
}

Status RoutingTable::Migrate(storage::TupleKey key, PartitionId from,
                             PartitionId to) {
  std::optional<PartitionId> primary;
  if (key < num_keys_) primary = PrimaryOf(key);
  if (!primary.has_value()) {
    return Status::NotFound("key " + std::to_string(key) + " not routed");
  }
  if (*primary != from) {
    return Status::FailedPrecondition(
        "primary of key " + std::to_string(key) + " is partition " +
        std::to_string(*primary) + ", not " + std::to_string(from));
  }
  PlacePrimary(key, to);
  auto it = replicas_.find(key);
  if (it != replicas_.end()) {
    auto& reps = it->second;
    const auto removed = static_cast<int64_t>(
        std::count(reps.begin(), reps.end(), to));
    reps.erase(std::remove(reps.begin(), reps.end(), to), reps.end());
    if (removed != 0) BumpReplicaCount(to, -removed);
    if (reps.empty()) replicas_.erase(it);
  }
  BumpEpoch(key);
  ++version_;
  return Status::OK();
}

Status RoutingTable::Promote(storage::TupleKey key, PartitionId new_primary) {
  std::optional<PartitionId> primary;
  if (key < num_keys_) primary = PrimaryOf(key);
  if (!primary.has_value()) {
    return Status::NotFound("key " + std::to_string(key) + " not routed");
  }
  if (*primary == new_primary) {
    return Status::AlreadyExists("partition " + std::to_string(new_primary) +
                                 " is already the primary");
  }
  auto it = replicas_.find(key);
  if (it == replicas_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " has no replicas");
  }
  auto& reps = it->second;
  auto rep_it = std::find(reps.begin(), reps.end(), new_primary);
  if (rep_it == reps.end()) {
    return Status::NotFound("no replica on partition " +
                            std::to_string(new_primary));
  }
  // Swap in place: the demoted primary takes the promoted replica's slot,
  // keeping the replica list's order deterministic.
  *rep_it = *primary;
  BumpReplicaCount(new_primary, -1);
  BumpReplicaCount(*primary, +1);
  PlacePrimary(key, new_primary);
  BumpEpoch(key);
  ++version_;
  return Status::OK();
}

std::vector<storage::TupleKey> RoutingTable::ReplicatedKeys() const {
  std::vector<storage::TupleKey> keys;
  keys.reserve(replicas_.size());
  for (const auto& [key, reps] : replicas_) keys.push_back(key);
  return keys;  // std::map: already sorted ascending
}

void RoutingTable::ForEachReplicated(
    const std::function<void(storage::TupleKey, const Placement&)>& fn)
    const {
  auto it = replicas_.begin();
  while (it != replicas_.end()) {
    const storage::TupleKey key = it->first;
    Placement placement;
    placement.primary = PrimaryOf(key).value_or(0);
    placement.replicas = it->second;
    // The callback may mutate the table (promotion, replica drops) and
    // invalidate `it`: resume past the visited key afterwards.
    fn(key, placement);
    it = replicas_.upper_bound(key);
  }
}

uint64_t RoutingTable::RecountPrimaries(PartitionId partition) const {
  uint64_t count = 0;
  for (const auto& [start, range] : base_) {
    if (range.round_robin) {
      if (partition < range.modulus) {
        count += CongruentInRange(start, range.end, range.modulus, partition);
      }
    } else if (range.partition == partition) {
      count += range.end - start;
    }
  }
  exceptions_.ForEach([&](storage::TupleKey key, uint32_t p) {
    std::optional<PartitionId> owner = BaseOwner(key);
    if (owner.has_value() && *owner == partition) --count;
    if (p == partition) ++count;
  });
  return count;
}

uint64_t RoutingTable::RecountReplicas(PartitionId partition) const {
  uint64_t count = 0;
  for (const auto& [key, reps] : replicas_) {
    count += static_cast<uint64_t>(
        std::count(reps.begin(), reps.end(), partition));
  }
  return count;
}

uint64_t RoutingTable::CountPrimaries(PartitionId partition) const {
  const uint64_t count =
      partition < primaries_count_.size() ? primaries_count_[partition] : 0;
  assert(count == RecountPrimaries(partition) &&
         "primary counter diverged from the interval structure");
  return count;
}

uint64_t RoutingTable::CountReplicas(PartitionId partition) const {
  const uint64_t count =
      partition < replicas_count_.size() ? replicas_count_[partition] : 0;
  assert(count == RecountReplicas(partition) &&
         "replica counter diverged from the replica index");
  return count;
}

size_t RoutingTable::ApproxBytes() const {
  // Rule of thumb: tree nodes carry ~3 pointers + color, node-based hash
  // tables one bucket pointer per slot plus the entry itself. The
  // exception overlay is one flat slot array, counted exactly.
  constexpr size_t kTreeOverhead = 4 * sizeof(void*);
  size_t bytes = sizeof(*this);
  bytes += base_.size() *
           (sizeof(storage::TupleKey) + sizeof(BaseRange) + kTreeOverhead);
  bytes += exceptions_.bytes();
  for (const auto& [key, reps] : replicas_) {
    bytes += sizeof(storage::TupleKey) + sizeof(reps) + kTreeOverhead +
             reps.capacity() * sizeof(PartitionId);
  }
  bytes += (primaries_count_.capacity() + replicas_count_.capacity()) *
           sizeof(uint64_t);
  bytes += epochs_.size() * (sizeof(storage::TupleKey) + sizeof(uint64_t) +
                             2 * sizeof(void*)) +
           epochs_.bucket_count() * sizeof(void*);
  return bytes;
}

uint64_t RoutingTable::PlacementEpoch(storage::TupleKey key) const {
  auto it = epochs_.find(key);
  return it == epochs_.end() ? 0 : it->second;
}

}  // namespace soap::router
