#include "src/check/invariants.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace soap::check {

void InvariantEngine::Violate(const std::string& check,
                              const std::string& detail, SimTime at) {
  violations_.push_back({check, detail, at});
  if (audit_ != nullptr) {
    obs::AuditRecord(audit_, "invariant", at)
        .Str("check", check)
        .Str("detail", detail);
  }
}

bool InvariantEngine::NodeDown(uint32_t node) const {
  return cluster_->node(node).down();
}

bool InvariantEngine::NodeStale(uint32_t node) const {
  return stale_probe_ && stale_probe_(node);
}

// Ownership, forward direction: every routed copy is stored where the
// table says, and no placement lists a partition twice. Key-ascending.
void InvariantEngine::SweepOwnershipForward(SimTime now) {
  const auto& routing = cluster_->routing_table();
  const uint32_t num_nodes = cluster_->num_nodes();
  for (storage::TupleKey key = 0; key < routing.num_keys(); ++key) {
    Result<router::Placement> placement = routing.GetPlacement(key);
    if (!placement.ok()) continue;  // never assigned (sparse bulk loads)
    std::vector<uint32_t> copies;
    copies.push_back(placement->primary);
    for (uint32_t r : placement->replicas) copies.push_back(r);
    for (size_t i = 0; i < copies.size(); ++i) {
      for (size_t j = i + 1; j < copies.size(); ++j) {
        if (copies[i] == copies[j]) {
          Violate("ownership",
                  "key " + std::to_string(key) + " placed twice on partition " +
                      std::to_string(copies[i]),
                  now);
        }
      }
      if (copies[i] >= num_nodes) {
        Violate("ownership",
                "key " + std::to_string(key) + " placed on unknown partition " +
                    std::to_string(copies[i]),
                now);
        continue;
      }
      if (NodeDown(copies[i])) continue;  // unreachable, not unowned
      if (!cluster_->storage(copies[i]).Contains(key)) {
        Violate("ownership",
                "key " + std::to_string(key) + " routed to partition " +
                    std::to_string(copies[i]) + " but not stored there",
                now);
      }
    }
  }
}

// Ownership, reverse direction: no partition stores a tuple the routing
// table does not place on it (orphans from a double-deployed migration).
// Partition by partition, key-ascending within each.
void InvariantEngine::SweepOwnershipReverse(SimTime now) {
  const auto& routing = cluster_->routing_table();
  std::vector<storage::TupleKey> orphans;
  for (uint32_t p = 0; p < cluster_->num_nodes(); ++p) {
    orphans.clear();
    cluster_->storage(p).table().ForEach([&](const storage::Tuple& tuple) {
      if (!routing.IsPlacedOn(tuple.key, p)) orphans.push_back(tuple.key);
    });
    std::sort(orphans.begin(), orphans.end());
    for (storage::TupleKey key : orphans) {
      Violate("ownership",
              "partition " + std::to_string(p) + " stores key " +
                  std::to_string(key) +
                  " the routing table does not place there",
              now);
    }
  }
}

void InvariantEngine::SweepQuiescent(SimTime now) {
  // Ownership, both directions, behind one prefilter: the cluster's
  // ownership audit costs O(materialized rows + exceptions) and passes
  // only when neither per-key pass below would report anything (see
  // Cluster::CheckConsistency). Only a failed audit pays for the per-key
  // passes, which name each violation (a failure they do not see, such as
  // a missing row on a down node, still yields none).
  checks_run_ += 2;
  if (!cluster_->CheckConsistency().ok()) {
    SweepOwnershipForward(now);
    SweepOwnershipReverse(now);
  }
  const auto& routing = cluster_->routing_table();
  const uint32_t num_nodes = cluster_->num_nodes();

  // Lock table drained with the run.
  checks_run_++;
  const size_t locked = cluster_->lock_manager().LockedKeyCount();
  if (locked != 0) {
    Violate("lock_table_empty",
            std::to_string(locked) + " keys still locked after drain", now);
  }

  // WAL-replay idempotency on every live node.
  checks_run_++;
  for (uint32_t p = 0; p < num_nodes; ++p) {
    if (NodeDown(p)) continue;
    Status replay = cluster_->storage(p).VerifyRecoveryImage();
    if (!replay.ok()) {
      Violate("wal_idempotent",
              "node " + std::to_string(p) + ": " + replay.ToString(), now);
    }
  }

  // Replica coherence: live, caught-up replicas match the primary's
  // content byte for byte. Ordered streaming sweep — no materialized key
  // list, the placement arrives with each visited key.
  checks_run_++;
  routing.ForEachReplicated([&](storage::TupleKey key,
                                const router::Placement& placement) {
    if (placement.primary >= num_nodes || NodeDown(placement.primary)) {
      return;
    }
    Result<storage::Tuple> primary_copy =
        cluster_->storage(placement.primary).Read(key);
    if (!primary_copy.ok()) return;  // forward ownership already flagged
    for (uint32_t r : placement.replicas) {
      if (r >= num_nodes || NodeDown(r) || NodeStale(r)) continue;
      Result<storage::Tuple> replica_copy = cluster_->storage(r).Read(key);
      if (!replica_copy.ok()) continue;
      if (replica_copy->content != primary_copy->content) {
        Violate("replica_coherence",
                "key " + std::to_string(key) + " replica on partition " +
                    std::to_string(r) + " holds " +
                    std::to_string(replica_copy->content) +
                    " while primary partition " +
                    std::to_string(placement.primary) + " holds " +
                    std::to_string(primary_copy->content),
                now);
      }
    }
  });

  // Final state: the recorded chain tail is what the primary stores.
  // Mismatches are reported in ascending key order.
  if (history_ != nullptr) {
    checks_run_++;
    std::vector<std::pair<storage::TupleKey, std::string>> mismatches;
    history_->ForEachChainTail([&](storage::TupleKey key,
                                   const VersionRecord& tail) {
      const int64_t expected = tail.value;
      Result<uint32_t> primary = routing.GetPrimary(key);
      if (!primary.ok() || *primary >= num_nodes || NodeDown(*primary)) {
        return;
      }
      Result<storage::Tuple> stored = cluster_->storage(*primary).Read(key);
      if (!stored.ok()) return;  // ownership check owns this case
      if (stored->content != expected) {
        mismatches.push_back(
            {key, "key " + std::to_string(key) + " primary partition " +
                      std::to_string(*primary) + " stores " +
                      std::to_string(stored->content) +
                      " but the committed chain tail is " +
                      std::to_string(expected)});
      }
    });
    std::sort(mismatches.begin(), mismatches.end());
    for (const auto& [key, detail] : mismatches) {
      Violate("final_state", detail, now);
    }
  }
}

void InvariantEngine::OnNodeRecovered(uint32_t node, SimTime now) {
  checks_run_++;
  if (NodeDown(node)) {
    Violate("wal_idempotent",
            "node " + std::to_string(node) +
                " reported recovered while still down",
            now);
    return;
  }
  Status replay = cluster_->storage(node).VerifyRecoveryImage();
  if (!replay.ok()) {
    Violate("wal_idempotent",
            "node " + std::to_string(node) + " after recovery: " +
                replay.ToString(),
            now);
  }
}

void InvariantEngine::OnPromotion(storage::TupleKey key, uint32_t new_primary,
                                  SimTime now) {
  checks_run_++;
  const uint64_t epoch = cluster_->routing_table().PlacementEpoch(key);
  auto [it, inserted] = last_epoch_.try_emplace(key, epoch);
  if (!inserted) {
    if (epoch <= it->second) {
      Violate("epoch_monotonic",
              "key " + std::to_string(key) + " promoted with epoch " +
                  std::to_string(epoch) + " not above the last observed " +
                  std::to_string(it->second),
              now);
    }
    it->second = epoch;
  }
  if (new_primary >= cluster_->num_nodes() || NodeDown(new_primary)) {
    Violate("promotion",
            "key " + std::to_string(key) + " promoted to partition " +
                std::to_string(new_primary) + " which is down",
            now);
    return;
  }
  if (!cluster_->storage(new_primary).Contains(key)) {
    Violate("promotion",
            "key " + std::to_string(key) + " promoted to partition " +
                std::to_string(new_primary) + " which stores no copy",
            now);
  }
}

void InvariantEngine::OnLeaderShift(storage::TupleKey key,
                                    uint32_t new_primary, SimTime now) {
  checks_run_++;
  auto& routing = cluster_->routing_table();
  Result<router::Placement> placement = routing.GetPlacement(key);
  if (!placement.ok()) {
    Violate("double_primary",
            "key " + std::to_string(key) +
                " shifted but has no placement at all",
            now);
    return;
  }
  if (placement->primary != new_primary) {
    Violate("double_primary",
            "key " + std::to_string(key) + " shifted to partition " +
                std::to_string(new_primary) +
                " but the routing table names partition " +
                std::to_string(placement->primary) + " primary",
            now);
  }
  // A half-applied swap leaves the new primary listed both as primary and
  // as a leftover replica — exactly two entries for one partition.
  std::vector<uint32_t> copies;
  copies.push_back(placement->primary);
  for (uint32_t r : placement->replicas) copies.push_back(r);
  for (size_t i = 0; i < copies.size(); ++i) {
    for (size_t j = i + 1; j < copies.size(); ++j) {
      if (copies[i] == copies[j]) {
        Violate("double_primary",
                "key " + std::to_string(key) +
                    " lists partition " + std::to_string(copies[i]) +
                    " twice after a leader shift",
                now);
      }
    }
  }
  const uint64_t epoch = routing.PlacementEpoch(key);
  auto [it, inserted] = last_epoch_.try_emplace(key, epoch);
  if (!inserted) {
    if (epoch <= it->second) {
      Violate("epoch_monotonic",
              "key " + std::to_string(key) + " shifted with epoch " +
                  std::to_string(epoch) + " not above the last observed " +
                  std::to_string(it->second),
              now);
    }
    it->second = epoch;
  }
  if (new_primary >= cluster_->num_nodes() || NodeDown(new_primary)) return;
  if (!cluster_->storage(new_primary).Contains(key)) {
    Violate("double_primary",
            "key " + std::to_string(key) + " shifted to partition " +
                std::to_string(new_primary) + " which stores no copy",
            now);
  }
}

}  // namespace soap::check
