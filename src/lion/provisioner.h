// Lion-style adaptive replica provisioning (PAPERS.md, arXiv 2403.11221):
// the replica set is a budgeted per-partition cache. The provisioner owns
// the cache policy — per-partition slot budget, LRU/heat eviction picks,
// and predictive admission from the sliding co-access window — while the
// PlanBuilder owns candidate generation and emits the resulting
// PlacementActions (create, drop, leader shift). Heat scores come through
// a callback so the heat source stays sketch-backed above
// `sketch_threshold` (the CoAccessGraph's HeatEstimate) without this
// library depending on the planner.

#ifndef SOAP_LION_PROVISIONER_H_
#define SOAP_LION_PROVISIONER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/router/routing_table.h"
#include "src/storage/tuple.h"

namespace soap::lion {

enum class EvictPolicy : uint8_t {
  kLru,   ///< evict the replica least recently pulled by its partition
  kHeat,  ///< evict the replica with the lowest window heat
};

/// The one home of the lion settings (an experiment's
/// planner_options.builder.lion). Off by default; off means the
/// provisioner is never constructed.
struct LionConfig {
  bool enabled = false;
  /// Max replicas (non-primary copies) a partition may host; 0 admits no
  /// creations (shifting and dropping still run).
  uint32_t replica_budget = 1024;
  /// Which copy a full budget evicts.
  EvictPolicy evict = EvictPolicy::kLru;
  /// Share of a key's windowed write mass a replica-holding partition
  /// must issue before the planner shifts the key's primary there.
  /// In (0, 1].
  double shift_threshold = 0.6;
};

struct ProvisionerStats {
  uint64_t evictions = 0;         ///< drops emitted to free budget slots
  uint64_t budget_denials = 0;    ///< creates rejected, nothing evictable
  uint64_t predictive_creates = 0;  ///< creates admitted on trend alone
};

class Provisioner {
 public:
  using HeatFn = std::function<uint64_t(storage::TupleKey)>;

  explicit Provisioner(LionConfig config) : config_(config) {}

  /// Opens a replan cycle: snapshots per-partition occupancy and hosted
  /// replica sets from the live routing table, and ages out recency/trend
  /// state for copies that no longer exist.
  void BeginCycle(const router::RoutingTable& routing);

  /// Recency signal: `key`'s copy on `partition` pulled co-access mass
  /// this cycle.
  void Touch(storage::TupleKey key, uint32_t partition);

  /// True (and charges one slot) when `partition` can host another
  /// replica within the budget.
  bool ChargeCreate(uint32_t partition);

  /// Returns one slot on `partition` (an eviction/drop was emitted).
  void Release(uint32_t partition);

  /// Victim replica hosted on `partition` under the eviction policy —
  /// least recently touched (LRU) or coldest window heat — excluding
  /// `except` and any victim already picked this cycle. Ties break toward
  /// the lowest key. Nullopt when nothing is evictable.
  std::optional<storage::TupleKey> PickEviction(uint32_t partition,
                                                storage::TupleKey except,
                                                const HeatFn& heat);

  /// Predictive pull share: the current share plus the positive trend
  /// since the previous cycle (one-step linear extrapolation of the
  /// sliding co-access window). Also records `share` for the next cycle.
  double PredictedShare(storage::TupleKey key, uint32_t partition,
                        double share);

  void CountBudgetDenial() { ++stats_.budget_denials; }
  void CountEviction() { ++stats_.evictions; }
  void CountPredictiveCreate() { ++stats_.predictive_creates; }

  const LionConfig& config() const { return config_; }
  const ProvisionerStats& stats() const { return stats_; }
  uint64_t cycle() const { return cycle_; }

 private:
  struct KeyPartition {
    storage::TupleKey key = 0;
    uint32_t partition = 0;
    bool operator==(const KeyPartition& o) const {
      return key == o.key && partition == o.partition;
    }
  };
  struct KeyPartitionHash {
    size_t operator()(const KeyPartition& kp) const {
      uint64_t h = kp.key * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<uint64_t>(kp.partition) + 0x9E3779B9ull + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct ShareSample {
    double share = 0.0;
    uint64_t cycle = 0;
  };

  LionConfig config_;
  ProvisionerStats stats_;
  uint64_t cycle_ = 0;
  /// Per-partition replica occupancy for this cycle (live + charged).
  std::unordered_map<uint32_t, uint32_t> occupancy_;
  /// Replicas hosted per partition at cycle start, keys ascending.
  std::unordered_map<uint32_t, std::vector<storage::TupleKey>> hosted_;
  /// Victims already picked this cycle (never pick one twice).
  std::unordered_set<storage::TupleKey> picked_;
  /// (key, partition) -> cycle the copy last pulled mass.
  std::unordered_map<KeyPartition, uint64_t, KeyPartitionHash> last_touch_;
  /// (key, partition) -> previous cycle's pull share, for the trend term.
  std::unordered_map<KeyPartition, ShareSample, KeyPartitionHash> trend_;
};

}  // namespace soap::lion

#endif  // SOAP_LION_PROVISIONER_H_
