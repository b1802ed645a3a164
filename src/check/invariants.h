// Online invariant engine: cheap always-on assertions evaluated at
// quiescent points (post-drain) and at lifecycle events (node recovery,
// replica promotion). Passive — it schedules no simulator events and costs
// nothing while no sweep runs, so enabling it never perturbs the run.
//
// Quiescent-point sweep:
//   * ownership           every routed copy is stored, every stored tuple
//                         is routed, no partition appears twice in a
//                         placement
//   * lock_table_empty    no key is locked once the run has drained
//   * wal_idempotent      replaying checkpoint + WAL reproduces the live
//                         table on every live node
//   * replica_coherence   live, caught-up replicas carry the primary's
//                         content
//   * final_state         the recorded chain tail of every written key is
//                         what the primary actually stores
// Lifecycle hooks:
//   * OnNodeRecovered     WAL-replay idempotency right after a restart
//   * OnPromotion         placement epochs advance monotonically and the
//                         promoted copy exists on a live node
//
// Cost. Both ownership directions sit behind one prefilter,
// Cluster::CheckConsistency: stored ⊆ placed plus per-partition count
// equality, O(materialized rows + routing exceptions) and O(1) per lazy
// virtual row. It passes only when the per-key passes would report
// nothing (a failure may still yield no violation: they skip down nodes),
// so a clean sweep never walks the keyspace; on a failure the per-key
// passes run and name each violation. final_state visits each
// written key once.
//
// Violation order. Within each rule pass, violations come out in
// ascending key order (ownership: the forward pass by key, the reverse
// pass partition by partition and by key within each; final_state by
// key), so a report is a function of the run, never of hash-table layout.
// Violations accumulate on the engine and are mirrored into the decision
// audit log as {"type":"invariant","check":...,"detail":...} records.

#ifndef SOAP_CHECK_INVARIANTS_H_
#define SOAP_CHECK_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/check/checker.h"
#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"
#include "src/obs/audit_log.h"

namespace soap::check {

class InvariantEngine {
 public:
  /// `history` may be nullptr (final_state is then skipped).
  InvariantEngine(cluster::Cluster* cluster, const HistoryRecorder* history)
      : cluster_(cluster), history_(history) {}

  /// Mirrors violations into the decision audit log; nullptr detaches.
  void set_audit(obs::AuditLog* audit) { audit_ = audit; }

  /// Staleness probe: returns true while `node`'s replica copies may
  /// legitimately lag (crashed and not yet caught up). Content-coherence
  /// checks skip such nodes; detection-latency is the price of crash
  /// tolerance, divergence is not.
  void set_stale_probe(std::function<bool(uint32_t)> probe) {
    stale_probe_ = std::move(probe);
  }

  /// Runs every quiescent-point check. Call after the drain barrier.
  void SweepQuiescent(SimTime now);

  /// Node `node` finished WAL replay: its recovery image must match the
  /// replayed state.
  void OnNodeRecovered(uint32_t node, SimTime now);

  /// Key `key` failed over to `new_primary`: the placement epoch must have
  /// advanced past the last one this engine saw for the key, and the
  /// promoted copy must be stored on a live node.
  void OnPromotion(storage::TupleKey key, uint32_t new_primary, SimTime now);

  /// Key `key` completed a planner leader shift onto `new_primary`: the
  /// routing table must now name exactly that partition as primary, no
  /// partition may appear twice in the placement (a half-applied swap
  /// leaves the new primary doubled — the double_primary violation), and
  /// the new primary must store a copy.
  void OnLeaderShift(storage::TupleKey key, uint32_t new_primary,
                     SimTime now);

  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t checks_run() const { return checks_run_; }
  bool ok() const { return violations_.empty(); }

 private:
  void Violate(const std::string& check, const std::string& detail,
               SimTime at);
  /// The per-key ownership passes, run only when the audit failed.
  void SweepOwnershipForward(SimTime now);
  void SweepOwnershipReverse(SimTime now);
  bool NodeDown(uint32_t node) const;
  bool NodeStale(uint32_t node) const;

  cluster::Cluster* cluster_;
  const HistoryRecorder* history_;
  obs::AuditLog* audit_ = nullptr;
  std::function<bool(uint32_t)> stale_probe_;
  std::vector<Violation> violations_;
  uint64_t checks_run_ = 0;
  /// Last placement epoch observed per promoted key.
  std::unordered_map<storage::TupleKey, uint64_t> last_epoch_;
};

}  // namespace soap::check

#endif  // SOAP_CHECK_INVARIANTS_H_
