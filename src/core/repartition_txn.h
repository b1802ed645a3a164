// Repartition transactions (§3.1) and their registry. Algorithm 1 groups
// the plan's operations into one transaction per benefiting normal
// transaction template, ranks them by benefit density, and every scheduler
// draws from this shared registry (the paper's LRep list + TRep map).

#ifndef SOAP_CORE_REPARTITION_TXN_H_
#define SOAP_CORE_REPARTITION_TXN_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/obs/audit_log.h"
#include "src/repartition/operation.h"
#include "src/txn/transaction.h"

namespace soap::sim {
class Simulator;
}  // namespace soap::sim

namespace soap::core {

/// One packaged repartition transaction r_i.
struct RepartitionTxn {
  enum class State : uint8_t {
    kPending,      ///< not yet scheduled anywhere
    kSubmitted,    ///< standalone transaction in the TM (any priority)
    kPiggybacked,  ///< riding on a normal transaction (§3.4)
    kDone,         ///< committed; ops applied
  };

  uint64_t rid = 0;  ///< registry id, 1-based
  /// The normal transaction template that benefits (Algorithm 1's t_i).
  uint32_t beneficiary_template = 0;
  std::vector<repartition::PlacementAction> ops;
  double benefit = 0.0;   ///< T_benefit value for the group
  double cost = 0.0;      ///< Cost(r_i, O), node-work microseconds
  double density = 0.0;   ///< benefit / cost (cpr_i)
  State state = State::kPending;
  /// TM transaction id of the in-flight realisation (standalone txn or
  /// piggyback carrier), 0 when pending/done.
  txn::TxnId carrier = 0;
  uint32_t attempts = 0;
  /// Fault-aware retry state: a failed attempt re-ranks the transaction
  /// into the pending list but holds it back until `not_before` (set by
  /// the repartitioner's exponential backoff; 0 = immediately eligible).
  SimTime not_before = 0;
  uint32_t failures = 0;
  /// Virtual time of the first submit/piggyback attempt (0 = never tried);
  /// the audit log's apply-latency baseline.
  SimTime first_submitted_at = 0;
};

/// Owns the ranked list; hands out pending transactions in density order
/// and tracks their life cycle. Shared by the hybrid scheduler's piggyback
/// and feedback modules.
class RepartitionRegistry {
 public:
  RepartitionRegistry() = default;

  /// Takes the ranked output of Algorithm 1 (density descending).
  void Init(std::vector<RepartitionTxn> ranked);

  size_t size() const { return txns_.size(); }
  bool empty() const { return txns_.empty(); }
  size_t total_ops() const { return total_ops_; }
  size_t pending_count() const { return pending_.size(); }
  size_t done_count() const { return done_count_; }
  bool AllDone() const { return done_count_ == txns_.size(); }

  RepartitionTxn* Get(uint64_t rid);
  const RepartitionTxn* Get(uint64_t rid) const;

  /// Highest-density pending transaction, or nullptr (the head of LRep).
  RepartitionTxn* NextPending();

  /// Lowest-density pending transaction, or nullptr (the tail of LRep) —
  /// the cold data an idle-time filler should move first, leaving the hot
  /// head available for piggybacking and controller-paced scheduling.
  RepartitionTxn* LastPending();

  /// The pending repartition transaction benefiting `template_id`
  /// (Algorithm 2's TRep lookup); nullptr if none or not pending.
  RepartitionTxn* FindPendingByTemplate(uint32_t template_id);

  /// Backoff-aware variants: skip pending transactions still held back by
  /// a retry delay (rt->not_before > now).
  RepartitionTxn* NextPending(SimTime now);
  RepartitionTxn* LastPending(SimTime now);
  RepartitionTxn* FindPendingByTemplate(uint32_t template_id, SimTime now);

  /// State transitions. MarkPending is the abort path (resubmission).
  /// Every transition emits one `deploy` audit record when a log is bound
  /// — the registry is the single choke point all five schedulers go
  /// through, so the audit trail covers every strategy uniformly.
  void MarkSubmitted(uint64_t rid, txn::TxnId carrier);
  void MarkPiggybacked(uint64_t rid, txn::TxnId carrier);
  void MarkDone(uint64_t rid);
  void MarkPending(uint64_t rid);

  /// Attaches the deployment audit log; `sim` supplies virtual
  /// timestamps. nullptr detaches.
  void BindAudit(obs::AuditLog* audit, const sim::Simulator* sim);

  /// The plan/round id stamped on subsequent deploy records (the
  /// repartitioner sets it when a round starts).
  void set_audit_round(uint64_t round) { audit_round_ = round; }

  /// Builds the executable form of a repartition transaction: one
  /// MigrateInsert+MigrateDelete pair per migration unit (etc.), tagged
  /// with plan-unit ids for RepRate accounting.
  static std::unique_ptr<txn::Transaction> MakeTransaction(
      const RepartitionTxn& rt, txn::TxnPriority priority);

  /// Appends `rt`'s operations to a normal transaction's piggyback list
  /// (Algorithm 2 line 5).
  static void InjectInto(const RepartitionTxn& rt, txn::Transaction* t);

 private:
  /// Rank index ordered by (density desc, rid asc) for NextPending.
  struct RankOrder {
    double density;
    uint64_t rid;
    bool operator<(const RankOrder& other) const {
      if (density != other.density) return density > other.density;
      return rid < other.rid;
    }
  };

  /// Emits one `deploy` record; no-op when no log is bound.
  void AuditDeploy(const char* event, const RepartitionTxn& rt);

  std::vector<RepartitionTxn> txns_;  // index = rid - 1
  std::set<RankOrder> pending_;
  std::unordered_map<uint32_t, uint64_t> by_template_;
  size_t total_ops_ = 0;
  size_t done_count_ = 0;
  // Deployment audit sink; nullptr when observability is off.
  obs::AuditLog* audit_ = nullptr;
  const sim::Simulator* sim_ = nullptr;
  uint64_t audit_round_ = 0;
};

}  // namespace soap::core

#endif  // SOAP_CORE_REPARTITION_TXN_H_
