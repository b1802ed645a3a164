// Two-phase-locking lock manager with shared/exclusive tuple locks, FIFO
// wait queues, lock upgrades, and immediate wait-for-graph deadlock
// detection. The executor adds a lock-wait timeout on top (via the
// simulator), mirroring how PostgreSQL pairs a local deadlock detector with
// lock_timeout for distributed cases.
//
// Tuple keys are globally unique and partitions hold disjoint key ranges,
// so one logical lock table is semantically identical to one table per
// node; a real deployment would shard this class by node, and the cluster
// layer records per-node contention stats. Not thread-safe: each simulated
// cell owns its lock table and drives it from its single event-loop
// thread.

#ifndef SOAP_TXN_LOCK_MANAGER_H_
#define SOAP_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/inline_fn.h"
#include "src/storage/tuple.h"
#include "src/txn/transaction.h"

namespace soap::txn {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Outcome of an Acquire call.
enum class AcquireOutcome : uint8_t {
  kGranted,   ///< lock held; proceed
  kQueued,    ///< blocked; the grant callback will fire later
  kDeadlock,  ///< waiting would close a cycle; caller must abort
};

/// Counters exposed for reports and tests.
struct LockStats {
  uint64_t acquires = 0;
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t upgrades = 0;
  uint64_t cancelled_waits = 0;
};

/// The lock table. Single-threaded: driven from its cell's event loop.
class LockManager {
 public:
  /// Invoked when a queued request is granted. The callback runs inside
  /// the Release/CancelWait call that unblocked it, after the lock table
  /// is consistent again; implementations should only schedule simulator
  /// work. Move-only and inline up to sim::InlineFn::kInlineCapacity —
  /// the grant path allocates nothing.
  using GrantCallback = sim::InlineFn;

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `key` in `mode` for `txn`. A transaction may wait for at most
  /// one lock at a time (the executor runs operations sequentially).
  /// Re-acquiring an already held lock in the same or weaker mode returns
  /// kGranted; holding S and requesting X performs an upgrade.
  AcquireOutcome Acquire(TxnId txn, storage::TupleKey key, LockMode mode,
                         GrantCallback on_grant);

  /// Releases one lock. Grants any newly compatible waiters.
  void Release(TxnId txn, storage::TupleKey key);

  /// Releases everything `txn` holds and cancels its pending wait, if any.
  /// Used on commit and abort.
  void ReleaseAll(TxnId txn);

  /// Abandons `txn`'s pending wait (lock-wait timeout). Returns false if
  /// the transaction was not waiting (e.g. the grant raced the timeout).
  bool CancelWait(TxnId txn);

  /// True if `txn` currently holds `key` in at least `mode`.
  bool Holds(TxnId txn, storage::TupleKey key, LockMode mode) const;

  /// Number of transactions waiting on `key`.
  size_t WaiterCount(storage::TupleKey key) const;
  /// Number of keys with at least one holder.
  size_t LockedKeyCount() const;

  const LockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LockStats{}; }

  /// Pre-sizes the hash tables from config cardinalities (expected hot-key
  /// working set and concurrent transactions) so the per-acquire paths do
  /// not pay incremental rehashes.
  void Reserve(size_t expected_keys, size_t expected_txns);

  /// Publishes lock-table counters into `registry` (nullptr detaches).
  /// The granted wait *durations* (soap_lock_wait_seconds) are recorded by
  /// the transaction manager, which owns the virtual clock.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    bool is_upgrade;
    GrantCallback on_grant;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
  };

  /// True if `mode` can be granted on `entry` right now for `txn`
  /// (ignoring locks txn itself holds, to allow upgrades).
  static bool Compatible(const Entry& entry, TxnId txn, LockMode mode);

  /// Grants every waiter at the front of `entry`'s queue that is now
  /// compatible. Collects callbacks; the caller invokes them once the
  /// table mutation is complete, so a callback may re-enter the manager.
  void GrantWaiters(storage::TupleKey key, Entry& entry,
                    std::vector<GrantCallback>* callbacks);

  /// Would `txn` waiting on `key` create a wait-for cycle?
  bool WouldDeadlock(TxnId txn, storage::TupleKey key) const;

  void RecordHold(TxnId txn, storage::TupleKey key, LockMode mode);

  std::unordered_map<storage::TupleKey, Entry> table_;
  /// Keys each transaction holds (for ReleaseAll).
  std::unordered_map<TxnId, std::vector<storage::TupleKey>> held_;
  /// The single key each blocked transaction is waiting on.
  std::unordered_map<TxnId, storage::TupleKey> waiting_on_;
  LockStats stats_;
  // Observability hooks; nullptr when disabled (one-branch hot-path cost).
  obs::Counter* m_acquires_ = nullptr;
  obs::Counter* m_waits_ = nullptr;
  obs::Counter* m_deadlocks_ = nullptr;
  obs::Counter* m_upgrades_ = nullptr;
  obs::Counter* m_cancelled_waits_ = nullptr;
  obs::Gauge* m_waiting_txns_ = nullptr;
};

}  // namespace soap::txn

#endif  // SOAP_TXN_LOCK_MANAGER_H_
