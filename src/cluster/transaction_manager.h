// Transaction manager (§2.1): admits transactions from the processing
// queue, drives their execution as a per-transaction state machine over the
// simulator (routing -> locking -> per-query node work -> 2PC), and reports
// completions. Repartition side effects (storage moves + routing updates)
// are applied atomically with the owning transaction's commit. Writes to
// replicated keys ship synchronously: every live copy holder joins the
// 2PC participant set and applies the write in phase 2.

#ifndef SOAP_CLUSTER_TRANSACTION_MANAGER_H_
#define SOAP_CLUSTER_TRANSACTION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/check/break_mode.h"
#include "src/check/history_recorder.h"
#include "src/cluster/cluster.h"
#include "src/cluster/processing_queue.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/txn_tracer.h"
#include "src/storage/tuple.h"
#include "src/txn/transaction.h"

namespace soap::cluster {

/// Cumulative counters the experiment engine diffs per interval.
struct TmCounters {
  uint64_t submitted_normal = 0;
  uint64_t committed_normal = 0;
  /// Committed normal transactions whose own queries (piggybacked ops
  /// excluded) spanned more than one partition — the numerator of the
  /// distributed-transaction ratio the planner drives down.
  uint64_t committed_normal_distributed = 0;
  uint64_t aborted_normal = 0;
  uint64_t submitted_repartition = 0;
  uint64_t committed_repartition = 0;
  uint64_t aborted_repartition = 0;
  /// Repartition operations (plan units) applied, standalone or
  /// piggybacked.
  uint64_t repartition_ops_applied = 0;
  /// Committed kLeaderShift ops (primary/replica role swaps).
  uint64_t leader_shifts_applied = 0;
  /// Committed normal transactions that performed at least one write, and
  /// the subset whose *writes* spanned more than one partition (replica
  /// fan-out included) — the numerator of the distributed-write ratio
  /// leader shifting drives down.
  uint64_t committed_normal_with_writes = 0;
  uint64_t committed_normal_distributed_writes = 0;
  /// The subset of the above that rode on normal transactions (§3.4).
  uint64_t piggybacked_ops_applied = 0;
  /// Aborts of normal transactions that carried piggybacked ops.
  uint64_t piggyback_carrier_aborts = 0;
  /// Aborts by reason, all transaction kinds.
  uint64_t aborts_deadlock = 0;
  uint64_t aborts_lock_timeout = 0;
  uint64_t aborts_queue_timeout = 0;
  uint64_t aborts_vote = 0;
  uint64_t aborts_node_crash = 0;
  uint64_t aborts_shutdown = 0;
  /// MVCC first-updater-wins write-write conflicts (--cc=mvcc only).
  uint64_t aborts_write_conflict = 0;

  uint64_t total_submitted() const {
    return submitted_normal + submitted_repartition;
  }
  uint64_t total_aborted() const {
    return aborted_normal + aborted_repartition;
  }
};

class TransactionManager {
 public:
  /// Called once per transaction when it reaches kCommitted or kAborted.
  /// The transaction is destroyed after the callback returns; callbacks
  /// may re-submit fresh transactions (Algorithm 2's resubmission path).
  using CompletionCallback = std::function<void(const txn::Transaction&)>;

  explicit TransactionManager(Cluster* cluster);

  /// Enqueues a transaction. Assigns its global id (if unset) and
  /// submit_time (on first attempt). Returns the id.
  txn::TxnId Submit(std::unique_ptr<txn::Transaction> t);

  void set_completion_callback(CompletionCallback cb) {
    completion_cb_ = std::move(cb);
  }

  /// Changes the priority of a still-queued transaction and requeues it
  /// (FIFO position resets within the new priority class). Returns false
  /// if the transaction already left the queue.
  bool PromoteQueued(txn::TxnId id, txn::TxnPriority priority);

  /// Invoked right before a dequeued transaction starts executing (§2.2:
  /// "the repartitioner may need to modify the normal transactions by
  /// inserting additional repartition operations"). The hook may append
  /// piggyback_ops; it must not change `ops`.
  using PreExecutionHook = std::function<void(txn::Transaction*)>;
  void set_pre_execution_hook(PreExecutionHook hook) {
    pre_execution_hook_ = std::move(hook);
  }

  /// Attaches the consistency checker's history recorder: reads, commits
  /// and aborts are reported to it (storage applies flow in separately via
  /// storage::StorageObserver). nullptr (default) detaches — every hook is
  /// one branch, so detached runs are byte-identical.
  void set_history(check::HistoryRecorder* history) { history_ = history; }

  /// Deliberate-corruption hook (--check_break): the chosen mutation is
  /// injected exactly once per run so tests can prove the checker detects
  /// it. kNone (default) injects nothing.
  void set_check_break(check::BreakMode mode) { check_break_ = mode; }
  /// How many deliberate corruptions actually fired (0 or 1).
  uint64_t check_breaks_fired() const { return check_breaks_fired_; }

  /// Test hook: a participant votes abort in 2PC when this returns true.
  void set_vote_abort_injector(
      std::function<bool(const txn::Transaction&, uint32_t partition)> fn) {
    vote_abort_injector_ = std::move(fn);
  }

  /// Publishes execution metrics (queue-wait, lock-wait and end-to-end
  /// latency histograms, abort counters) into `registry`, and binds the
  /// processing queue's depth gauges (nullptr detaches).
  void BindMetrics(obs::MetricsRegistry* registry);

  /// Attaches a lifecycle tracer; sampled transactions get spans for
  /// queue residence, execution, lock waits and the commit protocol.
  /// nullptr (default) detaches.
  void set_tracer(obs::TxnTracer* tracer) { tracer_ = tracer; }

  /// Attaches the timeline's per-partition flow counters; committed
  /// routing changes (migrations, replica creates/drops, leader shifts)
  /// tick them. nullptr (default) detaches.
  void set_partition_flows(obs::PartitionFlows* flows) { flows_ = flows; }

  /// Fired after a kLeaderShift's routing flip commits, with the key and
  /// the new primary partition; the consistency checker uses it to assert
  /// a shifted key still has exactly one primary. nullptr (default)
  /// detaches — one branch on the shift path only.
  using LeaderShiftHook = std::function<void(storage::TupleKey, uint32_t)>;
  void set_leader_shift_hook(LeaderShiftHook hook) {
    leader_shift_hook_ = std::move(hook);
  }

  /// What kind of transaction this is, for trace tagging and audit
  /// reports: pure repartition work splits into migration-bearing
  /// (repartition) vs replica-maintenance-only (replica-apply); normal
  /// transactions carrying piggybacked ops are carriers.
  static obs::TxnKind KindOf(const txn::Transaction& t);

  const TmCounters& counters() const { return counters_; }
  const ProcessingQueue& queue() const { return queue_; }
  size_t inflight() const { return inflight_.size(); }
  size_t inflight_normal_or_high() const { return inflight_normal_or_high_; }
  size_t inflight_low() const { return inflight_low_; }

  /// True when a low-priority transaction would be admitted right now
  /// (the "system is idle" condition of the AfterAll strategy, §3.2).
  bool IdleForLowPriority() const;

  /// Reacts to a node crash: in-flight transactions touching `node` abort
  /// with kNodeCrash. Transactions already inside the commit protocol are
  /// left to the 2PC driver, which owns their outcome from the decision
  /// point on.
  void OnNodeCrash(uint32_t node);

  /// Completes every still-queued transaction with an abort (used at
  /// experiment shutdown so queued-but-never-dispatched transactions do
  /// not leak their callbacks).
  void DrainQueue(txn::AbortReason reason);

 private:
  struct Exec;
  using ExecPtr = std::shared_ptr<Exec>;

  void MaybeDispatch();
  void StartTransaction(std::unique_ptr<txn::Transaction> t);
  void ExecuteNextOp(const ExecPtr& e);
  void RunOp(const ExecPtr& e, size_t op_index);
  /// Acquires a lock in the given mode, then runs `next`; handles
  /// queuing with timeout and deadlock aborts.
  void AcquireLock(const ExecPtr& e, storage::TupleKey key,
                   txn::LockMode mode, std::function<void()> next);
  /// Collects the transaction's exclusive lock set (write keys + any
  /// piggybacked repartition keys), sorted and deduplicated.
  void BuildLockSet(const ExecPtr& e);
  /// Acquires the remaining keys of the lock set in order, then `next`.
  void AcquireLockChain(const ExecPtr& e, std::function<void()> next);
  /// Commit-time locking: takes the transaction's lock set in sorted key
  /// order (one global order across all transactions: deadlock-free),
  /// then starts the commit protocol. Buffered writes + commit-window
  /// locks keep read-committed semantics while bounding hold times.
  void AcquireCommitLocks(const ExecPtr& e);
  void BeginCommit(const ExecPtr& e);
  void FinishCommit(const ExecPtr& e);
  /// MVCC first-updater-wins probe, run after the commit locks are held:
  /// true when some write key already has a version committed at or after
  /// this transaction's begin timestamp.
  bool HasWriteConflict(const ExecPtr& e) const;
  /// MVCC commit: installs the transaction's final value per written key
  /// into the version store. Must run before its write locks release so a
  /// racing first-updater-wins probe cannot miss the conflict.
  void InstallVersions(const ExecPtr& e, SimTime commit_ts);
  void AbortTransaction(const ExecPtr& e, txn::AbortReason reason);
  /// The one abort ending, shared by executing and still-queued
  /// transactions: sets the outcome and feeds the counters, metrics,
  /// tracer and history. Callers own lock release and completion.
  void RecordAbort(txn::Transaction& txn, txn::AbortReason reason,
                   uint32_t coordinator);
  void CompleteTransaction(const ExecPtr& e);

  txn::Operation& OpAt(const ExecPtr& e, size_t index);
  size_t TotalOps(const ExecPtr& e) const;
  /// Applies one participant's buffered effects to storage (2PC phase 2).
  Status ApplyAtPartition(const ExecPtr& e, uint32_t partition);
  /// Post-commit routing flips + deferred source deletes for migrations.
  void ApplyRoutingUpdates(const ExecPtr& e);
  WorkCategory CategoryFor(const ExecPtr& e, const txn::Operation& op) const;
  WorkCategory OverheadCategory(const ExecPtr& e) const;

  /// True when `t` is sampled by the attached tracer (one branch when
  /// tracing is off).
  bool Traced(const txn::Transaction& t) const {
    return tracer_ != nullptr && tracer_->Sampled(t.id);
  }

  Cluster* cluster_;
  sim::Simulator* sim_;
  ProcessingQueue queue_;
  txn::TxnIdGenerator ids_;
  TmCounters counters_;
  obs::TxnTracer* tracer_ = nullptr;
  obs::PartitionFlows* flows_ = nullptr;
  // Observability hooks; nullptr when disabled.
  obs::LatencyHistogram* m_queue_wait_seconds_ = nullptr;
  obs::LatencyHistogram* m_lock_wait_seconds_ = nullptr;
  obs::Counter* m_lock_timeouts_ = nullptr;
  obs::LatencyHistogram* m_latency_committed_ = nullptr;
  obs::LatencyHistogram* m_latency_aborted_ = nullptr;
  /// Abort counters labeled by reason (soap_txn_aborts_total), indexed by
  /// the AbortReason enum value; all null when metrics are off.
  obs::Counter* m_aborts_by_reason_[16] = {};
  CompletionCallback completion_cb_;
  PreExecutionHook pre_execution_hook_;
  LeaderShiftHook leader_shift_hook_;
  std::function<bool(const txn::Transaction&, uint32_t)>
      vote_abort_injector_;
  std::unordered_map<txn::TxnId, ExecPtr> inflight_;
  size_t inflight_normal_or_high_ = 0;
  size_t inflight_low_ = 0;
  check::HistoryRecorder* history_ = nullptr;
  check::BreakMode check_break_ = check::BreakMode::kNone;
  uint64_t check_breaks_fired_ = 0;

  /// True (exactly once) when the armed corruption mode matches `mode`.
  bool FireBreak(check::BreakMode mode) {
    if (check_break_ != mode || check_breaks_fired_ > 0) return false;
    check_breaks_fired_++;
    return true;
  }

  /// Bumps the reason-labeled abort counter (one branch when metrics off).
  void CountAbortMetric(txn::AbortReason reason) {
    obs::Counter* c = m_aborts_by_reason_[static_cast<size_t>(reason)];
    if (c != nullptr) c->Increment();
  }
};

}  // namespace soap::cluster

#endif  // SOAP_CLUSTER_TRANSACTION_MANAGER_H_
