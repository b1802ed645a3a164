#include "src/cluster/transaction_manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "src/common/logging.h"

namespace soap::cluster {

using txn::AbortReason;
using txn::OpKind;
using txn::Operation;
using txn::Transaction;
using txn::TxnPriority;
using txn::TxnState;

/// Per-transaction execution context. Kept alive by the callbacks that
/// reference it; destroyed after completion.
struct TransactionManager::Exec {
  std::unique_ptr<Transaction> txn;
  size_t op_index = 0;
  uint32_t coordinator = 0;
  /// Distinct partitions touched so far (2PC participant set).
  std::vector<uint32_t> participants;
  /// Tuples captured at migrate/replicate execution time, inserted at the
  /// destination during phase 2.
  std::unordered_map<storage::TupleKey, storage::Tuple> staged;
  /// Repartition operation ids found stale at execution (already applied
  /// by someone else); all their ops are skipped.
  std::unordered_set<uint64_t> skipped_rep_ops;
  /// Sorted unique keys this transaction locks exclusively: its buffered
  /// writes plus (for piggyback carriers) the piggybacked repartition
  /// keys. Acquired as one sorted chain — at the piggyback boundary for
  /// carriers, at commit for plain transactions — so every transaction in
  /// the system follows one global lock order and deadlocks cannot form.
  std::vector<storage::TupleKey> commit_lock_keys;
  size_t commit_lock_index = 0;
  bool lock_set_built = false;
  sim::EventId timeout_event = sim::kInvalidEventId;
  bool done = false;
  /// Partitions whose phase-2 apply already ran, so redelivered or resent
  /// commit messages are idempotent.
  std::unordered_set<uint32_t> applied_partitions;
  /// MVCC snapshot timestamp (execution start); 0 under 2PL.
  SimTime begin_ts = 0;

  void AddParticipant(uint32_t p) {
    if (std::find(participants.begin(), participants.end(), p) ==
        participants.end()) {
      participants.push_back(p);
    }
  }

  /// True for an op of a repartition unit found stale at execution.
  bool Skipped(const Operation& op) const {
    return op.repartition_op_id != 0 &&
           skipped_rep_ops.count(op.repartition_op_id) > 0;
  }
};

TransactionManager::TransactionManager(Cluster* cluster)
    : cluster_(cluster), sim_(cluster->simulator()) {}

void TransactionManager::BindMetrics(obs::MetricsRegistry* registry) {
  queue_.BindMetrics(registry);
  if (registry == nullptr) {
    m_queue_wait_seconds_ = nullptr;
    m_lock_wait_seconds_ = nullptr;
    m_lock_timeouts_ = nullptr;
    m_latency_committed_ = nullptr;
    m_latency_aborted_ = nullptr;
    for (obs::Counter*& c : m_aborts_by_reason_) c = nullptr;
    return;
  }
  m_queue_wait_seconds_ = registry->GetHistogram("soap_txn_queue_wait_seconds");
  m_lock_wait_seconds_ = registry->GetHistogram("soap_lock_wait_seconds");
  m_lock_timeouts_ = registry->GetCounter("soap_lock_timeouts_total");
  m_latency_committed_ = registry->GetHistogram("soap_txn_latency_seconds",
                                                "outcome=\"committed\"");
  m_latency_aborted_ = registry->GetHistogram("soap_txn_latency_seconds",
                                              "outcome=\"aborted\"");
  // One labeled counter per abort reason, so per-CC abort decomposition
  // (write_conflict vs lock_timeout) is scrapeable without result diffs.
  for (AbortReason reason :
       {AbortReason::kDeadlock, AbortReason::kLockTimeout,
        AbortReason::kQueueTimeout, AbortReason::kVoteAbort,
        AbortReason::kInjected, AbortReason::kNodeCrash,
        AbortReason::kShutdown, AbortReason::kWriteConflict}) {
    m_aborts_by_reason_[static_cast<size_t>(reason)] = registry->GetCounter(
        "soap_txn_aborts_total",
        obs::MetricsRegistry::Label("reason", txn::AbortReasonName(reason)));
  }
}

txn::TxnId TransactionManager::Submit(std::unique_ptr<Transaction> t) {
  assert(t != nullptr);
  if (t->id == 0) t->id = ids_.Next();
  if (t->submit_time == 0) t->submit_time = sim_->Now();
  t->attempt++;
  if (t->is_repartition) {
    counters_.submitted_repartition++;
  } else {
    counters_.submitted_normal++;
  }
  const txn::TxnId id = t->id;
  if (Traced(*t)) tracer_->Begin(id, obs::SpanKind::kQueued, sim_->Now());
  queue_.Push(std::move(t));
  MaybeDispatch();
  return id;
}

bool TransactionManager::PromoteQueued(txn::TxnId id,
                                       TxnPriority priority) {
  std::unique_ptr<Transaction> t = queue_.Extract(id);
  if (t == nullptr) return false;
  t->priority = priority;
  queue_.Push(std::move(t));
  MaybeDispatch();
  return true;
}

bool TransactionManager::IdleForLowPriority() const {
  return queue_.NormalOrHigherCount() == 0 &&
         inflight_normal_or_high_ == 0 &&
         inflight_low_ < cluster_->config().low_priority_max_inflight;
}

void TransactionManager::MaybeDispatch() {
  while (inflight_.size() < cluster_->config().max_inflight &&
         !queue_.Empty()) {
    if (queue_.PeekPriority() == TxnPriority::kLow && !IdleForLowPriority()) {
      break;
    }
    std::unique_ptr<Transaction> t = queue_.Pop();
    // Deadline check (the JTA transaction timeout): normal transactions
    // that rotted in the queue past their deadline are failed, not run.
    if (!t->is_repartition &&
        sim_->Now() - t->submit_time > cluster_->config().costs.txn_timeout) {
      RecordAbort(*t, AbortReason::kQueueTimeout, 0);
      if (completion_cb_) completion_cb_(*t);
      continue;
    }
    StartTransaction(std::move(t));
  }
}

void TransactionManager::StartTransaction(std::unique_ptr<Transaction> t) {
  if (pre_execution_hook_ && !t->is_repartition) {
    pre_execution_hook_(t.get());
  }
  auto e = std::make_shared<Exec>();
  e->txn = std::move(t);
  Transaction& txn = *e->txn;
  txn.state = TxnState::kRunning;
  txn.start_time = sim_->Now();
  if (cluster_->mvcc_enabled()) {
    // Snapshot begins at execution start; ends when the txn completes.
    e->begin_ts = txn.start_time;
    cluster_->snapshots().Begin(txn.id, e->begin_ts);
  }
  // Attempt 1 only: on resubmission submit_time is the original submit,
  // not this queue entry, and would inflate the queue-wait histogram.
  if (m_queue_wait_seconds_ && txn.attempt == 1) {
    m_queue_wait_seconds_->RecordMicros(txn.start_time - txn.submit_time);
  }
  if (Traced(txn)) {
    tracer_->End(txn.id, obs::SpanKind::kQueued, txn.start_time);
    tracer_->Begin(txn.id, obs::SpanKind::kExecute, txn.start_time);
  }
  if (txn.priority == TxnPriority::kLow) {
    inflight_low_++;
  } else {
    inflight_normal_or_high_++;
  }
  inflight_[txn.id] = e;

  // Coordinator: the node of the first operation (router's choice for
  // normal queries, the plan's source partition for repartition ops).
  if (!txn.ops.empty() || !txn.piggyback_ops.empty()) {
    const Operation& first =
        txn.ops.empty() ? txn.piggyback_ops.front() : txn.ops.front();
    if (first.kind == OpKind::kRead) {
      // Coordinate a read-leading transaction from a live copy, so a
      // crashed primary does not doom read-only work replicas could serve.
      Result<router::PartitionId> pick = cluster_->router().PickReadPartition(
          first.key, router::QueryRouter::kNoPreference);
      e->coordinator = pick.ok() ? *pick : 0;
    } else if (first.kind == OpKind::kWrite) {
      Result<router::PartitionId> primary =
          cluster_->routing_table().GetPrimary(first.key);
      e->coordinator = primary.ok() ? *primary : 0;
    } else {
      e->coordinator = first.source_partition;
    }
  }

  // A down coordinator cannot run the begin job (it would be silently
  // discarded); fail the transaction. Deferred so the abort's completion
  // callback does not re-enter the MaybeDispatch loop that called us.
  if (cluster_->node(e->coordinator).down()) {
    sim_->After(0, [this, e]() {
      if (!e->done) AbortTransaction(e, AbortReason::kNodeCrash);
    });
    return;
  }

  cluster_->node(e->coordinator)
      .RunJob(cluster_->config().costs.begin, OverheadCategory(e),
              JobClass::kBulk, [this, e]() { ExecuteNextOp(e); });
}

size_t TransactionManager::TotalOps(const ExecPtr& e) const {
  return e->txn->ops.size() + e->txn->piggyback_ops.size();
}

Operation& TransactionManager::OpAt(const ExecPtr& e, size_t index) {
  Transaction& txn = *e->txn;
  if (index < txn.ops.size()) return txn.ops[index];
  return txn.piggyback_ops[index - txn.ops.size()];
}

WorkCategory TransactionManager::CategoryFor(const ExecPtr& e,
                                             const Operation& op) const {
  if (e->txn->is_repartition || txn::IsRepartitionOp(op.kind)) {
    return WorkCategory::kRepartition;
  }
  return WorkCategory::kNormal;
}

WorkCategory TransactionManager::OverheadCategory(const ExecPtr& e) const {
  return e->txn->is_repartition ? WorkCategory::kRepartition
                                : WorkCategory::kNormal;
}

void TransactionManager::ExecuteNextOp(const ExecPtr& e) {
  if (e->done) return;
  if (e->op_index >= TotalOps(e)) {
    AcquireCommitLocks(e);
    return;
  }
  // Piggyback boundary: before the injected repartition operations run,
  // take the whole exclusive lock set (piggyback keys + the carrier's own
  // write set) in sorted order. Migrated keys are usually also written
  // keys; locking them in op order here and commit order in siblings
  // would deadlock.
  if (!e->lock_set_built && e->op_index >= e->txn->ops.size()) {
    BuildLockSet(e);
    AcquireLockChain(e, [this, e]() { ExecuteNextOp(e); });
    return;
  }
  Operation& op = OpAt(e, e->op_index);
  const size_t index = e->op_index;
  if (op.kind == OpKind::kRead) {
    // Read committed: lock-free. Serializable under 2PL: shared lock at
    // execution, held to commit. Under MVCC reads never lock — they are
    // served from the version chain at the transaction's begin timestamp,
    // which is what flattens the read-side failure-rate curve.
    if (cluster_->config().isolation == IsolationLevel::kSerializable &&
        !cluster_->mvcc_enabled()) {
      AcquireLock(e, op.key, txn::LockMode::kShared,
                  [this, e, index]() { RunOp(e, index); });
    } else {
      RunOp(e, index);
    }
  } else if (op.kind == OpKind::kWrite) {
    // Writes are buffered and take their exclusive locks at commit time.
    RunOp(e, index);
  } else {
    // Repartition primitives lock at execution: the tuple must not change
    // while it is being copied between partitions. For carriers the
    // boundary chain above already holds these; for pure repartition
    // transactions ops are emitted in sorted key order.
    AcquireLock(e, op.key, txn::LockMode::kExclusive,
                [this, e, index]() { RunOp(e, index); });
  }
}

void TransactionManager::BuildLockSet(const ExecPtr& e) {
  assert(!e->lock_set_built);
  e->lock_set_built = true;
  for (const Operation& op : e->txn->ops) {
    if (op.kind == OpKind::kWrite) e->commit_lock_keys.push_back(op.key);
  }
  for (const Operation& op : e->txn->piggyback_ops) {
    e->commit_lock_keys.push_back(op.key);
  }
  std::sort(e->commit_lock_keys.begin(), e->commit_lock_keys.end());
  e->commit_lock_keys.erase(
      std::unique(e->commit_lock_keys.begin(), e->commit_lock_keys.end()),
      e->commit_lock_keys.end());
}

void TransactionManager::AcquireLockChain(const ExecPtr& e,
                                          std::function<void()> next) {
  if (e->done) return;
  if (e->commit_lock_index >= e->commit_lock_keys.size()) {
    next();
    return;
  }
  const storage::TupleKey key = e->commit_lock_keys[e->commit_lock_index];
  e->commit_lock_index++;
  auto shared_next = std::make_shared<std::function<void()>>(std::move(next));
  AcquireLock(e, key, txn::LockMode::kExclusive, [this, e, shared_next]() {
    AcquireLockChain(e, *shared_next);
  });
}

void TransactionManager::AcquireLock(const ExecPtr& e,
                                     storage::TupleKey key,
                                     txn::LockMode mode,
                                     std::function<void()> next) {
  const txn::TxnId id = e->txn->id;
  const SimTime wait_start = sim_->Now();
  auto shared_next = std::make_shared<std::function<void()>>(std::move(next));
  auto outcome = cluster_->lock_manager().Acquire(
      id, key, mode, [this, e, wait_start, shared_next]() {
        // Granted later: cancel the timeout and proceed.
        if (e->done) return;
        if (e->timeout_event != sim::kInvalidEventId) {
          sim_->Cancel(e->timeout_event);
          e->timeout_event = sim::kInvalidEventId;
        }
        if (m_lock_wait_seconds_) {
          m_lock_wait_seconds_->RecordMicros(sim_->Now() - wait_start);
        }
        if (Traced(*e->txn)) {
          tracer_->End(e->txn->id, obs::SpanKind::kLockWait, sim_->Now());
        }
        (*shared_next)();
      });
  switch (outcome) {
    case txn::AcquireOutcome::kGranted:
      (*shared_next)();
      break;
    case txn::AcquireOutcome::kQueued:
      if (Traced(*e->txn)) {
        tracer_->Begin(id, obs::SpanKind::kLockWait, wait_start);
      }
      e->timeout_event = sim_->After(
          cluster_->config().costs.lock_timeout, [this, e]() {
            e->timeout_event = sim::kInvalidEventId;
            if (e->done) return;
            // The grant may have raced this event at the same timestamp.
            if (!cluster_->lock_manager().CancelWait(e->txn->id)) return;
            if (m_lock_timeouts_) m_lock_timeouts_->Increment();
            AbortTransaction(e, AbortReason::kLockTimeout);
          });
      break;
    case txn::AcquireOutcome::kDeadlock:
      AbortTransaction(e, AbortReason::kDeadlock);
      break;
  }
}

void TransactionManager::AcquireCommitLocks(const ExecPtr& e) {
  if (e->done) return;
  if (!e->lock_set_built) BuildLockSet(e);
  AcquireLockChain(e, [this, e]() {
    // MVCC first-updater-wins: with the write locks held, abort if any
    // write key gained a version after this transaction's snapshot. The
    // locks serialize installs, so the probe cannot race a commit.
    if (cluster_->mvcc_enabled() && HasWriteConflict(e)) {
      AbortTransaction(e, AbortReason::kWriteConflict);
      return;
    }
    BeginCommit(e);
  });
}

bool TransactionManager::HasWriteConflict(const ExecPtr& e) const {
  for (const Operation& op : e->txn->ops) {
    if (op.kind != OpKind::kWrite) continue;
    if (cluster_->versions().CommittedSince(op.key, e->begin_ts)) return true;
  }
  return false;
}

void TransactionManager::RunOp(const ExecPtr& e, size_t op_index) {
  if (e->done) return;
  Operation& op = OpAt(e, op_index);
  const ExecutionCosts& costs = cluster_->config().costs;
  router::RoutingTable& routing = cluster_->routing_table();
  auto advance = [this, e]() {
    e->op_index++;
    ExecuteNextOp(e);
  };

  switch (op.kind) {
    case OpKind::kRead: {
      // Prefer the copy on the coordinator (turning would-be distributed
      // reads into local ones); fail over to a live replica when the
      // primary is down. Unreplicated keys always read the primary.
      Result<router::PartitionId> copy =
          cluster_->router().RouteReadNear(op.key, e->coordinator);
      const uint32_t p = copy.ok() ? *copy : e->coordinator;
      if (cluster_->node(p).down()) {
        AbortTransaction(e, AbortReason::kNodeCrash);
        return;
      }
      op.source_partition = p;
      e->AddParticipant(p);
      if (history_ != nullptr) {
        if (cluster_->mvcc_enabled()) {
          // Snapshot read: observe the version visible at begin_ts. Only
          // computed while a recorder is attached (the break mode implies
          // --check, so the recorder is always set when a break is armed).
          mvcc::VersionRead vr =
              cluster_->versions().ReadAsOf(op.key, e->begin_ts);
          uint64_t observed = vr.writer;
          if (check_break_ == check::BreakMode::kStaleSnapshot &&
              check_breaks_fired_ == 0) {
            // Only consume the break on a key with committed history —
            // an injected misreport on a chainless key would be
            // indistinguishable from a correct base read.
            uint64_t stale = 0;
            if (cluster_->versions().StaleObservation(op.key, e->begin_ts,
                                                      &stale)) {
              check_breaks_fired_++;
              observed = stale;
            }
          }
          history_->OnSnapshotRead(e->txn->id, op.key, p, observed,
                                   e->begin_ts, sim_->Now());
        } else {
          history_->OnRead(e->txn->id, op.key, p, sim_->Now());
        }
      }
      cluster_->node(p).RunJob(costs.read_query, CategoryFor(e, op),
                               JobClass::kBulk, advance);
      return;
    }
    case OpKind::kWrite: {
      Result<router::PartitionId> primary =
          cluster_->router().RouteWrite(op.key);
      const uint32_t p = primary.ok() ? *primary : e->coordinator;
      if (cluster_->node(p).down()) {
        AbortTransaction(e, AbortReason::kNodeCrash);
        return;
      }
      op.source_partition = p;
      e->AddParticipant(p);
      cluster_->node(p).RunJob(costs.write_query, CategoryFor(e, op),
                               JobClass::kBulk, advance);
      return;
    }
    case OpKind::kMigrateInsert:
    case OpKind::kReplicaCreate:
    case OpKind::kLeaderShift: {
      // Staged copy: capture the tuple at the source now, install it at
      // the target in phase 2. Stale-plan guard: when another transaction
      // already applied or raced this plan unit, skip the whole unit.
      uint32_t src = op.source_partition;
      const uint32_t dst = op.target_partition;
      Result<router::Placement> placement = routing.GetPlacement(op.key);
      bool current = placement.ok();
      if (current && op.kind == OpKind::kReplicaCreate) {
        // Copy from the current primary unless the target has a copy.
        src = placement->primary;
        current = !placement->HasReplicaOn(dst);
      } else if (current) {
        // The source must still lead, and a shift's target must still
        // hold the replica being promoted. A self-move (which no sane
        // plan emits) is a no-op: a self-migration would erase the
        // tuple's only copy at commit.
        current = placement->primary == src && src != dst &&
                  (op.kind != OpKind::kLeaderShift ||
                   placement->HasReplicaOn(dst));
      }
      Result<storage::Tuple> tuple = Status::NotFound("stale plan unit");
      if (current) tuple = cluster_->storage(src).Read(op.key);
      if (!tuple.ok()) {
        e->skipped_rep_ops.insert(op.repartition_op_id);
        advance();
        return;
      }
      op.source_partition = src;
      if (cluster_->node(src).down() || cluster_->node(dst).down()) {
        AbortTransaction(e, AbortReason::kNodeCrash);
        return;
      }
      e->staged[op.key] = *tuple;
      e->AddParticipant(src);
      e->AddParticipant(dst);
      const WorkCategory cat = CategoryFor(e, op);
      if (op.kind == OpKind::kLeaderShift) {
        // No data moves: the target already stores the bytes. The staged
        // content lets phase 2 write a WAL refresh record at the new
        // leader, so replaying its WAL reproduces the promoted copy.
        cluster_->node(dst).RunJob(costs.leader_shift, cat, JobClass::kBulk,
                                   advance);
        return;
      }
      const Duration service = op.kind == OpKind::kMigrateInsert
                                   ? costs.migrate_insert
                                   : costs.replica_create;
      cluster_->network().SendWithFailure(
          src, dst, storage::Tuple::kWireSize,
          [this, e, dst, cat, service, advance]() {
            if (e->done) return;
            // The destination may have crashed while the copy was in
            // flight.
            if (cluster_->node(dst).down()) {
              AbortTransaction(e, AbortReason::kNodeCrash);
              return;
            }
            cluster_->node(dst).RunJob(service, cat, JobClass::kBulk, advance);
          },
          [this, e]() {
            if (!e->done) AbortTransaction(e, AbortReason::kNodeCrash);
          });
      return;
    }
    case OpKind::kMigrateDelete: {
      if (e->skipped_rep_ops.count(op.repartition_op_id) > 0) {
        advance();
        return;
      }
      if (cluster_->node(op.source_partition).down()) {
        AbortTransaction(e, AbortReason::kNodeCrash);
        return;
      }
      e->AddParticipant(op.source_partition);
      cluster_->node(op.source_partition)
          .RunJob(costs.migrate_delete, CategoryFor(e, op),
                  JobClass::kBulk, advance);
      return;
    }
    case OpKind::kReplicaDelete: {
      Result<router::Placement> placement = routing.GetPlacement(op.key);
      if (!placement.ok() ||
          placement->primary == op.source_partition ||
          !placement->HasReplicaOn(op.source_partition)) {
        e->skipped_rep_ops.insert(op.repartition_op_id);
        advance();
        return;
      }
      if (cluster_->node(op.source_partition).down()) {
        AbortTransaction(e, AbortReason::kNodeCrash);
        return;
      }
      e->AddParticipant(op.source_partition);
      cluster_->node(op.source_partition)
          .RunJob(costs.replica_delete, CategoryFor(e, op),
                  JobClass::kBulk, advance);
      return;
    }
  }
}

void TransactionManager::BeginCommit(const ExecPtr& e) {
  Transaction& txn = *e->txn;
  const ExecutionCosts& costs = cluster_->config().costs;

  // The write set is exclusively locked from here until release, so no
  // migration can move these tuples anymore — but one may have moved them
  // between query execution and now. Re-resolve each write's partition so
  // the commit applies at the tuple's current home (and joins it to the
  // participant set). Synchronous log shipping: every live replica holder
  // of a written key joins too and applies the write in phase 2, so copies
  // commit in lockstep with the primary. Down replicas are skipped — they
  // catch up from the primary on restart.
  for (Operation& op : txn.ops) {
    if (op.kind != OpKind::kWrite) continue;
    Result<router::Placement> placement =
        cluster_->routing_table().GetPlacement(op.key);
    if (!placement.ok()) continue;
    if (placement->primary != op.source_partition) {
      op.source_partition = placement->primary;
      e->AddParticipant(placement->primary);
    }
    for (router::PartitionId rep : placement->replicas) {
      if (!cluster_->node(rep).down()) e->AddParticipant(rep);
    }
  }

  if (e->participants.size() <= 1) {
    // Collocated: one-phase local commit on the coordinator.
    const uint32_t p =
        e->participants.empty() ? e->coordinator : e->participants[0];
    if (cluster_->node(p).down()) {
      AbortTransaction(e, AbortReason::kNodeCrash);
      return;
    }
    txn.state = TxnState::kCommitting;
    if (Traced(txn)) {
      tracer_->End(txn.id, obs::SpanKind::kExecute, sim_->Now());
      tracer_->Begin(txn.id, obs::SpanKind::kCommit, sim_->Now());
    }
    cluster_->node(p).RunJob(costs.local_commit, OverheadCategory(e),
                             JobClass::kUrgent, [this, e, p]() {
                               Status s = ApplyAtPartition(e, p);
                               if (!s.ok()) {
                                 SOAP_LOG(kWarn)
                                     << "apply anomaly: " << s.ToString();
                               }
                               FinishCommit(e);
                             });
    return;
  }

  // Distributed: full 2PC across every touched partition. A down
  // coordinator cannot drive the protocol — presume abort up front.
  if (cluster_->node(e->coordinator).down()) {
    AbortTransaction(e, AbortReason::kNodeCrash);
    return;
  }
  // Prepare/commit-round spans are emitted by the 2PC driver, which owns
  // the phase transitions.
  txn.state = TxnState::kPreparing;
  if (Traced(txn)) {
    tracer_->End(txn.id, obs::SpanKind::kExecute, sim_->Now());
  }
  std::vector<txn::TpcParticipant> participants;
  participants.reserve(e->participants.size());
  for (uint32_t p : e->participants) {
    txn::TpcParticipant tp;
    tp.node = p;
    tp.prepare = [this, e, p](std::function<void(bool)> vote) {
      const bool veto =
          vote_abort_injector_ && vote_abort_injector_(*e->txn, p);
      cluster_->node(p).RunJob(cluster_->config().costs.prepare,
                               OverheadCategory(e), JobClass::kUrgent,
                               [vote = std::move(vote), veto]() {
                                 vote(!veto);
                               });
    };
    tp.commit = [this, e, p](std::function<void()> ack) {
      cluster_->node(p).RunJob(cluster_->config().costs.commit_apply,
                               OverheadCategory(e), JobClass::kUrgent,
                               [this, e, p, ack = std::move(ack)]() {
                                 Status s = ApplyAtPartition(e, p);
                                 if (!s.ok()) {
                                   SOAP_LOG(kWarn) << "apply anomaly: "
                                                   << s.ToString();
                                 }
                                 ack();
                               });
    };
    tp.abort = [this, e, p](std::function<void()> ack) {
      cluster_->node(p).RunJob(cluster_->config().costs.abort_cleanup,
                               OverheadCategory(e), JobClass::kUrgent,
                               std::move(ack));
    };
    participants.push_back(std::move(tp));
  }
  cluster_->tpc().Run(txn.id, e->coordinator, std::move(participants),
                      [this, e](bool committed) {
                        // A node-crash abort may have completed the exec
                        // before the protocol resolved.
                        if (e->done) return;
                        if (committed) {
                          e->txn->state = TxnState::kCommitting;
                          FinishCommit(e);
                        } else {
                          AbortTransaction(e, AbortReason::kVoteAbort);
                        }
                      });
}

Status TransactionManager::ApplyAtPartition(const ExecPtr& e,
                                            uint32_t partition) {
  if (!e->applied_partitions.insert(partition).second) return Status::OK();
  Transaction& txn = *e->txn;
  Status first_error = Status::OK();
  auto note = [&first_error](Status s) {
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  };
  const size_t total = TotalOps(e);
  // Does this transaction itself deploy a copy of `key` onto this
  // partition (piggybacked migrate / replica-create)? A carrier can both
  // write a key and carry that key's deployment; the staged copy was
  // captured before the carrier's buffered write existed anywhere, so the
  // copy installs first (pass 1) and the write must then land on the
  // fresh copy too (pass 2) — otherwise the carrier's own committed write
  // would survive only on the about-to-be-erased source.
  auto deploys_copy_here = [&](storage::TupleKey key) {
    for (size_t i = 0; i < total; ++i) {
      const Operation& op = OpAt(e, i);
      if (e->Skipped(op)) continue;
      if ((op.kind == OpKind::kMigrateInsert ||
           op.kind == OpKind::kReplicaCreate) &&
          op.key == key && op.target_partition == partition) {
        return true;
      }
    }
    return false;
  };
  // Pass 1: install staged copies at migrate / replica-create targets.
  for (size_t i = 0; i < total; ++i) {
    Operation& op = OpAt(e, i);
    if (e->Skipped(op)) continue;
    if (op.kind != OpKind::kMigrateInsert &&
        op.kind != OpKind::kReplicaCreate) {
      continue;
    }
    if (op.target_partition != partition) continue;
    // Deliberate-corruption hook: drop the staged copy install, so
    // routing registers a replica whose holder stores nothing.
    if (op.kind == OpKind::kReplicaCreate &&
        FireBreak(check::BreakMode::kReplicaApply)) {
      continue;
    }
    auto staged = e->staged.find(op.key);
    if (staged == e->staged.end()) {
      note(Status::Internal("no staged tuple for key " +
                            std::to_string(op.key)));
      continue;
    }
    note(cluster_->storage(partition).ApplyInsert(txn.id, staged->second));
  }
  // Leader shifts: write a WAL refresh record at the new leader with the
  // content staged from the old primary. The target already stores the
  // bytes (shift requires a live replica there), so this is storage-level
  // a no-op refresh — but it makes the promotion durable: WAL replay at
  // the new leader reproduces the promoted copy without consulting the
  // demoted one. ApplyUpdate is idempotent under replay. The refresh
  // applies as txn 0 (the catch-up-refresh convention): the carrier
  // commits no version of the key, so history attribution must stay on
  // the committed chain tail, which cannot move while the carrier holds
  // the key's exclusive lock.
  for (size_t i = 0; i < total; ++i) {
    Operation& op = OpAt(e, i);
    if (e->Skipped(op) || op.kind != OpKind::kLeaderShift) continue;
    if (op.target_partition != partition) continue;
    auto staged = e->staged.find(op.key);
    if (staged == e->staged.end()) {
      note(Status::Internal("no staged tuple for shifted key " +
                            std::to_string(op.key)));
      continue;
    }
    Status s = cluster_->storage(partition)
                   .ApplyUpdate(0, op.key, staged->second.content,
                                cluster_->mvcc_enabled() ? sim_->Now() : 0);
    if (!s.ok() && !s.IsNotFound()) note(std::move(s));
  }
  // Pass 2: direct write applies. kMigrateDelete / kReplicaDelete are
  // deferred to ApplyRoutingUpdates so the tuple stays reachable until
  // the routing flip (Zephyr-style late source cleanup).
  for (size_t i = 0; i < total; ++i) {
    Operation& op = OpAt(e, i);
    if (e->Skipped(op) || op.kind != OpKind::kWrite) continue;
    bool applies_here =
        op.source_partition == partition || deploys_copy_here(op.key);
    if (!applies_here) {
      // Shipped log apply: a replica holder applies the write during
      // its own phase 2.
      Result<router::Placement> placement =
          cluster_->routing_table().GetPlacement(op.key);
      applies_here = placement.ok() && placement->primary != partition &&
                     placement->HasReplicaOn(partition);
    }
    if (!applies_here) continue;
    // Deliberate-corruption hooks: drop this one apply on the
    // primary (lost update) or on a replica (silent divergence).
    const bool primary_apply = op.source_partition == partition;
    if (primary_apply ? FireBreak(check::BreakMode::kLostWrite)
                      : FireBreak(check::BreakMode::kReplicaApply)) {
      continue;
    }
    Status s = cluster_->storage(partition)
                   .ApplyUpdate(txn.id, op.key, op.write_value,
                                cluster_->mvcc_enabled() ? sim_->Now() : 0);
    // Updating a vanished row affects 0 rows; not an anomaly.
    if (!s.ok() && !s.IsNotFound()) note(std::move(s));
  }
  return first_error;
}

obs::TxnKind TransactionManager::KindOf(const txn::Transaction& t) {
  if (t.is_repartition) {
    for (const txn::Operation& op : t.ops) {
      if (op.kind == txn::OpKind::kMigrateInsert ||
          op.kind == txn::OpKind::kMigrateDelete ||
          op.kind == txn::OpKind::kLeaderShift) {
        return obs::TxnKind::kRepartition;
      }
    }
    return obs::TxnKind::kReplicaApply;
  }
  if (t.has_piggyback() || t.piggyback_source != 0) {
    return obs::TxnKind::kCarrier;
  }
  return obs::TxnKind::kClient;
}

void TransactionManager::ApplyRoutingUpdates(const ExecPtr& e) {
  Transaction& txn = *e->txn;
  router::RoutingTable& routing = cluster_->routing_table();
  const size_t total = TotalOps(e);
  for (size_t i = 0; i < total; ++i) {
    Operation& op = OpAt(e, i);
    if (e->Skipped(op)) continue;
    switch (op.kind) {
      case OpKind::kRead:
        break;
      case OpKind::kWrite: {
        // Live replicas applied the write in their phase 2; down replicas
        // must not be touched — the restart catch-up sweep repairs them.
        // A holder that came back up since commit began gets it here.
        Result<router::Placement> placement = routing.GetPlacement(op.key);
        if (!placement.ok()) break;
        for (router::PartitionId rep : placement->replicas) {
          if (e->applied_partitions.count(rep) > 0) continue;
          if (cluster_->node(rep).down()) continue;
          Status s = cluster_->storage(rep).ApplyUpdate(
              txn.id, op.key, op.write_value,
              cluster_->mvcc_enabled() ? sim_->Now() : 0);
          (void)s;  // replica divergence is surfaced by CheckConsistency
        }
        break;
      }
      case OpKind::kMigrateInsert: {
        Status s =
            routing.Migrate(op.key, op.source_partition,
                            op.target_partition);
        if (!s.ok()) {
          SOAP_LOG(kWarn) << "routing flip failed: " << s.ToString();
        } else if (flows_ != nullptr) {
          flows_->OnMigration(op.source_partition, op.target_partition);
        }
        break;
      }
      case OpKind::kMigrateDelete: {
        // Deliberate-corruption hook: skip the source cleanup, leaving the
        // tuple deployed twice (stored where routing no longer places it).
        if (FireBreak(check::BreakMode::kDoubleDeploy)) break;
        Status s = cluster_->storage(op.source_partition)
                       .ApplyErase(txn.id, op.key);
        if (!s.ok()) {
          SOAP_LOG(kWarn) << "migration source cleanup failed: "
                          << s.ToString();
        }
        break;
      }
      case OpKind::kReplicaCreate: {
        Status s = routing.AddReplica(op.key, op.target_partition);
        if (!s.ok()) {
          SOAP_LOG(kWarn) << "replica registration failed: " << s.ToString();
        } else if (flows_ != nullptr) {
          flows_->OnReplicaCreate(op.target_partition);
        }
        break;
      }
      case OpKind::kReplicaDelete: {
        Status s = routing.RemoveReplica(op.key, op.source_partition);
        if (s.ok()) {
          if (flows_ != nullptr) flows_->OnReplicaDrop(op.source_partition);
          s = cluster_->storage(op.source_partition)
                  .ApplyErase(txn.id, op.key);
        }
        if (!s.ok()) {
          SOAP_LOG(kWarn) << "replica removal failed: " << s.ToString();
        }
        break;
      }
      case OpKind::kLeaderShift: {
        // Deliberate-corruption hook: retarget the primary without the
        // swap — the target stays listed as a replica (doubled in the
        // placement) and the old primary strands its copy (must trip
        // double_primary / ownership).
        if (FireBreak(check::BreakMode::kDoublePrimary)) {
          Status s = routing.SetPrimary(op.key, op.target_partition);
          (void)s;
        } else {
          Status s = routing.Promote(op.key, op.target_partition);
          if (!s.ok()) {
            SOAP_LOG(kWarn) << "leader shift flip failed: " << s.ToString();
            break;
          }
          counters_.leader_shifts_applied++;
          if (flows_ != nullptr) flows_->OnLeaderShift(op.target_partition);
        }
        if (leader_shift_hook_) {
          leader_shift_hook_(op.key, op.target_partition);
        }
        break;
      }
    }
  }
}

void TransactionManager::InstallVersions(const ExecPtr& e,
                                         SimTime commit_ts) {
  // Final value per key, mirroring the history recorder's commit rule:
  // the last write to a key is the version the transaction publishes.
  const std::vector<Operation>& ops = e->txn->ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kWrite) continue;
    bool overwritten = false;
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[j].kind == OpKind::kWrite && ops[j].key == ops[i].key) {
        overwritten = true;
        break;
      }
    }
    if (overwritten) continue;
    cluster_->versions().Install(ops[i].key, e->txn->id, ops[i].write_value,
                                 commit_ts);
  }
}

void TransactionManager::FinishCommit(const ExecPtr& e) {
  Transaction& txn = *e->txn;
  ApplyRoutingUpdates(e);

  // Count applied repartition operations (distinct plan units).
  auto applied_units = [&e](const std::vector<Operation>& ops) {
    std::unordered_set<uint64_t> units;
    for (const Operation& op : ops) {
      if (op.repartition_op_id != 0 && !e->Skipped(op)) {
        units.insert(op.repartition_op_id);
      }
    }
    return units.size();
  };
  const size_t applied_piggyback = applied_units(txn.piggyback_ops);
  counters_.repartition_ops_applied +=
      applied_units(txn.ops) + applied_piggyback;
  counters_.piggybacked_ops_applied += applied_piggyback;

  // Install committed versions while the write locks are still held —
  // released waiters run synchronously from ReleaseAll, and their
  // first-updater-wins probes must already see these versions.
  if (cluster_->mvcc_enabled()) InstallVersions(e, sim_->Now());
  cluster_->lock_manager().ReleaseAll(txn.id);
  txn.state = TxnState::kCommitted;
  txn.finish_time = sim_->Now();
  if (history_ != nullptr) history_->OnCommit(txn, txn.finish_time);
  if (txn.is_repartition) {
    counters_.committed_repartition++;
  } else {
    counters_.committed_normal++;
    // Distributed iff the txn's own queries spanned >1 partition
    // (piggybacked repartition ops don't count against the workload).
    uint32_t span_partitions[8];
    uint32_t span = 0;
    for (const Operation& op : txn.ops) {
      if (op.repartition_op_id != 0) continue;
      bool seen = false;
      for (uint32_t i = 0; i < span; ++i) {
        if (span_partitions[i] == op.source_partition) {
          seen = true;
          break;
        }
      }
      if (!seen && span < 8) span_partitions[span++] = op.source_partition;
    }
    if (span > 1) counters_.committed_normal_distributed++;
    // Write distribution: a committed write is "distributed" when its
    // writes fan out to more than one storage site (another partition's
    // query, or write-through to HA replicas). Leader shifting exists to
    // drive this toward zero for write-hot keys.
    uint32_t wspan_partitions[8];
    uint32_t wspan = 0;
    bool has_write = false;
    auto note_wp = [&](uint32_t p) {
      for (uint32_t i = 0; i < wspan; ++i) {
        if (wspan_partitions[i] == p) return;
      }
      if (wspan < 8) wspan_partitions[wspan++] = p;
    };
    for (const Operation& op : txn.ops) {
      if (op.repartition_op_id != 0 || op.kind != OpKind::kWrite) continue;
      has_write = true;
      note_wp(op.source_partition);
      Result<router::Placement> placement =
          cluster_->routing_table().GetPlacement(op.key);
      if (placement.ok()) {
        for (router::PartitionId rep : placement->replicas) note_wp(rep);
      }
    }
    if (has_write) {
      counters_.committed_normal_with_writes++;
      if (wspan > 1) counters_.committed_normal_distributed_writes++;
    }
  }
  if (m_latency_committed_) {
    m_latency_committed_->RecordMicros(txn.finish_time - txn.submit_time);
  }
  if (Traced(txn)) {
    tracer_->FinishTxn(txn.id, txn.submit_time, txn.finish_time,
                       e->coordinator, true, KindOf(txn));
  }
  CompleteTransaction(e);
}

void TransactionManager::AbortTransaction(const ExecPtr& e,
                                          AbortReason reason) {
  if (e->timeout_event != sim::kInvalidEventId) {
    sim_->Cancel(e->timeout_event);
    e->timeout_event = sim::kInvalidEventId;
  }
  cluster_->lock_manager().ReleaseAll(e->txn->id);
  RecordAbort(*e->txn, reason, e->coordinator);
  CompleteTransaction(e);
}

void TransactionManager::RecordAbort(Transaction& txn, AbortReason reason,
                                     uint32_t coordinator) {
  txn.state = TxnState::kAborted;
  txn.abort_reason = reason;
  txn.finish_time = sim_->Now();
  if (history_ != nullptr) history_->OnAbort(txn);
  if (txn.is_repartition) {
    counters_.aborted_repartition++;
  } else {
    counters_.aborted_normal++;
    if (txn.has_piggyback()) counters_.piggyback_carrier_aborts++;
  }
  switch (reason) {
    case AbortReason::kDeadlock:
      counters_.aborts_deadlock++;
      break;
    case AbortReason::kLockTimeout:
      counters_.aborts_lock_timeout++;
      break;
    case AbortReason::kQueueTimeout:
      counters_.aborts_queue_timeout++;
      break;
    case AbortReason::kVoteAbort:
    case AbortReason::kInjected:
      counters_.aborts_vote++;
      break;
    case AbortReason::kNodeCrash:
      counters_.aborts_node_crash++;
      break;
    case AbortReason::kShutdown:
      counters_.aborts_shutdown++;
      break;
    case AbortReason::kWriteConflict:
      counters_.aborts_write_conflict++;
      break;
    case AbortReason::kNone:
      break;
  }
  CountAbortMetric(reason);
  if (m_latency_aborted_) {
    m_latency_aborted_->RecordMicros(txn.finish_time - txn.submit_time);
  }
  if (Traced(txn)) {
    tracer_->FinishTxn(txn.id, txn.submit_time, txn.finish_time, coordinator,
                       false, KindOf(txn));
  }
}

void TransactionManager::OnNodeCrash(uint32_t node) {
  std::vector<ExecPtr> victims;
  for (const auto& [id, e] : inflight_) {
    if (e->done) continue;
    const TxnState state = e->txn->state;
    // From the prepare round on the 2PC driver owns the outcome: it
    // aborts undecided instances of a dead coordinator and completes
    // decided ones through its retry path. One-phase commits (a single
    // participant, no protocol) are ours to abort — their vaporized
    // local-commit job would otherwise never call back.
    if (state == TxnState::kPreparing) continue;
    if (state == TxnState::kCommitting && e->participants.size() > 1) {
      continue;
    }
    bool involved = e->coordinator == node;
    for (uint32_t p : e->participants) {
      if (p == node) involved = true;
    }
    if (involved) victims.push_back(e);
  }
  // inflight_ iteration order is unspecified; sort for determinism.
  std::sort(victims.begin(), victims.end(),
            [](const ExecPtr& a, const ExecPtr& b) {
              return a->txn->id < b->txn->id;
            });
  for (const ExecPtr& e : victims) {
    if (!e->done) AbortTransaction(e, AbortReason::kNodeCrash);
  }
}

void TransactionManager::DrainQueue(txn::AbortReason reason) {
  // Completion callbacks may push fresh transactions; keep popping until
  // the queue stays empty.
  while (!queue_.Empty()) {
    std::unique_ptr<Transaction> t = queue_.Pop();
    RecordAbort(*t, reason, 0);
    if (completion_cb_) completion_cb_(*t);
  }
}

void TransactionManager::CompleteTransaction(const ExecPtr& e) {
  assert(!e->done);
  e->done = true;
  Transaction& txn = *e->txn;
  if (cluster_->mvcc_enabled()) cluster_->snapshots().End(txn.id);
  if (txn.priority == TxnPriority::kLow) {
    assert(inflight_low_ > 0);
    inflight_low_--;
  } else {
    assert(inflight_normal_or_high_ > 0);
    inflight_normal_or_high_--;
  }
  inflight_.erase(txn.id);
  if (completion_cb_) completion_cb_(txn);
  MaybeDispatch();
}

}  // namespace soap::cluster
