#include "src/txn/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace soap::txn {

void LockManager::Reserve(size_t expected_keys, size_t expected_txns) {
  table_.reserve(expected_keys);
  held_.reserve(expected_txns);
  waiting_on_.reserve(expected_txns);
}

void LockManager::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_acquires_ = nullptr;
    m_waits_ = nullptr;
    m_deadlocks_ = nullptr;
    m_upgrades_ = nullptr;
    m_cancelled_waits_ = nullptr;
    m_waiting_txns_ = nullptr;
    return;
  }
  m_acquires_ = registry->GetCounter("soap_lock_acquires_total");
  m_waits_ = registry->GetCounter("soap_lock_waits_total");
  m_deadlocks_ = registry->GetCounter("soap_lock_deadlocks_total");
  m_upgrades_ = registry->GetCounter("soap_lock_upgrades_total");
  m_cancelled_waits_ = registry->GetCounter("soap_lock_cancelled_waits_total");
  m_waiting_txns_ = registry->GetGauge("soap_lock_waiting_txns");
}

bool LockManager::Compatible(const Entry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) continue;  // own locks never conflict (upgrade path)
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

AcquireOutcome LockManager::Acquire(TxnId txn, storage::TupleKey key,
                                    LockMode mode, GrantCallback on_grant) {
  stats_.acquires++;
  if (m_acquires_) m_acquires_->Increment();
  assert(waiting_on_.find(txn) == waiting_on_.end() &&
         "a transaction may wait for at most one lock at a time");

  Entry& entry = table_[key];

  // Already holding?
  for (Holder& h : entry.holders) {
    if (h.txn != txn) continue;
    if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      stats_.immediate_grants++;
      return AcquireOutcome::kGranted;  // same or weaker mode
    }
    // Upgrade S -> X.
    if (Compatible(entry, txn, LockMode::kExclusive)) {
      h.mode = LockMode::kExclusive;
      stats_.upgrades++;
      stats_.immediate_grants++;
      if (m_upgrades_) m_upgrades_->Increment();
      return AcquireOutcome::kGranted;
    }
    if (WouldDeadlock(txn, key)) {
      stats_.deadlocks++;
      if (m_deadlocks_) m_deadlocks_->Increment();
      return AcquireOutcome::kDeadlock;
    }
    // Upgrades go to the front of the queue: the holder blocks everyone
    // behind it anyway, and front placement avoids upgrade starvation.
    entry.waiters.push_front(
        Waiter{txn, LockMode::kExclusive, /*is_upgrade=*/true,
               std::move(on_grant)});
    waiting_on_[txn] = key;
    stats_.waits++;
    if (m_waits_) m_waits_->Increment();
    if (m_waiting_txns_) m_waiting_txns_->Set(static_cast<double>(waiting_on_.size()));
    return AcquireOutcome::kQueued;
  }

  // Fresh request: grant only if compatible AND nobody is queued ahead
  // (strict FIFO prevents starvation of X requests behind S traffic).
  if (entry.waiters.empty() && Compatible(entry, txn, mode)) {
    entry.holders.push_back(Holder{txn, mode});
    RecordHold(txn, key, mode);
    stats_.immediate_grants++;
    return AcquireOutcome::kGranted;
  }

  if (WouldDeadlock(txn, key)) {
    stats_.deadlocks++;
    if (m_deadlocks_) m_deadlocks_->Increment();
    return AcquireOutcome::kDeadlock;
  }
  entry.waiters.push_back(
      Waiter{txn, mode, /*is_upgrade=*/false, std::move(on_grant)});
  waiting_on_[txn] = key;
  stats_.waits++;
  if (m_waits_) m_waits_->Increment();
  if (m_waiting_txns_) m_waiting_txns_->Set(static_cast<double>(waiting_on_.size()));
  return AcquireOutcome::kQueued;
}

void LockManager::GrantWaiters(storage::TupleKey key, Entry& entry,
                               std::vector<GrantCallback>* callbacks) {
  while (!entry.waiters.empty()) {
    Waiter& w = entry.waiters.front();
    if (!Compatible(entry, w.txn, w.mode)) break;
    if (w.is_upgrade) {
      bool found = false;
      for (Holder& h : entry.holders) {
        if (h.txn == w.txn) {
          h.mode = LockMode::kExclusive;
          found = true;
          break;
        }
      }
      assert(found && "upgrade waiter lost its shared hold");
      (void)found;
      stats_.upgrades++;
      if (m_upgrades_) m_upgrades_->Increment();
    } else {
      entry.holders.push_back(Holder{w.txn, w.mode});
      RecordHold(w.txn, key, w.mode);
    }
    waiting_on_.erase(w.txn);
    callbacks->push_back(std::move(w.on_grant));
    entry.waiters.pop_front();
  }
  if (m_waiting_txns_) m_waiting_txns_->Set(static_cast<double>(waiting_on_.size()));
}

void LockManager::Release(TxnId txn, storage::TupleKey key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  Entry& entry = it->second;
  entry.holders.erase(
      std::remove_if(entry.holders.begin(), entry.holders.end(),
                     [txn](const Holder& h) { return h.txn == txn; }),
      entry.holders.end());
  auto held_it = held_.find(txn);
  if (held_it != held_.end()) {
    auto& keys = held_it->second;
    keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
    if (keys.empty()) held_.erase(held_it);
  }
  std::vector<GrantCallback> callbacks;
  GrantWaiters(key, entry, &callbacks);
  if (entry.holders.empty() && entry.waiters.empty()) table_.erase(it);
  for (auto& cb : callbacks) cb();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::vector<GrantCallback> callbacks;
  // Drop a pending wait first.
  auto wait_it = waiting_on_.find(txn);
  if (wait_it != waiting_on_.end()) {
    const storage::TupleKey key = wait_it->second;
    Entry& entry = table_[key];
    entry.waiters.erase(
        std::remove_if(entry.waiters.begin(), entry.waiters.end(),
                       [txn](const Waiter& w) { return w.txn == txn; }),
        entry.waiters.end());
    waiting_on_.erase(wait_it);
    stats_.cancelled_waits++;
    if (m_cancelled_waits_) m_cancelled_waits_->Increment();
    GrantWaiters(key, entry, &callbacks);
    if (entry.holders.empty() && entry.waiters.empty()) table_.erase(key);
  }
  // Then every held lock.
  auto held_it = held_.find(txn);
  if (held_it != held_.end()) {
    std::vector<storage::TupleKey> keys = std::move(held_it->second);
    held_.erase(held_it);
    for (storage::TupleKey key : keys) {
      auto it = table_.find(key);
      if (it == table_.end()) continue;
      Entry& entry = it->second;
      entry.holders.erase(
          std::remove_if(entry.holders.begin(), entry.holders.end(),
                         [txn](const Holder& h) { return h.txn == txn; }),
          entry.holders.end());
      GrantWaiters(key, entry, &callbacks);
      if (entry.holders.empty() && entry.waiters.empty()) table_.erase(it);
    }
  }
  for (auto& cb : callbacks) cb();
}

bool LockManager::CancelWait(TxnId txn) {
  auto wait_it = waiting_on_.find(txn);
  if (wait_it == waiting_on_.end()) return false;
  const storage::TupleKey key = wait_it->second;
  Entry& entry = table_[key];
  const size_t before = entry.waiters.size();
  entry.waiters.erase(
      std::remove_if(entry.waiters.begin(), entry.waiters.end(),
                     [txn](const Waiter& w) { return w.txn == txn; }),
      entry.waiters.end());
  const bool cancelled = entry.waiters.size() < before;
  waiting_on_.erase(wait_it);
  stats_.cancelled_waits++;
  if (m_cancelled_waits_) m_cancelled_waits_->Increment();
  // Removing a blocking waiter at the front may unblock those behind it.
  std::vector<GrantCallback> callbacks;
  GrantWaiters(key, entry, &callbacks);
  if (entry.holders.empty() && entry.waiters.empty()) table_.erase(key);
  for (auto& cb : callbacks) cb();
  return cancelled;
}

bool LockManager::WouldDeadlock(TxnId txn, storage::TupleKey key) const {
  // DFS over the wait-for graph, starting from the holders of `key`:
  // an edge T -> H exists when T waits on a key H holds. If we can reach
  // `txn` we would close a cycle. The requester's own hold on `key` (the
  // upgrade case) is not an edge — a transaction never waits on itself.
  std::vector<TxnId> stack;
  std::unordered_map<TxnId, bool> visited;
  auto push_holders = [&](storage::TupleKey k, TxnId exclude) {
    auto it = table_.find(k);
    if (it == table_.end()) return;
    for (const Holder& h : it->second.holders) {
      if (h.txn == exclude) continue;
      if (!visited[h.txn]) {
        visited[h.txn] = true;
        stack.push_back(h.txn);
      }
    }
  };
  push_holders(key, txn);
  while (!stack.empty()) {
    TxnId current = stack.back();
    stack.pop_back();
    if (current == txn) return true;
    auto wait_it = waiting_on_.find(current);
    if (wait_it != waiting_on_.end()) {
      // `current`'s own hold on the key it waits for (its upgrade) is not
      // an edge either.
      push_holders(wait_it->second, current);
    }
  }
  return false;
}

void LockManager::RecordHold(TxnId txn, storage::TupleKey key,
                             LockMode mode) {
  (void)mode;
  held_[txn].push_back(key);
}

bool LockManager::Holds(TxnId txn, storage::TupleKey key,
                        LockMode mode) const {
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn != txn) continue;
    return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
  }
  return false;
}

size_t LockManager::WaiterCount(storage::TupleKey key) const {
  auto it = table_.find(key);
  return it == table_.end() ? 0 : it->second.waiters.size();
}

size_t LockManager::LockedKeyCount() const {
  size_t count = 0;
  for (const auto& [key, entry] : table_) {
    if (!entry.holders.empty()) ++count;
  }
  return count;
}

}  // namespace soap::txn
