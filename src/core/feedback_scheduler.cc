#include "src/core/feedback_scheduler.h"

#include <algorithm>
#include <cmath>

namespace soap::core {

FeedbackScheduler::FeedbackScheduler(FeedbackConfig config)
    : config_(config), pid_(config.gains) {
  // The output is a work ratio; negative makes no sense and the cap
  // bounds the top anyway. 4x normal work is a generous ceiling.
  pid_.SetOutputLimits(0.0, 4.0);
}

void FeedbackScheduler::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_p_term_ = nullptr;
    m_i_term_ = nullptr;
    m_d_term_ = nullptr;
    m_error_ = nullptr;
    m_output_ = nullptr;
    m_scheduled_ = nullptr;
    m_promotions_ = nullptr;
    return;
  }
  m_p_term_ = registry->GetGauge("soap_pid_p_term");
  m_i_term_ = registry->GetGauge("soap_pid_i_term");
  m_d_term_ = registry->GetGauge("soap_pid_d_term");
  m_error_ = registry->GetGauge("soap_pid_error");
  m_output_ = registry->GetGauge("soap_pid_output");
  m_scheduled_ = registry->GetCounter("soap_feedback_scheduled_txns_total");
  m_promotions_ = registry->GetCounter("soap_feedback_promotions_total");
}

void FeedbackScheduler::OnPlanReady() {
  pid_.Reset();
  scheduled_work_since_tick_ = 0.0;
  if (env_.registry->size() > 0) {
    double total_cost = 0.0;
    double total_op_cost = 0.0;
    size_t total_ops = 0;
    for (uint64_t rid = 1; rid <= env_.registry->size(); ++rid) {
      const RepartitionTxn* rt = env_.registry->Get(rid);
      total_cost += rt->cost;
      for (const repartition::PlacementAction& op : rt->ops) {
        total_op_cost +=
            static_cast<double>(env_.cost_model->PiggybackedOpCost(op));
        ++total_ops;
      }
    }
    avg_rep_cost_ =
        std::max(1.0, total_cost / static_cast<double>(env_.registry->size()));
    if (total_ops > 0) {
      avg_piggyback_op_cost_ =
          std::max(1.0, total_op_cost / static_cast<double>(total_ops));
    }
  }
  RefillLowWindow();
}

void FeedbackScheduler::RefillLowWindow() {
  // Drop entries whose transactions already left the queue (dispatched,
  // committed or promoted): their registry state moved past kSubmitted or
  // their carrier changed.
  while (!low_queue_.empty()) {
    const auto& [rid, carrier] = low_queue_.front();
    const RepartitionTxn* rt = env_.registry->Get(rid);
    if (rt != nullptr && rt->state == RepartitionTxn::State::kSubmitted &&
        rt->carrier == carrier) {
      break;
    }
    low_queue_.pop_front();
  }
  if (paused()) return;
  // Fill from the COLD end of the ranked list: idle capacity is best
  // spent on data that transactions rarely visit (§3.5), and claiming the
  // hot head here would lock it away from the piggyback module and the
  // controller while the transaction sits at low priority.
  while (low_queue_.size() < config_.low_priority_window) {
    RepartitionTxn* rt = env_.registry->LastPending(Now());
    if (rt == nullptr) break;
    auto t =
        RepartitionRegistry::MakeTransaction(*rt, txn::TxnPriority::kLow);
    const txn::TxnId id = env_.tm->Submit(std::move(t));
    env_.registry->MarkSubmitted(rt->rid, id);
    low_queue_.emplace_back(rt->rid, id);
  }
}

uint32_t FeedbackScheduler::ScheduleAtNormalPriority(uint32_t n) {
  if (paused()) return 0;
  uint32_t scheduled = 0;
  // Submit the densest pending transactions at normal priority — the
  // ranked order of Algorithm 1.
  while (scheduled < n) {
    RepartitionTxn* rt = env_.registry->NextPending(Now());
    if (rt == nullptr) break;
    if (!SubmitPending(rt, txn::TxnPriority::kNormal)) break;
    scheduled_work_since_tick_ += rt->cost;
    ++scheduled;
    ++submitted_normal_priority_total_;
  }
  // If the pending pool is exhausted, promote queued low-priority ones
  // (the repartitioner "manipulates the processing queue", §2.2); the
  // back of the cold-first window holds the densest of them.
  while (scheduled < n && !low_queue_.empty()) {
    const auto [rid, carrier] = low_queue_.back();
    low_queue_.pop_back();
    const RepartitionTxn* rt = env_.registry->Get(rid);
    if (rt == nullptr || rt->state != RepartitionTxn::State::kSubmitted ||
        rt->carrier != carrier) {
      continue;  // stale entry
    }
    if (env_.tm->PromoteQueued(carrier, txn::TxnPriority::kNormal)) {
      ++scheduled;
      ++promoted_total_;
      if (m_promotions_) m_promotions_->Increment();
      scheduled_work_since_tick_ += rt->cost;
    }
    // If promotion failed the transaction is already executing; it no
    // longer occupies the low window either way.
  }
  if (m_scheduled_) m_scheduled_->Increment(scheduled);
  return scheduled;
}

void FeedbackScheduler::OnIntervalTick(const IntervalStats& stats) {
  if (Finished()) return;
  const double dt = ToSeconds(stats.length);
  if (dt <= 0.0) return;
  // PV: work this module scheduled since the last tick plus the
  // piggybacked work actually applied (the §3.5 coupling), relative to
  // the normal work processed. See the header for why scheduled — not
  // executed — standalone work enters the loop.
  const double piggy_work = static_cast<double>(stats.piggybacked_ops_applied) *
                            avg_piggyback_op_cost_;
  const double normal_work =
      std::max(1.0, static_cast<double>(stats.normal_work));
  const double pv = (scheduled_work_since_tick_ + piggy_work) / normal_work;
  scheduled_work_since_tick_ = 0.0;
  const double setpoint = config_.sp - 1.0;
  const double u = pid_.Update(setpoint - pv, dt);
  last_output_ = u;
  if (m_output_) {
    m_error_->Set(setpoint - pv);
    m_p_term_->Set(pid_.last_p_term());
    m_i_term_->Set(pid_.last_i_term());
    m_d_term_->Set(pid_.last_d_term());
    m_output_->Set(u);
  }

  // Translate the commanded work ratio into a transaction count for the
  // coming interval, bounded by the per-interval cap.
  const double target_work =
      u * std::max<double>(static_cast<double>(stats.normal_work), 0.0);
  auto n = static_cast<uint32_t>(
      std::clamp(std::floor(target_work / avg_rep_cost_), 0.0,
                 static_cast<double>(config_.max_txns_per_interval)));
  ScheduleAtNormalPriority(n);
  RefillLowWindow();
}

void FeedbackScheduler::OnTxnComplete(const txn::Transaction& t) {
  if (t.is_repartition) {
    // Keep idle capacity covered; aborted ones (now pending again) will be
    // reconsidered by the next tick or this refill.
    RefillLowWindow();
  }
}

void FeedbackScheduler::OnResume() { RefillLowWindow(); }

}  // namespace soap::core
