#include "src/cluster/node.h"

#include <cassert>
#include <utility>

namespace soap::cluster {

void Node::RunJob(Duration service, WorkCategory category,
                  JobClass job_class, sim::InlineFn done) {
  assert(service >= 0);
  if (down_) return;
  Job job{service, category, std::move(done)};
  if (free_workers_ > 0) {
    StartJob(std::move(job));
  } else if (job_class == JobClass::kUrgent) {
    urgent_queue_.push_back(std::move(job));
  } else {
    bulk_queue_.push_back(std::move(job));
  }
}

void Node::StartJob(Job job) {
  assert(free_workers_ > 0);
  --free_workers_;
  busy_time_[static_cast<int>(job.category)] += job.service;
  ++jobs_run_;
  const uint64_t job_id = next_job_id_++;
  running_.emplace_back(job_id, std::move(job.done));
  sim_->After(job.service, [this, job_id]() { OnJobDone(job_id); });
}

void Node::OnJobDone(uint64_t job_id) {
  // Extract the callback (swap-erase) before anything else: starting the
  // next queued job below may grow `running_` and invalidate references.
  sim::InlineFn done;
  bool found = false;
  for (size_t i = 0; i < running_.size(); ++i) {
    if (running_[i].first != job_id) continue;
    done = std::move(running_[i].second);
    running_[i] = std::move(running_.back());
    running_.pop_back();
    found = true;
    break;
  }
  if (!found) return;  // job vaporised by a crash
  ++free_workers_;
  if (!urgent_queue_.empty()) {
    Job next = std::move(urgent_queue_.front());
    urgent_queue_.pop_front();
    StartJob(std::move(next));
  } else if (!bulk_queue_.empty()) {
    Job next = std::move(bulk_queue_.front());
    bulk_queue_.pop_front();
    StartJob(std::move(next));
  }
  done();
}

void Node::Crash() {
  bulk_queue_.clear();
  urgent_queue_.clear();
  // Vaporise running jobs: their completion events will find no entry.
  running_.clear();
  free_workers_ = workers_;
  down_ = true;
}

}  // namespace soap::cluster
