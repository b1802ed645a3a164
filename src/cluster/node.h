// A data node: worker slots that consume virtual time. Each PostgreSQL
// instance in the paper's testbed is one Node here; query execution, 2PC
// prepare/apply work and migration copies all occupy a worker for their
// service time, which is what makes capacity finite and queues real.

#ifndef SOAP_CLUSTER_NODE_H_
#define SOAP_CLUSTER_NODE_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace soap::cluster {

/// Attribution of node work, for the cost ratio the feedback controller
/// stabilises (§3.3) and for the reports. kExternal models interference
/// from other tenants on the same machine (§3.3: the system's capacity
/// "is subject to variations caused by external factors") — it consumes
/// workers but belongs to neither side of the controller's ratio.
enum class WorkCategory : uint8_t {
  kNormal = 0,
  kRepartition = 1,
  kExternal = 2,
};

/// Two service classes at each node. Commit-path work (prepare, apply,
/// local commit) is kUrgent: databases finish commits promptly — short
/// critical sections, group commit — so a backlog of queries must not
/// stretch the window during which commit-time locks are held. Query
/// execution and migration copies are kBulk.
enum class JobClass : uint8_t { kBulk = 0, kUrgent = 1 };

class Node {
 public:
  Node(sim::Simulator* sim, sim::NodeId id, uint32_t workers)
      : sim_(sim), id_(id), free_workers_(workers), workers_(workers) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::NodeId id() const { return id_; }
  uint32_t workers() const { return workers_; }

  /// Queues `service` time of work; `done` fires when a worker has spent
  /// that long on it. kUrgent jobs are served before kBulk; FIFO within a
  /// class. While the node is down, jobs are silently discarded (their
  /// `done` never fires — the fault layer aborts the owning transaction).
  void RunJob(Duration service, WorkCategory category, JobClass job_class,
              sim::InlineFn done);

  /// Crash semantics: discards queued jobs, vaporises running ones (their
  /// completion events still fire but find no running-job entry and do
  /// nothing — modelling work lost mid-flight), frees all workers and
  /// refuses new jobs until Restart().
  void Crash();
  void Restart() { down_ = false; }
  bool down() const { return down_; }

  /// Virtual time workers have spent busy, per category.
  Duration busy_time(WorkCategory category) const {
    return busy_time_[static_cast<int>(category)];
  }
  Duration total_busy_time() const {
    return busy_time_[0] + busy_time_[1] + busy_time_[2];
  }

  size_t queued_jobs() const {
    return bulk_queue_.size() + urgent_queue_.size();
  }
  uint64_t jobs_run() const { return jobs_run_; }

 private:
  struct Job {
    Duration service;
    WorkCategory category;
    sim::InlineFn done;
  };

  void StartJob(Job job);
  void OnJobDone(uint64_t job_id);

  sim::Simulator* sim_;
  sim::NodeId id_;
  uint32_t free_workers_;
  uint32_t workers_;
  std::deque<Job> bulk_queue_;
  std::deque<Job> urgent_queue_;
  Duration busy_time_[3] = {0, 0, 0};
  uint64_t jobs_run_ = 0;
  bool down_ = false;
  /// Completion callbacks of currently running jobs, keyed by job id (at
  /// most `workers_` entries, so a flat vector beats a hash map). Keeping
  /// the InlineFn here instead of inside the completion closure keeps that
  /// closure within InlineFn's inline buffer — no allocation per job.
  /// Crash() clears the table; a completion event whose id is gone knows
  /// its job was vaporised and leaves the worker accounting alone.
  std::vector<std::pair<uint64_t, sim::InlineFn>> running_;
  uint64_t next_job_id_ = 1;
};

}  // namespace soap::cluster

#endif  // SOAP_CLUSTER_NODE_H_
