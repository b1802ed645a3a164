#include "src/repartition/optimizer.h"

#include <algorithm>
#include <unordered_map>

namespace soap::repartition {

uint32_t Optimizer::SpanOf(const workload::TxnTemplate& tmpl,
                           const router::RoutingTable& routing) const {
  uint32_t seen_mask = 0;  // partition counts are small (paper: 5)
  uint32_t span = 0;
  for (storage::TupleKey key : tmpl.keys) {
    Result<router::PartitionId> p = routing.GetPrimary(key);
    if (!p.ok()) continue;
    const uint32_t bit = 1u << (*p % 32);
    if ((seen_mask & bit) == 0) {
      seen_mask |= bit;
      ++span;
    }
  }
  return span;
}

double Optimizer::EstimateUtilization(
    const workload::WorkloadHistory& history,
    const router::RoutingTable& routing) const {
  double offered_work_per_s = 0.0;  // worker-microseconds per second
  for (uint32_t t = 0; t < catalog_->size(); ++t) {
    const double rate = history.FrequencyOf(t);
    if (rate <= 0.0) continue;
    const uint32_t span = SpanOf(catalog_->at(t), routing);
    const Duration cost = span > 1 ? cost_model_->DistributedTxnCost(span)
                                   : cost_model_->CollocatedTxnCost();
    offered_work_per_s += rate * static_cast<double>(cost);
  }
  const double capacity_per_s = static_cast<double>(total_workers_) * 1e6;
  return offered_work_per_s / capacity_per_s;
}

bool Optimizer::ShouldRepartition(const workload::WorkloadHistory& history,
                                  const router::RoutingTable& routing) const {
  return EstimateUtilization(history, routing) >
         config_.utilization_threshold;
}

Duration Optimizer::TemplateGain(uint32_t template_id,
                                 const router::RoutingTable& routing) const {
  const uint32_t span = SpanOf(catalog_->at(template_id), routing);
  if (span <= 1) return 0;
  return cost_model_->DistributedTxnCost(span) -
         cost_model_->CollocatedTxnCost();
}

RepartitionPlan Optimizer::DerivePlan(const router::RoutingTable& routing,
                                      OpIdAllocator* ids) const {
  RepartitionPlan plan;
  plan.epoch = ids->BeginEpoch();
  for (uint32_t t = 0; t < catalog_->size(); ++t) {
    const workload::TxnTemplate& tmpl = catalog_->at(t);
    // Current placement of the template's keys.
    std::unordered_map<uint32_t, uint32_t> count_by_partition;
    std::vector<std::pair<storage::TupleKey, uint32_t>> key_partitions;
    key_partitions.reserve(tmpl.keys.size());
    for (storage::TupleKey key : tmpl.keys) {
      Result<router::PartitionId> p = routing.GetPrimary(key);
      if (!p.ok()) continue;
      key_partitions.emplace_back(key, *p);
      count_by_partition[*p]++;
    }
    if (count_by_partition.size() <= 1) continue;  // already collocated

    // Majority partition wins (fewest tuples moved); ties break low.
    uint32_t target = 0;
    uint32_t best = 0;
    for (const auto& [partition, count] : count_by_partition) {
      if (count > best || (count == best && partition < target)) {
        best = count;
        target = partition;
      }
    }
    for (const auto& [key, partition] : key_partitions) {
      if (partition == target) continue;
      PlacementAction op;
      op.id = ids->Allocate();
      op.kind = PlacementKind::kMigrate;
      op.key = key;
      op.source_partition = partition;
      op.target_partition = target;
      op.affected_templates.push_back(t);
      plan.ops.push_back(std::move(op));
    }
  }
  return plan;
}

}  // namespace soap::repartition
