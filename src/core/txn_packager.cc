#include "src/core/txn_packager.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace soap::core {

std::vector<RepartitionTxn> TxnPackager::PackageExtreme(
    const repartition::RepartitionPlan& plan,
    const workload::WorkloadHistory& history,
    const repartition::Optimizer& optimizer,
    const router::RoutingTable& routing, PackagingMode mode) const {
  // Per-op benefit, as in Algorithm 1 lines 1-9, so the ablation modes
  // still rank sensibly.
  auto benefit_of = [&](const repartition::PlacementAction& op) {
    double benefit = 0.0;
    for (uint32_t t : op.affected_templates) {
      const Duration gain = optimizer.TemplateGain(t, routing);
      if (gain > 0) benefit += history.FrequencyOf(t) * static_cast<double>(gain);
    }
    return benefit;
  };
  std::vector<RepartitionTxn> result;
  if (mode == PackagingMode::kSingleGiantTxn) {
    if (plan.empty()) return result;
    RepartitionTxn rt;
    rt.beneficiary_template =
        plan.ops[0].affected_templates.empty()
            ? 0
            : plan.ops[0].affected_templates[0];
    for (const auto& op : plan.ops) {
      rt.benefit += benefit_of(op);
      rt.ops.push_back(op);
    }
    rt.cost = static_cast<double>(cost_model_->RepartitionTxnCost(rt.ops));
    rt.density = rt.cost > 0 ? rt.benefit / rt.cost : 0.0;
    result.push_back(std::move(rt));
    return result;
  }
  // kPerOperation.
  result.reserve(plan.size());
  for (const auto& op : plan.ops) {
    RepartitionTxn rt;
    rt.beneficiary_template =
        op.affected_templates.empty() ? 0 : op.affected_templates[0];
    rt.benefit = benefit_of(op);
    rt.ops.push_back(op);
    rt.cost = static_cast<double>(cost_model_->RepartitionTxnCost(rt.ops));
    rt.density = rt.cost > 0 ? rt.benefit / rt.cost : 0.0;
    result.push_back(std::move(rt));
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const RepartitionTxn& a, const RepartitionTxn& b) {
                     return a.density > b.density;
                   });
  return result;
}

std::vector<RepartitionTxn> TxnPackager::PackageGrouped(
    const repartition::RepartitionPlan& plan,
    const workload::WorkloadHistory& history,
    const repartition::Optimizer& optimizer,
    const router::RoutingTable& routing, PackagingMode mode) const {
  auto benefit_of = [&](const repartition::PlacementAction& op) {
    double benefit = 0.0;
    for (uint32_t t : op.affected_templates) {
      const Duration gain = optimizer.TemplateGain(t, routing);
      if (gain > 0) {
        benefit += history.FrequencyOf(t) * static_cast<double>(gain);
      }
    }
    return benefit;
  };

  // Order plan units by key so range runs are maximal.
  std::vector<const repartition::PlacementAction*> ordered;
  ordered.reserve(plan.size());
  for (const auto& op : plan.ops) ordered.push_back(&op);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->key < b->key; });

  constexpr uint64_t kHashBuckets = 64;
  auto group_of = [&](const repartition::PlacementAction& op,
                      const repartition::PlacementAction* prev,
                      uint64_t prev_group) -> uint64_t {
    if (mode == PackagingMode::kPerHashBucket) {
      // Splitmix-style avalanche on the key.
      uint64_t h = op.key * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
      return h % kHashBuckets;
    }
    // kPerKeyRange: same group while keys are contiguous and the move has
    // the same endpoints.
    if (prev != nullptr && op.key == prev->key + 1 &&
        op.source_partition == prev->source_partition &&
        op.target_partition == prev->target_partition) {
      return prev_group;
    }
    return prev_group + 1;
  };

  std::map<uint64_t, std::vector<const repartition::PlacementAction*>> groups;
  const repartition::PlacementAction* prev = nullptr;
  uint64_t current_group = 0;
  for (const auto* op : ordered) {
    current_group = group_of(*op, prev, current_group);
    groups[current_group].push_back(op);
    prev = op;
  }

  std::vector<RepartitionTxn> result;
  result.reserve(groups.size());
  for (const auto& [group, ops] : groups) {
    RepartitionTxn rt;
    rt.beneficiary_template = ops[0]->affected_templates.empty()
                                  ? 0
                                  : ops[0]->affected_templates[0];
    for (const auto* op : ops) {
      rt.benefit += benefit_of(*op);
      rt.ops.push_back(*op);
    }
    rt.cost = static_cast<double>(cost_model_->RepartitionTxnCost(rt.ops));
    rt.density = rt.cost > 0 ? rt.benefit / rt.cost : 0.0;
    result.push_back(std::move(rt));
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const RepartitionTxn& a, const RepartitionTxn& b) {
                     return a.density > b.density;
                   });
  return result;
}

std::vector<RepartitionTxn> TxnPackager::PackageAndRank(
    const repartition::RepartitionPlan& plan,
    const workload::WorkloadHistory& history,
    const repartition::Optimizer& optimizer,
    const router::RoutingTable& routing, PackagingMode mode) const {
  if (mode == PackagingMode::kPerKeyRange ||
      mode == PackagingMode::kPerHashBucket) {
    return PackageGrouped(plan, history, optimizer, routing, mode);
  }
  if (mode != PackagingMode::kPerBenefitingTemplate) {
    return PackageExtreme(plan, history, optimizer, routing, mode);
  }
  // --- Lines 1-5: Top maps each benefiting template t_i to the plan
  // operations that modify objects it accesses (only when the new plan
  // actually improves it: Ci(O) - Ci(P) > 0).
  std::unordered_map<uint32_t, std::vector<size_t>> top;
  std::unordered_map<uint32_t, Duration> gain_cache;
  auto gain_of = [&](uint32_t t) {
    auto it = gain_cache.find(t);
    if (it != gain_cache.end()) return it->second;
    const Duration g = optimizer.TemplateGain(t, routing);
    gain_cache.emplace(t, g);
    return g;
  };
  for (size_t k = 0; k < plan.ops.size(); ++k) {
    for (uint32_t t : plan.ops[k].affected_templates) {
      if (gain_of(t) > 0) top[t].push_back(k);
    }
  }

  // --- Lines 6-9: spread each template's benefit f_i * (Ci(O) - Ci(P))
  // evenly over the operations it depends on.
  std::vector<double> op_benefit(plan.ops.size(), 0.0);
  for (const auto& [t, op_indices] : top) {
    if (op_indices.empty()) continue;
    const double fi = history.FrequencyOf(t);
    const double benefit = fi * static_cast<double>(gain_of(t)) /
                           static_cast<double>(op_indices.size());
    for (size_t k : op_indices) op_benefit[k] += benefit;
  }

  // --- Lines 10-15: total benefit per group, sorted descending.
  std::vector<std::pair<uint32_t, double>> group_benefit;
  group_benefit.reserve(top.size());
  for (const auto& [t, op_indices] : top) {
    double benefit = 0.0;
    for (size_t k : op_indices) benefit += op_benefit[k];
    group_benefit.emplace_back(t, benefit);
  }
  std::sort(group_benefit.begin(), group_benefit.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  // --- Lines 16-26: walk groups in benefit order; each operation joins
  // exactly one repartition transaction (the first group that claims it),
  // and claimed operations are deducted from later groups' benefits.
  std::vector<bool> claimed(plan.ops.size(), false);
  std::vector<RepartitionTxn> result;
  result.reserve(group_benefit.size());
  for (const auto& [t, benefit_in] : group_benefit) {
    double benefit = benefit_in;
    std::vector<repartition::PlacementAction> ops;
    for (size_t k : top[t]) {
      if (claimed[k]) {
        benefit -= op_benefit[k];  // line 20
        continue;
      }
      claimed[k] = true;
      repartition::PlacementAction op = plan.ops[k];
      op.benefit = op_benefit[k];
      ops.push_back(std::move(op));
    }
    if (ops.empty()) continue;  // everything claimed by earlier groups
    RepartitionTxn rt;
    rt.beneficiary_template = t;
    rt.benefit = benefit;
    rt.cost = static_cast<double>(cost_model_->RepartitionTxnCost(ops));
    rt.ops = std::move(ops);
    rt.density = rt.cost > 0.0 ? rt.benefit / rt.cost : 0.0;
    result.push_back(std::move(rt));
  }

  // Plan units benefiting no tracked template (e.g. cold templates with
  // zero gain) must still be executed: package the leftovers one
  // transaction per affected template so the plan always completes.
  std::unordered_map<uint32_t, std::vector<repartition::PlacementAction>>
      leftovers;
  for (size_t k = 0; k < plan.ops.size(); ++k) {
    if (claimed[k]) continue;
    const auto& op = plan.ops[k];
    const uint32_t t =
        op.affected_templates.empty() ? 0 : op.affected_templates[0];
    leftovers[t].push_back(op);
  }
  for (auto& [t, ops] : leftovers) {
    RepartitionTxn rt;
    rt.beneficiary_template = t;
    rt.benefit = 0.0;
    rt.cost = static_cast<double>(cost_model_->RepartitionTxnCost(ops));
    rt.ops = std::move(ops);
    rt.density = 0.0;
    result.push_back(std::move(rt));
  }

  // --- Line 27: final ranking by benefit density, descending.
  std::stable_sort(result.begin(), result.end(),
                   [](const RepartitionTxn& a, const RepartitionTxn& b) {
                     if (a.density != b.density) return a.density > b.density;
                     return a.beneficiary_template < b.beneficiary_template;
                   });
  return result;
}

}  // namespace soap::core
