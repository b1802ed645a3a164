#include "src/core/txn_packager.h"

#include <gtest/gtest.h>

#include <set>

namespace soap::core {
namespace {

/// Small end-to-end fixture: catalog -> routing -> history -> plan.
struct Fixture {
  workload::WorkloadSpec spec;
  workload::TemplateCatalog catalog;
  repartition::CostModel cost_model;
  router::RoutingTable routing;
  repartition::Optimizer optimizer;
  workload::WorkloadHistory history;
  TxnPackager packager;

  Fixture()
      : spec(MakeSpec()),
        catalog(spec, 5),
        cost_model(cluster::ExecutionCosts{}, spec.queries_per_txn),
        routing(spec.num_keys),
        optimizer(&catalog, &cost_model, 10),
        history(spec.num_templates, 10),
        packager(&cost_model) {
    for (storage::TupleKey k = 0; k < spec.num_keys; ++k) {
      EXPECT_TRUE(routing.SetPrimary(k, catalog.InitialPartitionOf(k)).ok());
    }
  }

  static workload::WorkloadSpec MakeSpec() {
    workload::WorkloadSpec s;
    s.distribution = workload::PopularityDist::kZipf;
    s.num_templates = 50;
    s.num_keys = 500;
    s.alpha = 1.0;
    s.seed = 21;
    return s;
  }

  /// Records `count` observations of template t, then closes an interval.
  void Observe(std::initializer_list<std::pair<uint32_t, int>> counts) {
    for (auto [t, n] : counts) {
      for (int i = 0; i < n; ++i) history.Record(t);
    }
    history.CloseInterval(Seconds(20));
  }

  std::vector<RepartitionTxn> Package() {
    return packager.PackageAndRank(optimizer.DerivePlan(routing), history,
                                   optimizer, routing);
  }
};

TEST(TxnPackagerTest, EveryPlanOpInExactlyOneTxn) {
  Fixture f;
  f.Observe({{0, 100}, {1, 50}, {2, 10}});
  repartition::RepartitionPlan plan = f.optimizer.DerivePlan(f.routing);
  std::vector<RepartitionTxn> ranked = f.Package();
  std::set<uint64_t> seen;
  size_t total = 0;
  for (const RepartitionTxn& rt : ranked) {
    for (const auto& op : rt.ops) {
      EXPECT_TRUE(seen.insert(op.id).second) << "op " << op.id << " twice";
      ++total;
    }
  }
  EXPECT_EQ(total, plan.size());
}

TEST(TxnPackagerTest, OneTxnPerBenefitingTemplate) {
  Fixture f;
  f.Observe({{0, 10}});
  std::vector<RepartitionTxn> ranked = f.Package();
  std::set<uint32_t> beneficiaries;
  for (const RepartitionTxn& rt : ranked) {
    EXPECT_TRUE(beneficiaries.insert(rt.beneficiary_template).second);
    // Group heuristic: all ops of a txn repartition that template's data.
    for (const auto& op : rt.ops) {
      ASSERT_EQ(op.affected_templates.size(), 1u);
      EXPECT_EQ(op.affected_templates[0], rt.beneficiary_template);
    }
  }
  EXPECT_EQ(ranked.size(), f.catalog.distributed_count());
}

TEST(TxnPackagerTest, RankedByDensityDescending) {
  Fixture f;
  f.Observe({{0, 100}, {3, 77}, {7, 20}, {9, 5}});
  std::vector<RepartitionTxn> ranked = f.Package();
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].density, ranked[i].density);
  }
}

TEST(TxnPackagerTest, HotterTemplateRanksFirst) {
  Fixture f;
  f.Observe({{5, 500}, {6, 1}});
  std::vector<RepartitionTxn> ranked = f.Package();
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].beneficiary_template, 5u);
  EXPECT_GT(ranked[0].benefit, 0.0);
}

TEST(TxnPackagerTest, BenefitMatchesFrequencyTimesGain) {
  Fixture f;
  f.Observe({{4, 40}});  // 2 txn/s over a 20s interval
  std::vector<RepartitionTxn> ranked = f.Package();
  const RepartitionTxn* rt = nullptr;
  for (const auto& r : ranked) {
    if (r.beneficiary_template == 4) rt = &r;
  }
  ASSERT_NE(rt, nullptr);
  const double gain =
      static_cast<double>(f.optimizer.TemplateGain(4, f.routing));
  EXPECT_NEAR(rt->benefit, 2.0 * gain, 1e-6);
  EXPECT_NEAR(rt->density, rt->benefit / rt->cost, 1e-12);
}

TEST(TxnPackagerTest, UnobservedTemplatesStillPackaged) {
  // Plan completeness: templates never seen in the history have zero
  // benefit but their migrations must still be scheduled.
  Fixture f;
  f.Observe({{0, 10}});
  std::vector<RepartitionTxn> ranked = f.Package();
  EXPECT_EQ(ranked.size(), f.catalog.distributed_count());
  size_t zero_benefit = 0;
  for (const auto& rt : ranked) {
    if (rt.benefit == 0.0) ++zero_benefit;
  }
  EXPECT_EQ(zero_benefit, ranked.size() - 1);
  // And the zero-benefit ones rank behind the observed one.
  EXPECT_EQ(ranked[0].beneficiary_template, 0u);
}

TEST(TxnPackagerTest, CostComesFromCostModel) {
  Fixture f;
  f.Observe({{0, 10}});
  std::vector<RepartitionTxn> ranked = f.Package();
  for (const auto& rt : ranked) {
    EXPECT_DOUBLE_EQ(
        rt.cost,
        static_cast<double>(f.cost_model.RepartitionTxnCost(rt.ops)));
  }
}

TEST(TxnPackagerTest, EmptyPlanYieldsNoTxns) {
  Fixture f;
  f.Observe({{0, 10}});
  repartition::RepartitionPlan empty;
  EXPECT_TRUE(
      f.packager.PackageAndRank(empty, f.history, f.optimizer, f.routing)
          .empty());
}

TEST(TxnPackagerTest, SingleGiantModeMakesOneTxn) {
  Fixture f;
  f.Observe({{0, 10}});
  repartition::RepartitionPlan plan = f.optimizer.DerivePlan(f.routing);
  auto ranked = f.packager.PackageAndRank(plan, f.history, f.optimizer,
                                          f.routing,
                                          PackagingMode::kSingleGiantTxn);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].ops.size(), plan.size());
}

TEST(TxnPackagerTest, PerOperationModeMakesOneTxnPerUnit) {
  Fixture f;
  f.Observe({{0, 10}});
  repartition::RepartitionPlan plan = f.optimizer.DerivePlan(f.routing);
  auto ranked = f.packager.PackageAndRank(plan, f.history, f.optimizer,
                                          f.routing,
                                          PackagingMode::kPerOperation);
  EXPECT_EQ(ranked.size(), plan.size());
  for (const auto& rt : ranked) EXPECT_EQ(rt.ops.size(), 1u);
}

TEST(TxnPackagerTest, RangeModeMergesContiguousRuns) {
  // Hand-built plan: keys 10,11,12 move 1->0 (one range); key 14 moves
  // 1->0 (gap: its own range); key 15 moves 2->0 (endpoint change: own
  // range even though contiguous with 14).
  Fixture f;
  f.Observe({{0, 10}});
  repartition::RepartitionPlan plan;
  auto add = [&plan](storage::TupleKey key, uint32_t src) {
    repartition::PlacementAction op;
    op.id = plan.size() + 1;
    op.key = key;
    op.source_partition = src;
    op.target_partition = 0;
    op.affected_templates.push_back(0);
    plan.ops.push_back(op);
  };
  add(12, 1);
  add(10, 1);
  add(11, 1);
  add(14, 1);
  add(15, 2);
  auto ranked = f.packager.PackageAndRank(plan, f.history, f.optimizer,
                                          f.routing,
                                          PackagingMode::kPerKeyRange);
  ASSERT_EQ(ranked.size(), 3u);
  size_t sizes[3];
  for (size_t i = 0; i < 3; ++i) sizes[i] = ranked[i].ops.size();
  std::sort(sizes, sizes + 3);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 3u);
}

TEST(TxnPackagerTest, HashModeBoundsGroupCount) {
  Fixture f;
  f.Observe({{0, 10}});
  repartition::RepartitionPlan plan = f.optimizer.DerivePlan(f.routing);
  auto ranked = f.packager.PackageAndRank(plan, f.history, f.optimizer,
                                          f.routing,
                                          PackagingMode::kPerHashBucket);
  EXPECT_LE(ranked.size(), 64u);
  size_t total = 0;
  for (const auto& rt : ranked) total += rt.ops.size();
  EXPECT_EQ(total, plan.size());
}

TEST(TxnPackagerTest, EveryModeCoversThePlanExactlyOnce) {
  Fixture f;
  f.Observe({{0, 30}, {5, 10}});
  repartition::RepartitionPlan plan = f.optimizer.DerivePlan(f.routing);
  for (PackagingMode mode :
       {PackagingMode::kPerBenefitingTemplate, PackagingMode::kSingleGiantTxn,
        PackagingMode::kPerOperation, PackagingMode::kPerKeyRange,
        PackagingMode::kPerHashBucket}) {
    auto ranked = f.packager.PackageAndRank(plan, f.history, f.optimizer,
                                            f.routing, mode);
    std::set<uint64_t> seen;
    for (const auto& rt : ranked) {
      for (const auto& op : rt.ops) {
        EXPECT_TRUE(seen.insert(op.id).second)
            << "mode " << static_cast<int>(mode);
      }
    }
    EXPECT_EQ(seen.size(), plan.size()) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace soap::core
