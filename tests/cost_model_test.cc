#include "src/repartition/cost_model.h"

#include <gtest/gtest.h>

namespace soap::repartition {
namespace {

cluster::ExecutionCosts DefaultCosts() { return cluster::ExecutionCosts{}; }

PlacementAction Migration(storage::TupleKey key) {
  PlacementAction op;
  op.kind = PlacementKind::kMigrate;
  op.key = key;
  return op;
}

TEST(CostModelTest, CollocatedIsBeginQueriesCommit) {
  cluster::ExecutionCosts c = DefaultCosts();
  CostModel model(c, 5);
  EXPECT_EQ(model.CollocatedTxnCost(),
            c.begin + 5 * c.read_query + c.local_commit);
}

TEST(CostModelTest, DistributedRatioNearTwo) {
  // The paper's model: a transaction spanning >1 partition costs ~2Ci.
  CostModel model(DefaultCosts(), 5);
  const double ratio =
      static_cast<double>(model.DistributedTxnCost(2)) /
      static_cast<double>(model.CollocatedTxnCost());
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(CostModelTest, SinglePartitionDistributedDegenerates) {
  CostModel model(DefaultCosts(), 5);
  EXPECT_EQ(model.DistributedTxnCost(1), model.CollocatedTxnCost());
}

TEST(CostModelTest, CostGrowsWithParticipants) {
  CostModel model(DefaultCosts(), 5);
  EXPECT_LT(model.DistributedTxnCost(2), model.DistributedTxnCost(3));
  EXPECT_LT(model.DistributedTxnCost(3), model.DistributedTxnCost(5));
}

TEST(CostModelTest, RepartitionTxnCostScalesWithOps) {
  CostModel model(DefaultCosts(), 5);
  std::vector<PlacementAction> one = {Migration(1)};
  std::vector<PlacementAction> three = {Migration(1), Migration(2),
                                      Migration(3)};
  EXPECT_LT(model.RepartitionTxnCost(one), model.RepartitionTxnCost(three));
}

TEST(CostModelTest, MigrationAlwaysPaysTwoParticipant2pc) {
  cluster::ExecutionCosts c = DefaultCosts();
  CostModel model(c, 5);
  std::vector<PlacementAction> ops = {Migration(1)};
  EXPECT_EQ(model.RepartitionTxnCost(ops),
            c.begin + c.migrate_insert + c.migrate_delete +
                2 * (c.prepare + c.commit_apply));
}

TEST(CostModelTest, ReplicaDeletionAloneIsLocal) {
  cluster::ExecutionCosts c = DefaultCosts();
  CostModel model(c, 5);
  PlacementAction del;
  del.kind = PlacementKind::kReplicaDrop;
  std::vector<PlacementAction> ops = {del};
  EXPECT_EQ(model.RepartitionTxnCost(ops),
            c.begin + c.replica_delete + c.local_commit);
}

TEST(CostModelTest, PiggybackedOpSavesOverhead) {
  // The entire point of §3.4: piggybacking pays only the op work, not
  // begin + locks + 2PC.
  CostModel model(DefaultCosts(), 5);
  std::vector<PlacementAction> ops = {Migration(1)};
  EXPECT_LT(model.PiggybackedOpCost(ops[0]), model.RepartitionTxnCost(ops));
}

TEST(CostModelTest, AbstractCostMatchesPaper) {
  EXPECT_DOUBLE_EQ(CostModel::AbstractCost(false), 1.0);
  EXPECT_DOUBLE_EQ(CostModel::AbstractCost(true), 2.0);
}

}  // namespace
}  // namespace soap::repartition
