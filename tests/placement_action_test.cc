// PlacementAction: the unified planner-op type promoted into soap_api.h.
// Pins the kind names and the uniform PlacementCost math every candidate
// is priced with.

#include "src/repartition/operation.h"

#include <gtest/gtest.h>

namespace soap::repartition {
namespace {

TEST(PlacementKindTest, LeaderShiftIsNewVocabulary) {
  EXPECT_STREQ(PlacementKindName(PlacementKind::kLeaderShift),
               "leader_shift");
}

TEST(PlacementKindTest, PaperKindsKeepTheirNames) {
  EXPECT_STREQ(PlacementKindName(PlacementKind::kMigrate), "migrate");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kReplicaCreate),
               "replica_create");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kReplicaDrop),
               "replica_delete");
}

TEST(PlacementCostTest, NetIsSavingsMinusPenalties) {
  PlacementCost cost;
  cost.move_bytes = 64;
  cost.tpc_savings = 1000.0;
  cost.freshness_penalty = 200.0;
  EXPECT_DOUBLE_EQ(cost.Net(), 1000.0 - 200.0 - 64.0);
}

TEST(PlacementCostTest, DefaultCostIsFree) {
  EXPECT_DOUBLE_EQ(PlacementCost{}.Net(), 0.0);
}

TEST(PlacementCostTest, LeaderShiftMovesNoBytes) {
  // A role swap never copies data; only savings and penalties price it.
  PlacementCost shift;
  shift.tpc_savings = 500.0;
  EXPECT_EQ(shift.move_bytes, 0u);
  EXPECT_DOUBLE_EQ(shift.Net(), 500.0);
}

}  // namespace
}  // namespace soap::repartition
