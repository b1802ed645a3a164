#include "src/core/repartition_txn.h"

#include <gtest/gtest.h>

namespace soap::core {
namespace {

RepartitionTxn Make(uint32_t tmpl, double density, size_t ops = 2) {
  RepartitionTxn rt;
  rt.beneficiary_template = tmpl;
  rt.density = density;
  rt.benefit = density * 100.0;
  rt.cost = 100.0;
  for (size_t i = 0; i < ops; ++i) {
    repartition::PlacementAction op;
    op.id = tmpl * 10 + i + 1;
    op.key = tmpl * 10 + i;
    op.source_partition = 1;
    op.target_partition = 0;
    rt.ops.push_back(op);
  }
  return rt;
}

TEST(RegistryTest, InitAssignsRidsAndCountsOps) {
  RepartitionRegistry reg;
  reg.Init({Make(0, 3.0), Make(1, 2.0), Make(2, 1.0)});
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.total_ops(), 6u);
  EXPECT_EQ(reg.pending_count(), 3u);
  EXPECT_EQ(reg.done_count(), 0u);
  EXPECT_FALSE(reg.AllDone());
  EXPECT_EQ(reg.Get(1)->rid, 1u);
  EXPECT_EQ(reg.Get(4), nullptr);
  EXPECT_EQ(reg.Get(0), nullptr);
}

TEST(RegistryTest, NextPendingIsDensest) {
  RepartitionRegistry reg;
  reg.Init({Make(0, 1.0), Make(1, 9.0), Make(2, 5.0)});
  EXPECT_EQ(reg.NextPending()->beneficiary_template, 1u);
  reg.MarkSubmitted(reg.NextPending()->rid, 100);
  EXPECT_EQ(reg.NextPending()->beneficiary_template, 2u);
}

TEST(RegistryTest, FindPendingByTemplate) {
  RepartitionRegistry reg;
  reg.Init({Make(7, 1.0), Make(9, 2.0)});
  RepartitionTxn* rt = reg.FindPendingByTemplate(7);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->beneficiary_template, 7u);
  EXPECT_EQ(reg.FindPendingByTemplate(8), nullptr);
  reg.MarkPiggybacked(rt->rid, 0);
  EXPECT_EQ(reg.FindPendingByTemplate(7), nullptr);  // no longer pending
}

TEST(RegistryTest, LifecycleSubmitDone) {
  RepartitionRegistry reg;
  reg.Init({Make(0, 1.0)});
  RepartitionTxn* rt = reg.NextPending();
  reg.MarkSubmitted(rt->rid, 55);
  EXPECT_EQ(rt->state, RepartitionTxn::State::kSubmitted);
  EXPECT_EQ(rt->carrier, 55u);
  EXPECT_EQ(rt->attempts, 1u);
  EXPECT_EQ(reg.pending_count(), 0u);
  reg.MarkDone(rt->rid);
  EXPECT_TRUE(reg.AllDone());
  EXPECT_EQ(reg.NextPending(), nullptr);
}

TEST(RegistryTest, AbortRevertsToPendingAndRetries) {
  RepartitionRegistry reg;
  reg.Init({Make(0, 1.0), Make(1, 5.0)});
  RepartitionTxn* hot = reg.NextPending();  // template 1
  reg.MarkSubmitted(hot->rid, 7);
  reg.MarkPending(hot->rid);  // aborted
  EXPECT_EQ(hot->state, RepartitionTxn::State::kPending);
  EXPECT_EQ(hot->carrier, 0u);
  // Still ranked first among pending.
  EXPECT_EQ(reg.NextPending(), hot);
  reg.MarkSubmitted(hot->rid, 8);
  EXPECT_EQ(hot->attempts, 2u);
}

TEST(RegistryTest, MarkDoneIdempotent) {
  RepartitionRegistry reg;
  reg.Init({Make(0, 1.0)});
  reg.MarkDone(1);
  reg.MarkDone(1);
  EXPECT_EQ(reg.done_count(), 1u);
  EXPECT_TRUE(reg.AllDone());
}

TEST(RegistryTest, MarkDoneFromPendingDirectly) {
  // A piggybacked txn applied by someone else can complete while pending.
  RepartitionRegistry reg;
  reg.Init({Make(0, 1.0), Make(1, 2.0)});
  reg.MarkDone(1);
  EXPECT_EQ(reg.pending_count(), 1u);
  EXPECT_EQ(reg.done_count(), 1u);
}

TEST(RegistryTest, MakeTransactionEmitsMigrationPairs) {
  RepartitionTxn rt = Make(3, 1.0, 2);
  auto t =
      RepartitionRegistry::MakeTransaction(rt, txn::TxnPriority::kHigh);
  EXPECT_TRUE(t->is_repartition);
  EXPECT_EQ(t->priority, txn::TxnPriority::kHigh);
  EXPECT_EQ(t->template_id, 3u);
  ASSERT_EQ(t->ops.size(), 4u);  // insert+delete per unit
  EXPECT_EQ(t->ops[0].kind, txn::OpKind::kMigrateInsert);
  EXPECT_EQ(t->ops[1].kind, txn::OpKind::kMigrateDelete);
  EXPECT_EQ(t->ops[0].key, t->ops[1].key);
  EXPECT_EQ(t->ops[0].repartition_op_id, t->ops[1].repartition_op_id);
}

TEST(RegistryTest, MakeTransactionOrdersOpsByKey) {
  RepartitionTxn rt;
  rt.beneficiary_template = 0;
  for (storage::TupleKey k : {50ULL, 10ULL, 30ULL}) {
    repartition::PlacementAction op;
    op.id = k;
    op.key = k;
    rt.ops.push_back(op);
  }
  auto t = RepartitionRegistry::MakeTransaction(rt, txn::TxnPriority::kLow);
  ASSERT_EQ(t->ops.size(), 6u);
  EXPECT_EQ(t->ops[0].key, 10u);
  EXPECT_EQ(t->ops[2].key, 30u);
  EXPECT_EQ(t->ops[4].key, 50u);
}

TEST(RegistryTest, InjectIntoAppendsPiggybackOps) {
  RepartitionTxn rt = Make(5, 1.0, 1);
  rt.rid = 42;
  txn::Transaction carrier;
  carrier.template_id = 5;
  txn::Operation read;
  read.kind = txn::OpKind::kRead;
  carrier.ops.push_back(read);
  RepartitionRegistry::InjectInto(rt, &carrier);
  EXPECT_EQ(carrier.piggyback_source, 42u);
  EXPECT_EQ(carrier.ops.size(), 1u);           // untouched
  EXPECT_EQ(carrier.piggyback_ops.size(), 2u); // insert+delete
  EXPECT_TRUE(carrier.has_piggyback());
}

TEST(RegistryTest, ReplicaOpsMapToReplicaOpKinds) {
  RepartitionTxn rt;
  rt.beneficiary_template = 0;
  repartition::PlacementAction create;
  create.id = 1;
  create.key = 5;
  create.kind = repartition::PlacementKind::kReplicaCreate;
  create.target_partition = 2;
  repartition::PlacementAction del;
  del.id = 2;
  del.key = 6;
  del.kind = repartition::PlacementKind::kReplicaDrop;
  del.source_partition = 1;
  rt.ops = {create, del};
  auto t = RepartitionRegistry::MakeTransaction(rt, txn::TxnPriority::kLow);
  ASSERT_EQ(t->ops.size(), 2u);
  EXPECT_EQ(t->ops[0].kind, txn::OpKind::kReplicaCreate);
  EXPECT_EQ(t->ops[1].kind, txn::OpKind::kReplicaDelete);
}

}  // namespace
}  // namespace soap::core
