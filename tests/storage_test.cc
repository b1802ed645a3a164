#include <gtest/gtest.h>

#include "src/storage/storage_engine.h"
#include "src/storage/table.h"
#include "src/storage/tuple.h"
#include "src/storage/wal.h"

namespace soap::storage {
namespace {

Tuple Make(TupleKey key, int64_t content) {
  Tuple t;
  t.key = key;
  t.content = content;
  return t;
}

// ---------------------------------------------------------------- Table

TEST(TableTest, InsertAndGet) {
  Table t;
  ASSERT_TRUE(t.Insert(Make(1, 10)).ok());
  Result<Tuple> r = t.Get(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->content, 10);
  EXPECT_EQ(r->version, 0u);
}

TEST(TableTest, DuplicateInsertFails) {
  Table t;
  ASSERT_TRUE(t.Insert(Make(1, 10)).ok());
  EXPECT_EQ(t.Insert(Make(1, 20)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.Get(1)->content, 10);
}

TEST(TableTest, GetMissingIsNotFound) {
  Table t;
  EXPECT_TRUE(t.Get(5).status().IsNotFound());
}

TEST(TableTest, UpdateBumpsVersion) {
  Table t;
  ASSERT_TRUE(t.Insert(Make(1, 10)).ok());
  ASSERT_TRUE(t.Update(1, 99).ok());
  Result<Tuple> r = t.Get(1);
  EXPECT_EQ(r->content, 99);
  EXPECT_EQ(r->version, 1u);
  ASSERT_TRUE(t.Update(1, 100).ok());
  EXPECT_EQ(t.Get(1)->version, 2u);
}

TEST(TableTest, UpdateMissingFails) {
  Table t;
  EXPECT_TRUE(t.Update(7, 1).IsNotFound());
}

TEST(TableTest, EraseRemoves) {
  Table t;
  ASSERT_TRUE(t.Insert(Make(1, 10)).ok());
  ASSERT_TRUE(t.Erase(1).ok());
  EXPECT_FALSE(t.Contains(1));
  EXPECT_TRUE(t.Erase(1).IsNotFound());
}

TEST(TableTest, UpsertOverwrites) {
  Table t;
  t.Upsert(Make(1, 10));
  t.Upsert(Make(1, 20));
  EXPECT_EQ(t.Get(1)->content, 20);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, ForEachVisitsAll) {
  Table t;
  for (TupleKey k = 0; k < 10; ++k) t.Upsert(Make(k, 0));
  int visits = 0;
  t.ForEach([&](const Tuple&) { ++visits; });
  EXPECT_EQ(visits, 10);
}

// ------------------------------------------------------------------ WAL

TEST(WalTest, ReplayReconstructsState) {
  Wal wal;
  wal.AppendInsert(1, Make(1, 10));
  wal.AppendInsert(1, Make(2, 20));
  Tuple updated = Make(1, 99);
  updated.version = 1;
  wal.AppendUpdate(2, updated);
  wal.AppendErase(3, 2);

  Table t;
  ASSERT_TRUE(wal.Replay(&t).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Get(1)->content, 99);
  EXPECT_EQ(t.Get(1)->version, 1u);
}

TEST(WalTest, ReplayEraseOfMissingKeyIsCorruption) {
  Wal wal;
  wal.AppendErase(1, 42);
  Table t;
  EXPECT_EQ(wal.Replay(&t).code(), StatusCode::kCorruption);
}

TEST(WalTest, TruncateKeepsTail) {
  Wal wal;
  for (int i = 0; i < 10; ++i) wal.AppendInsert(1, Make(i, i));
  wal.Truncate(3);
  EXPECT_EQ(wal.size(), 3u);
  EXPECT_EQ(wal.records().front().tuple.key, 7u);
}

TEST(WalTest, TruncateNoOpWhenSmall) {
  Wal wal;
  wal.AppendInsert(1, Make(1, 1));
  wal.Truncate(5);
  EXPECT_EQ(wal.size(), 1u);
}

TEST(WalTest, DumpToFile) {
  Wal wal;
  wal.AppendInsert(7, Make(3, 30));
  const std::string path = ::testing::TempDir() + "/soap_wal_test.txt";
  ASSERT_TRUE(wal.DumpToFile(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------- StorageEngine

TEST(StorageEngineTest, ApplyInsertReadBack) {
  StorageEngine engine(0);
  ASSERT_TRUE(engine.ApplyInsert(1, Make(5, 50)).ok());
  EXPECT_TRUE(engine.Contains(5));
  EXPECT_EQ(engine.Read(5)->content, 50);
  EXPECT_EQ(engine.wal().size(), 1u);
}

TEST(StorageEngineTest, ApplyUpdateLogsNewValue) {
  StorageEngine engine(0);
  ASSERT_TRUE(engine.ApplyInsert(1, Make(5, 50)).ok());
  ASSERT_TRUE(engine.ApplyUpdate(2, 5, 77).ok());
  EXPECT_EQ(engine.Read(5)->content, 77);
  EXPECT_EQ(engine.wal().records().back().tuple.content, 77);
}

TEST(StorageEngineTest, ApplyUpdateMissingFails) {
  StorageEngine engine(0);
  EXPECT_TRUE(engine.ApplyUpdate(1, 99, 1).IsNotFound());
  EXPECT_EQ(engine.wal().size(), 0u);  // failed op must not log
}

TEST(StorageEngineTest, ApplyEraseRemoves) {
  StorageEngine engine(0);
  ASSERT_TRUE(engine.ApplyInsert(1, Make(5, 50)).ok());
  ASSERT_TRUE(engine.ApplyErase(2, 5).ok());
  EXPECT_FALSE(engine.Contains(5));
}

TEST(StorageEngineTest, RecoveryEqualsLiveState) {
  StorageEngine engine(3);
  for (TupleKey k = 0; k < 50; ++k) {
    ASSERT_TRUE(engine.ApplyInsert(k, Make(k, static_cast<int64_t>(k))).ok());
  }
  for (TupleKey k = 0; k < 50; k += 2) {
    ASSERT_TRUE(engine.ApplyUpdate(100 + k, k, -1).ok());
  }
  for (TupleKey k = 0; k < 50; k += 5) {
    ASSERT_TRUE(engine.ApplyErase(200 + k, k).ok());
  }
  // Snapshot live state, recover from WAL, compare.
  std::vector<std::pair<TupleKey, int64_t>> before;
  engine.table().ForEach([&](const Tuple& t) {
    before.emplace_back(t.key, t.content);
  });
  ASSERT_TRUE(engine.RecoverFromWal().ok());
  EXPECT_EQ(engine.tuple_count(), before.size());
  for (const auto& [key, content] : before) {
    ASSERT_TRUE(engine.Contains(key));
    EXPECT_EQ(engine.Read(key)->content, content);
  }
}

TEST(StorageEngineTest, BulkLoadSkipsWal) {
  StorageEngine engine(0);
  engine.BulkLoad(Make(1, 1));
  EXPECT_TRUE(engine.Contains(1));
  EXPECT_EQ(engine.wal().size(), 0u);
}

TEST(StorageEngineTest, PartitionIdStored) {
  StorageEngine engine(4);
  EXPECT_EQ(engine.partition_id(), 4u);
}

TEST(StorageEngineTest, CheckpointSealsBulkLoad) {
  StorageEngine engine(0);
  engine.BulkLoad(Make(1, 10));  // un-logged
  engine.Checkpoint();
  ASSERT_TRUE(engine.ApplyUpdate(1, 1, 20).ok());
  ASSERT_TRUE(engine.CrashAndRecover().ok());
  EXPECT_EQ(engine.Read(1)->content, 20);  // checkpoint + log suffix
  EXPECT_EQ(engine.checkpoint_size(), 1u);
}

TEST(StorageEngineTest, CrashWithoutCheckpointLosesBulkLoad) {
  // Bulk load is un-logged by design: without a checkpoint, recovery
  // rebuilds only logged state. This documents why the cluster
  // checkpoints after loading.
  StorageEngine engine(0);
  engine.BulkLoad(Make(1, 10));
  ASSERT_TRUE(engine.CrashAndRecover().ok());
  EXPECT_FALSE(engine.Contains(1));
}

TEST(StorageEngineTest, CheckpointTruncatesWal) {
  StorageEngine engine(0);
  for (TupleKey k = 0; k < 20; ++k) {
    ASSERT_TRUE(engine.ApplyInsert(1, Make(k, 0)).ok());
  }
  EXPECT_EQ(engine.wal().size(), 20u);
  engine.Checkpoint();
  EXPECT_EQ(engine.wal().size(), 0u);
  ASSERT_TRUE(engine.ApplyUpdate(2, 5, 99).ok());
  EXPECT_EQ(engine.wal().size(), 1u);
  ASSERT_TRUE(engine.CrashAndRecover().ok());
  EXPECT_EQ(engine.tuple_count(), 20u);
  EXPECT_EQ(engine.Read(5)->content, 99);
}

TEST(StorageEngineTest, RepeatedCrashRecoverIdempotent) {
  StorageEngine engine(0);
  engine.BulkLoad(Make(1, 10));
  engine.Checkpoint();
  ASSERT_TRUE(engine.ApplyInsert(1, Make(2, 20)).ok());
  ASSERT_TRUE(engine.ApplyErase(2, 1).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.CrashAndRecover().ok());
    EXPECT_FALSE(engine.Contains(1));
    EXPECT_EQ(engine.Read(2)->content, 20);
    EXPECT_EQ(engine.tuple_count(), 1u);
  }
}

TEST(StorageEngineTest, RehearsalAgreesWithRecoveryOnALazyBase) {
  // Partition 1 of 4 virtually holds keys 1, 5, 9, ... below 40. The WAL
  // updates, erases and re-inserts virtual rows past the checkpoint; the
  // rehearsal and a real crash-and-recover must agree with the live table.
  StorageEngine engine(1);
  engine.SetLazyBase(40, 4);
  ASSERT_TRUE(engine.ApplyErase(1, 5).ok());
  engine.Checkpoint();  // key 5 is dead in the checkpoint
  ASSERT_TRUE(engine.ApplyUpdate(2, 9, 90).ok());
  ASSERT_TRUE(engine.ApplyErase(3, 13).ok());
  ASSERT_TRUE(engine.ApplyInsert(4, Make(5, 55)).ok());
  ASSERT_TRUE(engine.ApplyErase(5, 9).ok());
  ASSERT_TRUE(engine.ApplyInsert(6, Make(9, 99)).ok());
  EXPECT_TRUE(engine.VerifyRecoveryImage().ok());
  const size_t live = engine.tuple_count();
  ASSERT_TRUE(engine.CrashAndRecover().ok());
  EXPECT_EQ(engine.tuple_count(), live);
  EXPECT_EQ(engine.Read(5)->content, 55);
  EXPECT_EQ(engine.Read(9)->content, 99);
  EXPECT_FALSE(engine.Contains(13));
}

TEST(StorageEngineTest, RehearsalAndRecoveryRejectTheSameMissingErase) {
  // Key 3 reaches the live table behind the WAL after the checkpoint, so
  // the logged erase of it finds nothing to erase on replay.
  StorageEngine engine(0);
  engine.Checkpoint();
  engine.BulkLoad(Make(3, 30));
  ASSERT_TRUE(engine.ApplyErase(1, 3).ok());
  Status rehearsal = engine.VerifyRecoveryImage();
  EXPECT_EQ(rehearsal.code(), StatusCode::kCorruption);
  Status recovery = engine.CrashAndRecover();
  EXPECT_EQ(recovery.code(), StatusCode::kCorruption);
  EXPECT_EQ(rehearsal.ToString(), recovery.ToString());
}

TEST(StorageEngineTest, RehearsalFlagsAWriteBehindTheWal) {
  StorageEngine engine(0);
  engine.BulkLoad(Make(1, 10));
  engine.Checkpoint();
  ASSERT_TRUE(engine.ApplyUpdate(1, 1, 11).ok());
  EXPECT_TRUE(engine.VerifyRecoveryImage().ok());
  engine.BulkLoad(Make(1, 12));  // content changed behind the WAL
  EXPECT_EQ(engine.VerifyRecoveryImage().code(), StatusCode::kCorruption);
  engine.BulkLoad(Make(2, 20));  // a row the WAL never saw
  EXPECT_EQ(engine.VerifyRecoveryImage().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace soap::storage
