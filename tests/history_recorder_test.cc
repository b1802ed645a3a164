#include "src/check/history_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/json.h"

namespace soap::check {
namespace {

txn::Transaction Writer(uint64_t id, storage::TupleKey key, int64_t value) {
  txn::Transaction t;
  t.id = id;
  txn::Operation op;
  op.kind = txn::OpKind::kWrite;
  op.key = key;
  op.write_value = value;
  t.ops.push_back(op);
  return t;
}

storage::Tuple Row(storage::TupleKey key, int64_t content) {
  storage::Tuple t;
  t.key = key;
  t.content = content;
  return t;
}

TEST(HistoryRecorderTest, CommitAppendsOneVersionPerKey) {
  HistoryRecorder rec;
  rec.OnCommit(Writer(1, 42, 100), 10);
  rec.OnCommit(Writer(2, 42, 200), 20);
  const std::vector<VersionRecord> chain = rec.Chain(42);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].writer, 1u);
  EXPECT_EQ(chain[1].writer, 2u);
  EXPECT_EQ(chain[1].commit_time, 20u);
  int64_t tail = 0;
  ASSERT_TRUE(rec.TailValue(42, &tail));
  EXPECT_EQ(tail, 200);
}

TEST(HistoryRecorderTest, DoubleWriteCommitsOnlyTheLastValue) {
  HistoryRecorder rec;
  txn::Transaction t = Writer(1, 7, 10);
  txn::Operation again;
  again.kind = txn::OpKind::kWrite;
  again.key = 7;
  again.write_value = 99;
  t.ops.push_back(again);
  rec.OnCommit(t, 5);
  ASSERT_EQ(rec.Chain(7).size(), 1u);
  EXPECT_EQ(rec.Chain(7)[0].value, 99);
}

TEST(HistoryRecorderTest, UpdateAppliesAttributeTheWritingTxn) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(/*partition=*/3, /*txn_id=*/9, Row(5, 1));
  EXPECT_EQ(rec.LastWriter(3, 5), 9u);
  ASSERT_EQ(rec.write_applies().size(), 1u);
  EXPECT_EQ(rec.write_applies()[0].partition, 3u);
  EXPECT_EQ(rec.write_applies()[0].writer, 9u);
}

TEST(HistoryRecorderTest, CopyAppliesAttributeTheChainTail) {
  HistoryRecorder rec;
  rec.OnCommit(Writer(4, 5, 1), 10);
  // A migration/replica insert and a txn-0 catch-up refresh both carry
  // whatever version the chain tail holds, not the applying txn's id.
  rec.OnApplyInsert(/*partition=*/1, /*txn_id=*/77, Row(5, 1));
  EXPECT_EQ(rec.LastWriter(1, 5), 4u);
  rec.OnApplyUpdate(/*partition=*/2, /*txn_id=*/0, Row(5, 1));
  EXPECT_EQ(rec.LastWriter(2, 5), 4u);
  // Neither is an ordering-checked write apply.
  EXPECT_TRUE(rec.write_applies().empty());
}

TEST(HistoryRecorderTest, EraseForgetsThePartitionCopy) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(0, 9, Row(5, 1));
  rec.OnApplyErase(0, 9, 5);
  EXPECT_EQ(rec.LastWriter(0, 5), 0u);
}

TEST(HistoryRecorderTest, ReadsSnapshotTheServingPartition) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(0, 9, Row(5, 1));
  rec.OnRead(/*txn_id=*/11, /*key=*/5, /*partition=*/0, /*at=*/50);
  rec.OnRead(/*txn_id=*/12, /*key=*/5, /*partition=*/1, /*at=*/60);
  ASSERT_EQ(rec.reads().size(), 2u);
  EXPECT_EQ(rec.reads()[0].observed_writer, 9u);
  // Partition 1 never stored the key: initial version.
  EXPECT_EQ(rec.reads()[1].observed_writer, 0u);
}

TEST(HistoryRecorderTest, HistoryFileIsParseableJsonl) {
  HistoryRecorder rec;
  rec.OnCommit(Writer(1, 42, 100), 10);
  rec.OnApplyUpdate(0, 1, Row(42, 100));
  rec.OnRead(2, 42, 0, 50);
  rec.OnCommit(Writer(2, 43, 7), 60);
  const std::string path = ::testing::TempDir() + "history_test.jsonl";
  ASSERT_TRUE(rec.WriteHistoryFile(path).ok());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  Result<std::vector<json::Value>> lines = json::ParseLines(buf.str());
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  size_t commits = 0, chains = 0, reads = 0;
  for (const json::Value& v : *lines) {
    const std::string kind = v.GetString("kind");
    if (kind == "commit") commits++;
    if (kind == "chain") chains++;
    if (kind == "read") reads++;
  }
  EXPECT_EQ(commits, 2u);
  EXPECT_EQ(chains, 2u);
  EXPECT_EQ(reads, 1u);
  std::remove(path.c_str());
}

TEST(HistoryRecorderTest, SparseTxnIdsAndInterleavedChains) {
  // Txn ids need not be dense (a replay samples them from a long stream),
  // and commits interleave keys; each chain stays in commit order.
  HistoryRecorder rec;
  const uint64_t big = uint64_t{1} << 40;
  rec.OnCommit(Writer(big + 7, 5, 1), 10);
  rec.OnCommit(Writer(3, 6, 2), 11);
  rec.OnCommit(Writer(big, 5, 3), 12);
  rec.OnAbort(Writer(big + 1, 5, 4));
  EXPECT_EQ(rec.committed_count(), 3u);
  EXPECT_EQ(rec.aborted_count(), 1u);
  EXPECT_EQ(rec.txn_count(), 4u);
  EXPECT_TRUE(rec.IsCommitted(big));
  EXPECT_TRUE(rec.IsAborted(big + 1));
  EXPECT_FALSE(rec.IsCommitted(big + 1));
  EXPECT_EQ(rec.FindTxn(99), nullptr);
  EXPECT_EQ(rec.FindTxn(big)->seq, 2u);
  const std::vector<VersionRecord> chain = rec.Chain(5);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].writer, big + 7);
  EXPECT_EQ(chain[1].writer, big);
  EXPECT_TRUE(rec.Chain(77).empty());
  EXPECT_EQ(rec.FindChain(77), HistoryRecorder::kNoChain);
  int64_t tail = 0;
  EXPECT_FALSE(rec.TailValue(77, &tail));
}

TEST(HistoryRecorderTest, RecordLogsGrowPastOneChunk) {
  HistoryRecorder rec;
  const uint64_t n = 3 * ChunkedLog<ReadRecord>::kChunkSize + 5;
  for (uint64_t i = 0; i < n; ++i) rec.OnRead(i + 1, i, 0, 0);
  ASSERT_EQ(rec.reads().size(), n);
  uint64_t i = 0;
  for (const ReadRecord& r : rec.reads()) {
    EXPECT_EQ(r.key, i);
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(rec.reads()[n - 1].reader, n);
}

TEST(HistoryRecorderTest, HistoryFileBytes) {
  // The exact JSONL layout: commits by (time, id), chains by key, then
  // reads, snapshot reads and applies in record order.
  HistoryRecorder rec;
  rec.OnApplyUpdate(1, 9, Row(8, 5));
  rec.OnCommit(Writer(9, 8, 5), 30);
  rec.OnCommit(Writer(4, 8, 6), 20);
  rec.OnCommit(Writer(2, 3, 1), 30);
  rec.OnRead(11, 8, 1, 40);
  rec.OnSnapshotRead(12, 3, 0, 2, 35, 41);
  const std::string path = ::testing::TempDir() + "history_bytes.jsonl";
  ASSERT_TRUE(rec.WriteHistoryFile(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(),
            "{\"kind\":\"commit\",\"txn\":4,\"t_us\":20}\n"
            "{\"kind\":\"commit\",\"txn\":2,\"t_us\":30}\n"
            "{\"kind\":\"commit\",\"txn\":9,\"t_us\":30}\n"
            "{\"kind\":\"chain\",\"key\":3,\"versions\":[{\"writer\":2,"
            "\"t_us\":30,\"value\":1}]}\n"
            "{\"kind\":\"chain\",\"key\":8,\"versions\":[{\"writer\":9,"
            "\"t_us\":30,\"value\":5},{\"writer\":4,\"t_us\":20,"
            "\"value\":6}]}\n"
            "{\"kind\":\"read\",\"txn\":11,\"key\":8,\"partition\":1,"
            "\"observed\":9,\"t_us\":40}\n"
            "{\"kind\":\"snapshot_read\",\"txn\":12,\"key\":3,"
            "\"partition\":0,\"observed\":2,\"snapshot_t_us\":35,"
            "\"t_us\":41}\n"
            "{\"kind\":\"apply\",\"txn\":9,\"key\":8,\"partition\":1,"
            "\"t_us\":0}\n");
  std::remove(path.c_str());
}

TEST(HistoryRecorderTest, HistoryFileToAnUnwritablePathFails) {
  HistoryRecorder rec;
  EXPECT_FALSE(rec.WriteHistoryFile("/nonexistent-dir/h.jsonl").ok());
}

}  // namespace
}  // namespace soap::check
