// Synthetic histories, one per checker rule. The default experiment
// workload has disjoint read and write key sets (see DESIGN.md §6), so
// the read-dependency rules never fire end-to-end there; these tests pin
// each rule against a hand-built history instead.

#include "src/check/checker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/history_recorder.h"

namespace soap::check {

/// Reaches recorder states no hook sequence produces: every OnCommit
/// marks its txn committed before appending its versions, so a chain
/// writer the recorder does not consider committed needs a forged record.
class HistoryRecorderPeer {
 public:
  static void ForgetCommit(HistoryRecorder* rec, uint64_t txn) {
    rec->txns_.Find(txn)->committed = false;
  }
};

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

/// The canonical clean flow: apply on the primary, then commit.
void ApplyAndCommit(HistoryRecorder* rec, uint64_t id, storage::TupleKey key,
                    int64_t value, SimTime at, uint32_t partition = 0) {
  rec->OnApplyUpdate(partition, id, Row(key, value));
  rec->OnCommit(Writer(id, key, value), at);
}

bool Has(const CheckReport& report, const std::string& check) {
  for (const Violation& v : report.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(CheckerTest, CleanHistoryHasNoViolations) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  rec.OnRead(3, 10, 0, 30);  // observes the tail (txn 2)
  rec.OnCommit(Writer(3, 11, 5), 40);
  rec.OnApplyUpdate(0, 3, Row(11, 5));
  CheckReport report = CheckHistory(rec, /*serializable=*/false);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.ww_edges, 1u);
  EXPECT_EQ(report.wr_edges, 1u);
}

TEST(CheckerTest, DirtyReadFromAbortedWriter) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(0, 5, Row(10, 1));  // txn 5's write becomes visible
  rec.OnRead(6, 10, 0, 20);             // txn 6 observes it
  rec.OnAbort(Writer(5, 10, 1));        // ...then txn 5 aborts
  rec.OnCommit(Writer(6, 11, 2), 30);
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "dirty_read")) << report.ToString();
}

TEST(CheckerTest, DanglingReadFromUnknownWriter) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(0, 7, Row(10, 1));  // writer 7 never commits or aborts
  rec.OnRead(8, 10, 0, 20);
  rec.OnCommit(Writer(8, 11, 2), 30);
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "dangling_read")) << report.ToString();
  // The apply from the unknown writer is flagged too.
  EXPECT_TRUE(Has(report, "phantom_writer")) << report.ToString();
}

TEST(CheckerTest, StaleReadObservesOverwrittenVersion) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10, /*partition=*/0);
  ApplyAndCommit(&rec, 2, 10, 200, 20, /*partition=*/0);
  // Partition 1 still carries txn 1's version (it never saw txn 2's
  // apply) and serves a read long after txn 2 committed.
  rec.OnApplyUpdate(1, 1, Row(10, 100));
  rec.OnRead(3, 10, 1, 50);
  rec.OnCommit(Writer(3, 11, 5), 60);
  rec.OnApplyUpdate(0, 3, Row(11, 5));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "stale_read")) << report.ToString();
}

TEST(CheckerTest, OutOfOrderApplyOnAPartition) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10, /*partition=*/0);
  ApplyAndCommit(&rec, 2, 10, 200, 20, /*partition=*/0);
  // Partition 1 applies the versions backwards.
  rec.OnApplyUpdate(1, 2, Row(10, 200));
  rec.OnApplyUpdate(1, 1, Row(10, 100));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "out_of_order_apply")) << report.ToString();
}

TEST(CheckerTest, SkippedVersionsAreNotOutOfOrder) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  ApplyAndCommit(&rec, 3, 10, 300, 30);
  // Partition 1 was down for version 2 and resumes at version 3: a gap,
  // not a reordering.
  rec.OnApplyUpdate(1, 1, Row(10, 100));
  rec.OnApplyUpdate(1, 3, Row(10, 300));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckerTest, LostWriteNeverAppliedAnywhere) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  rec.OnCommit(Writer(2, 10, 200), 20);  // committed, no apply anywhere
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "lost_write")) << report.ToString();
}

TEST(CheckerTest, G1cCycleAcrossTwoKeys) {
  HistoryRecorder rec;
  rec.OnApplyUpdate(0, 1, Row(10, 1));
  rec.OnApplyUpdate(0, 2, Row(11, 2));
  rec.OnRead(2, 10, 0, 20);  // t2 reads t1's write: wr t1 -> t2
  rec.OnRead(1, 11, 0, 21);  // t1 reads t2's write: wr t2 -> t1
  rec.OnCommit(Writer(1, 10, 1), 30);
  rec.OnCommit(Writer(2, 11, 2), 31);
  CheckReport report = CheckHistory(rec, false);
  EXPECT_TRUE(Has(report, "g1c_cycle")) << report.ToString();
  // Members are named in commit order.
  EXPECT_EQ(report.violations[0].detail,
            "ww/wr dependency cycle through txns {1,2,...}");
}

TEST(CheckerTest, WriteSkewOnlyViolatesSerializable) {
  // Classic write skew: each txn reads the key the other writes, both
  // observing the initial version.
  auto build = [](HistoryRecorder* rec) {
    rec->OnRead(1, 11, 0, 10);  // t1 reads k11 (initial)
    rec->OnRead(2, 10, 0, 11);  // t2 reads k10 (initial)
    rec->OnApplyUpdate(0, 1, Row(10, 1));
    rec->OnApplyUpdate(0, 2, Row(11, 2));
    rec->OnCommit(Writer(1, 10, 1), 20);
    rec->OnCommit(Writer(2, 11, 2), 21);
  };
  HistoryRecorder read_committed;
  build(&read_committed);
  CheckReport rc = CheckHistory(read_committed, /*serializable=*/false);
  EXPECT_TRUE(rc.ok()) << rc.ToString();
  EXPECT_EQ(rc.rw_cycles, 1u);

  HistoryRecorder serializable;
  build(&serializable);
  CheckReport ser = CheckHistory(serializable, /*serializable=*/true);
  EXPECT_TRUE(Has(ser, "serialization_cycle")) << ser.ToString();
}

/// The checks that fired, in report order.
std::vector<std::string> Fired(const CheckReport& report) {
  std::vector<std::string> checks;
  for (const Violation& v : report.violations) checks.push_back(v.check);
  return checks;
}

using Checks = std::vector<std::string>;

TEST(CheckerTest, PhantomWriterUncommittedChainWriter) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  HistoryRecorderPeer::ForgetCommit(&rec, 2);
  CheckReport report = CheckHistory(rec, false);
  // The chain names txn 2, and so does its apply.
  EXPECT_EQ(Fired(report), (Checks{"phantom_writer", "phantom_writer"}))
      << report.ToString();
  EXPECT_NE(report.violations[0].detail.find(
                "chain of key 10 version 1 written by uncommitted txn 2"),
            std::string::npos)
      << report.violations[0].detail;
  EXPECT_EQ(report.violations[0].at, 20);
  // The uncommitted writer is still a graph node: ww edge 1 -> 2.
  EXPECT_EQ(report.ww_edges, 1u);
}

TEST(CheckerTest, PhantomWriterApplyFromUncommittedTxn) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  rec.OnApplyUpdate(1, 9, Row(10, 7));  // txn 9 never commits
  CheckReport report = CheckHistory(rec, false);
  EXPECT_EQ(Fired(report), Checks{"phantom_writer"}) << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("from uncommitted txn 9"),
            std::string::npos);
}

TEST(CheckerTest, PhantomWriterApplyFromWriterWithNoVersion) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  // Txn 2 committed a write to key 11 but an apply of key 10 is
  // attributed to it.
  ApplyAndCommit(&rec, 2, 11, 5, 20);
  rec.OnApplyUpdate(1, 2, Row(10, 5));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_EQ(Fired(report), Checks{"phantom_writer"}) << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("committed no version of it"),
            std::string::npos);
}

TEST(CheckerTest, ChainOrderCommitTimeRegresses) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 30);
  ApplyAndCommit(&rec, 2, 10, 200, 20);  // appended after, committed before
  CheckReport report = CheckHistory(rec, false);
  EXPECT_EQ(Fired(report), Checks{"chain_order"}) << report.ToString();
  EXPECT_EQ(report.violations[0].at, 20);
}

TEST(CheckerTest, ChainOrderFallbackStillResolvesVersions) {
  // On a chain that failed chain_order, reads and applies still resolve
  // their writer's version: no dangling_read, no phantom_writer.
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 30);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  rec.OnRead(3, 10, 0, 40);  // observes txn 2, the tail
  rec.OnCommit(Writer(3, 11, 1), 50);
  rec.OnApplyUpdate(0, 3, Row(11, 1));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_EQ(Fired(report), Checks{"chain_order"}) << report.ToString();
  EXPECT_EQ(report.wr_edges, 1u);
}

TEST(CheckerTest, DanglingReadFromWriterWithNoVersion) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 11, 100, 10);  // txn 1 wrote key 11 only
  rec.OnApplyUpdate(0, 1, Row(10, 100)); // ...but key 10 carries it too
  rec.OnRead(2, 10, 0, 20);
  rec.OnCommit(Writer(2, 12, 3), 30);
  rec.OnApplyUpdate(0, 2, Row(12, 3));
  CheckReport report = CheckHistory(rec, false);
  EXPECT_EQ(Fired(report), (Checks{"dangling_read", "phantom_writer"}))
      << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("committed no version of it"),
            std::string::npos);
}

TEST(CheckerTest, SnapshotReadsOfTheVisibleVersionAreClean) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  rec.OnSnapshotRead(3, 10, 0, /*observed=*/1, /*snapshot_ts=*/15, 25);
  rec.OnSnapshotRead(3, 11, 0, /*observed=*/0, /*snapshot_ts=*/15, 26);
  ApplyAndCommit(&rec, 3, 12, 1, 30);
  rec.OnSnapshotRead(4, 10, 0, /*observed=*/2, /*snapshot_ts=*/21, 31);
  ApplyAndCommit(&rec, 4, 12, 2, 40);
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.snapshot_reads_checked, 3u);
  EXPECT_EQ(report.wr_edges, 2u);
  EXPECT_EQ(report.rw_edges, 1u);  // txn 3 read v1, txn 2 overwrote it
}

TEST(CheckerTest, SnapshotFractureAcrossTwoTimestamps) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  rec.OnSnapshotRead(3, 10, 0, 1, /*snapshot_ts=*/15, 20);
  rec.OnSnapshotRead(3, 11, 0, 0, /*snapshot_ts=*/16, 21);
  ApplyAndCommit(&rec, 3, 12, 1, 30);
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_EQ(Fired(report), Checks{"snapshot_fracture"}) << report.ToString();
  EXPECT_EQ(report.violations[0].at, 21);
}

TEST(CheckerTest, SnapshotDirtyReadFromAbortedWriter) {
  HistoryRecorder rec;
  rec.OnAbort(Writer(5, 10, 1));
  rec.OnSnapshotRead(6, 10, 0, /*observed=*/5, 15, 20);
  ApplyAndCommit(&rec, 6, 11, 2, 30);
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_EQ(Fired(report), Checks{"dirty_read"}) << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("snapshot-read"),
            std::string::npos);
}

TEST(CheckerTest, SnapshotDanglingReadFromUnknownWriter) {
  HistoryRecorder rec;
  rec.OnSnapshotRead(6, 10, 0, /*observed=*/77, 15, 20);
  ApplyAndCommit(&rec, 6, 11, 2, 30);
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_EQ(Fired(report), Checks{"dangling_read"}) << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("snapshot-read"),
            std::string::npos);
}

TEST(CheckerTest, StaleSnapshotReadObservesTheWrongVersion) {
  HistoryRecorder rec;
  ApplyAndCommit(&rec, 1, 10, 100, 10);
  ApplyAndCommit(&rec, 2, 10, 200, 20);
  // At snapshot 25 the visible version is txn 2's; txn 3 saw txn 1's.
  rec.OnSnapshotRead(3, 10, 0, /*observed=*/1, /*snapshot_ts=*/25, 26);
  // At snapshot 5 nothing committed yet: the base (writer 0) is visible.
  rec.OnSnapshotRead(4, 10, 0, /*observed=*/2, /*snapshot_ts=*/5, 27);
  ApplyAndCommit(&rec, 3, 12, 1, 30);
  ApplyAndCommit(&rec, 4, 13, 1, 31);
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_EQ(Fired(report),
            (Checks{"stale_snapshot_read", "stale_snapshot_read"}))
      << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("observing writer 1 instead of 2"),
            std::string::npos);
  EXPECT_NE(report.violations[1].detail.find("observing writer 2 instead of 0"),
            std::string::npos);
}

TEST(CheckerTest, SnapshotReadsByUncommittedReadersCarryNoObligation) {
  HistoryRecorder rec;
  rec.OnSnapshotRead(9, 10, 0, /*observed=*/42, 15, 20);  // 9 never commits
  CheckReport report = CheckHistory(rec, true, /*mvcc=*/true);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.snapshot_reads_checked, 0u);
}

TEST(CheckerTest, ChainViolationsAreKeyAscending) {
  // Violations of one rule pass come out in ascending key order whatever
  // order the keys were first written in.
  HistoryRecorder rec;
  for (storage::TupleKey key : {50u, 7u, 900u, 3u}) {
    rec.OnCommit(Writer(key + 1000, key, 1), 10);  // never applied
  }
  CheckReport report = CheckHistory(rec, false);
  ASSERT_EQ(report.violations.size(), 4u);
  std::vector<std::string> details;
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.check, "lost_write");
    details.push_back(v.detail);
  }
  EXPECT_NE(details[0].find("of key 3 "), std::string::npos) << details[0];
  EXPECT_NE(details[1].find("of key 7 "), std::string::npos) << details[1];
  EXPECT_NE(details[2].find("of key 50 "), std::string::npos) << details[2];
  EXPECT_NE(details[3].find("of key 900 "), std::string::npos) << details[3];
}

TEST(CheckerTest, ReportDigestNamesTheFirstViolation) {
  HistoryRecorder rec;
  rec.OnCommit(Writer(2, 10, 200), 20);
  CheckReport report = CheckHistory(rec, false);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("lost_write"), std::string::npos);
}

}  // namespace
}  // namespace soap::check
