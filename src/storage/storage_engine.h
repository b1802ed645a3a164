// Per-node storage engine: one partition's table plus its WAL, with the
// replica operations the repartitioner issues (new replica creation,
// replica deletion, and the two halves of objects migration — §2.2).

#ifndef SOAP_STORAGE_STORAGE_ENGINE_H_
#define SOAP_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/storage_observer.h"
#include "src/storage/table.h"
#include "src/storage/tuple.h"
#include "src/storage/wal.h"

namespace soap::storage {

/// Committed-state storage for one data partition. Uncommitted writes are
/// buffered by the transaction layer (src/txn) and applied here only at
/// commit, which is what makes read-committed reads trivially correct.
class StorageEngine {
 public:
  explicit StorageEngine(uint32_t partition_id)
      : partition_id_(partition_id) {}

  uint32_t partition_id() const { return partition_id_; }

  /// Reads the committed version of a tuple.
  /// Pre-sizes the table's hash index (see Table::Reserve).
  void Reserve(size_t expected_rows) { table_.Reserve(expected_rows); }

  Result<Tuple> Read(TupleKey key) const { return table_.Get(key); }

  bool Contains(TupleKey key) const { return table_.Contains(key); }
  size_t tuple_count() const { return table_.size(); }

  /// Commit-time apply: inserts a brand new tuple (bulk load or replica
  /// creation at a destination partition).
  Status ApplyInsert(uint64_t txn_id, const Tuple& tuple);

  /// Commit-time apply: updates an existing tuple's content. `commit_ts`
  /// (virtual time; 0 under 2PL) is recorded on the WAL record so MVCC
  /// recovery can rebuild version chains.
  Status ApplyUpdate(uint64_t txn_id, TupleKey key, int64_t content,
                     SimTime commit_ts = 0);

  /// Commit-time apply: deletes a tuple (replica deletion / migration
  /// source cleanup).
  Status ApplyErase(uint64_t txn_id, TupleKey key);

  /// Bulk load without logging (initial dataset population).
  void BulkLoad(const Tuple& tuple) { table_.Upsert(tuple); }

  /// Bulk removal without logging: drops a key from the load-time base
  /// (used when the initial placement moves a key off its arithmetic home
  /// before the run starts). Absent keys are ignored.
  void BulkEvict(TupleKey key) { (void)table_.Erase(key); }

  /// Declares this node's virtual seed base (see Table::SetLazyBase).
  void SetLazyBase(uint64_t num_keys, uint32_t num_partitions) {
    table_.SetLazyBase(num_keys, partition_id_, num_partitions);
  }

  const Table& table() const { return table_; }
  const Wal& wal() const { return wal_; }

  /// Rebuilds the table from the WAL (crash-recovery path; tests use it to
  /// prove replay equivalence).
  Status RecoverFromWal();

  /// Durably snapshots the current committed state and truncates the WAL:
  /// recovery becomes checkpoint + replay of the short log suffix. Also
  /// seals the un-logged bulk-load base, so call it once after loading.
  void Checkpoint();

  /// Simulates a crash (volatile table lost) followed by restart recovery
  /// from the last checkpoint plus the WAL suffix. Fails with Corruption
  /// if the log does not apply cleanly to the checkpoint.
  Status CrashAndRecover();

  /// Virtual size of the last checkpoint (tuples), for reports.
  size_t checkpoint_size() const { return checkpoint_.size(); }

  /// Side-effect-free recovery rehearsal: replays the WAL over the
  /// checkpoint (into an overlay of the keys it touches, by Wal::Replay's
  /// rules) and compares the result to the live table. A mismatch means a
  /// restart right now would not reproduce the committed state (WAL replay
  /// is not idempotent over this history).
  Status VerifyRecoveryImage() const;

  /// Attaches (or with nullptr detaches) a commit-time mutation observer.
  /// The engine only pays the virtual calls while one is attached.
  void set_observer(StorageObserver* observer) { observer_ = observer; }

 private:
  uint32_t partition_id_;
  Table table_;
  Wal wal_;
  /// The durable snapshot (simulated disk image).
  Table checkpoint_;
  StorageObserver* observer_ = nullptr;
};

}  // namespace soap::storage

#endif  // SOAP_STORAGE_STORAGE_ENGINE_H_
