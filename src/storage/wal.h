// Append-only write-ahead log per storage engine. Records committed
// mutations so a partition's table can be rebuilt by replay; the recovery
// test and the repartitioner's audit trail use it. Kept in memory (the
// simulator has no durable media) with an optional file dump.

#ifndef SOAP_STORAGE_WAL_H_
#define SOAP_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/storage/tuple.h"

namespace soap::storage {

class Table;

/// A single committed mutation.
struct WalRecord {
  enum class Kind : uint8_t { kInsert, kUpdate, kErase };
  Kind kind;
  uint64_t txn_id;
  Tuple tuple;  // for kErase only the key is meaningful
  /// Virtual-time commit timestamp of the mutation. 0 under 2PL (the seed
  /// format); MVCC stamps updates so replay can rebuild version chains.
  SimTime commit_ts = 0;
};

/// In-memory redo log. Not thread-safe (owned by one engine).
class Wal {
 public:
  void AppendInsert(uint64_t txn_id, const Tuple& tuple);
  void AppendUpdate(uint64_t txn_id, const Tuple& tuple,
                    SimTime commit_ts = 0);
  void AppendErase(uint64_t txn_id, TupleKey key);

  /// Applies all records in order to `table`, rolling the log forward.
  /// Callers must start from the checkpoint image the log was truncated
  /// against (StorageEngine::RecoverFromWal and CrashAndRecover do).
  Status Replay(Table* table) const;

  /// The replay rules, over any image: inserts and updates call
  /// `upsert(tuple)`; erases call `erase(key)`, which returns false when
  /// the key is absent at that point. Such an erase means the log and the
  /// checkpoint diverged, and stops the replay with a Corruption.
  template <typename Upsert, typename Erase>
  Status Replay(Upsert&& upsert, Erase&& erase) const {
    for (const WalRecord& rec : records_) {
      if (rec.kind != WalRecord::Kind::kErase) {
        upsert(rec.tuple);
      } else if (!erase(rec.tuple.key)) {
        return Status::Corruption("replay erase of missing key " +
                                  std::to_string(rec.tuple.key));
      }
    }
    return Status::OK();
  }

  /// Drops records older than `keep_last` entries (log truncation after a
  /// checkpoint). Safe because recovery replays onto the checkpoint
  /// snapshot, never onto an empty table.
  void Truncate(size_t keep_last);

  size_t size() const { return records_.size(); }
  const std::vector<WalRecord>& records() const { return records_; }

  /// Writes a human-readable dump (one record per line) to `path`.
  Status DumpToFile(const std::string& path) const;

 private:
  std::vector<WalRecord> records_;
};

}  // namespace soap::storage

#endif  // SOAP_STORAGE_WAL_H_
