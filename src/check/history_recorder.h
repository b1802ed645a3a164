// History recording for the offline consistency checker (src/check): a
// low-overhead recorder that captures, in virtual-time order, every
// committed write (the per-key version chain), every routed read with the
// version it observed, and the exact apply stream each partition saw
// (via storage::StorageObserver). Detached — the default — every hook is
// a nullptr check in the host, so runs without `--check` stay
// byte-identical to the seed.
//
// Observation model. Bulk-loaded initial versions are writer 0. Client
// writes apply under exclusive commit locks, and all of a transaction's
// phase-2 applies precede its FinishCommit, so the per-key chain (appended
// in FinishCommit order) is the serialization order of writers. Copy
// applies (kMigrateInsert / kReplicaCreate inserts, txn-0 catch-up
// refreshes) carry the chain-tail version at apply time: the repartition
// transaction holds the key's exclusive lock from staging to commit, so
// the tail cannot move underneath the copy. A carrier that writes a key
// it also deploys installs the copy first and then applies its own write
// on top of it, so the fresh copy's last writer is the carrier itself.
//
// Representation. Every keyed structure is flat: one open-addressing
// soap::FlatMap (src/common/flat_map.h) from txn id to its commit record,
// one from key to its chain (a dense chain id and the newest version),
// and one per partition from key to its last applied writer. Committed
// versions go to one append-only log, linked per chain (each version
// names its predecessor), so a commit allocates nothing per key. Reads,
// snapshot reads and applies go to append-only chunked logs
// (src/common/chunked_log.h) that grow without copying. OnRead is one
// probe, OnCommit one probe for the txn plus one per written key. Txn ids
// need not be dense, but neither a txn id nor a key may be ~0, FlatMap's
// empty-slot marker (transaction ids and keys never reach it).

#ifndef SOAP_CHECK_HISTORY_RECORDER_H_
#define SOAP_CHECK_HISTORY_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/chunked_log.h"
#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/storage/storage_observer.h"
#include "src/storage/tuple.h"
#include "src/txn/transaction.h"

namespace soap::check {

/// One committed version of a key, in commit (FinishCommit) order.
struct VersionRecord {
  uint64_t writer = 0;  // committing transaction id
  SimTime commit_time = 0;
  int64_t value = 0;
};

/// One routed read and the version (by last writer) it observed at its
/// serving partition. observed_writer 0 means the bulk-loaded initial
/// version.
struct ReadRecord {
  uint64_t reader = 0;
  storage::TupleKey key = 0;
  uint32_t partition = 0;
  uint64_t observed_writer = 0;
  SimTime at = 0;
};

/// One MVCC snapshot read (--cc=mvcc): the reader's begin timestamp and
/// the writer of the version the version store served. observed_writer 0
/// means the synthesized base version.
struct SnapshotReadRecord {
  uint64_t reader = 0;
  storage::TupleKey key = 0;
  uint32_t partition = 0;
  uint64_t observed_writer = 0;
  SimTime snapshot_ts = 0;
  SimTime at = 0;
};

/// One direct write apply (kWrite phase-2 / write-through) on a partition.
/// Copy applies and catch-up refreshes are folded into the last-writer map
/// but not listed here: only chain-resolvable applies participate in the
/// ordering check.
struct WriteApplyRecord {
  uint32_t partition = 0;
  storage::TupleKey key = 0;
  uint64_t writer = 0;
  SimTime at = 0;
};

/// What the recorder knows about one transaction id.
struct TxnRecord {
  /// Commit virtual time (the last one, should a txn commit twice).
  SimTime commit_time = 0;
  /// Dense commit sequence number: the i-th distinct txn to commit has
  /// seq i. The checker uses it as the txn's dependency-graph node.
  uint32_t seq = 0;
  bool committed = false;
  bool aborted = false;
};

/// One committed version in the recorder's version log: the record, the
/// dense id of its key's chain, and the log index of the chain's previous
/// version (kNoVersion for the first).
struct VersionEntry {
  VersionRecord record;
  uint32_t chain = 0;
  uint32_t prev = 0;
};

/// Where a key's version chain lives: its dense chain id and the log
/// index of its newest version.
struct ChainRef {
  uint32_t id = 0;
  uint32_t tail = 0;
};

class HistoryRecorder : public storage::StorageObserver {
 public:
  static constexpr uint32_t kNoVersion = UINT32_MAX;
  static constexpr uint32_t kNoChain = UINT32_MAX;

  /// Optional virtual-clock source; when set, write-apply records carry
  /// their apply time (StorageObserver callbacks have no time parameter).
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  // --- storage::StorageObserver ---
  void OnApplyInsert(uint32_t partition, uint64_t txn_id,
                     const storage::Tuple& tuple) override;
  void OnApplyUpdate(uint32_t partition, uint64_t txn_id,
                     const storage::Tuple& tuple) override;
  void OnApplyErase(uint32_t partition, uint64_t txn_id,
                    storage::TupleKey key) override;

  // --- transaction-manager hooks ---
  /// A read dispatched to `partition`; snapshots the last writer the
  /// recorder saw applied there.
  void OnRead(uint64_t txn_id, storage::TupleKey key, uint32_t partition,
              SimTime at);
  /// An MVCC snapshot read served from the version store at snapshot_ts;
  /// replaces OnRead under --cc=mvcc.
  void OnSnapshotRead(uint64_t txn_id, storage::TupleKey key,
                      uint32_t partition, uint64_t observed_writer,
                      SimTime snapshot_ts, SimTime at);
  /// A transaction reached kCommitted; appends its writes (final value per
  /// key, in op order) to the per-key chains.
  void OnCommit(const txn::Transaction& txn, SimTime commit_time);
  /// A transaction reached kAborted.
  void OnAbort(const txn::Transaction& txn);

  // --- checker access ---
  const ChunkedLog<ReadRecord>& reads() const { return reads_; }
  const ChunkedLog<SnapshotReadRecord>& snapshot_reads() const {
    return snapshot_reads_;
  }
  const ChunkedLog<WriteApplyRecord>& write_applies() const {
    return write_applies_;
  }

  /// The record of `txn_id`, or nullptr when it neither committed nor
  /// aborted.
  const TxnRecord* FindTxn(uint64_t txn_id) const { return txns_.Find(txn_id); }
  bool IsCommitted(uint64_t txn_id) const {
    const TxnRecord* t = FindTxn(txn_id);
    return t != nullptr && t->committed;
  }
  bool IsAborted(uint64_t txn_id) const {
    const TxnRecord* t = FindTxn(txn_id);
    return t != nullptr && t->aborted;
  }
  /// Committed txn ids by commit sequence number (TxnRecord::seq).
  const std::vector<uint64_t>& committed_txns() const { return committed_; }
  uint64_t committed_count() const { return committed_.size(); }
  uint64_t aborted_count() const { return aborted_count_; }

  /// Chain keys by dense chain id (first-commit order of the keys), and
  /// the version log the chains thread through.
  const std::vector<storage::TupleKey>& chain_keys() const {
    return chain_keys_;
  }
  const ChunkedLog<VersionEntry>& versions() const { return versions_; }
  /// The chain id of `key`, or kNoChain when no write to it committed.
  uint32_t FindChain(storage::TupleKey key) const {
    const ChainRef* ref = chain_of_.Find(key);
    return ref == nullptr ? kNoChain : ref->id;
  }
  /// Calls fn(key, newest version) for every chain, in no particular order.
  template <typename Fn>
  void ForEachChainTail(Fn&& fn) const {
    chain_of_.ForEach([&](uint64_t key, const ChainRef& ref) {
      fn(key, versions_[ref.tail].record);
    });
  }
  /// A copy of `key`'s chain, oldest version first (empty when none).
  std::vector<VersionRecord> Chain(storage::TupleKey key) const;

  /// Last writer applied at (partition, key); 0 = initial version (or the
  /// partition never stored the key).
  uint64_t LastWriter(uint32_t partition, storage::TupleKey key) const;

  /// The committed chain-tail value of `key`, or the bulk-load placeholder
  /// when no write ever committed. Returns false when no chain exists.
  bool TailValue(storage::TupleKey key, int64_t* value) const;

  uint64_t txn_count() const { return committed_count() + aborted_count_; }

  /// Streams the history as JSONL (one commit/chain/read/apply record per
  /// line) to `path`, for --history_out and offline tooling.
  Status WriteHistoryFile(const std::string& path) const;

 private:
  friend class HistoryRecorderPeer;  // tests: histories the hooks cannot make

  uint64_t ChainTailWriter(storage::TupleKey key) const;
  FlatMap<uint64_t>& PartitionMap(uint32_t partition);

  /// Txn id -> commit/abort record. The TM issues ids sequentially and
  /// commits them roughly in order, so runs of consecutive ids share
  /// cache lines (RunHash); sampled or sparse ids still spread.
  FlatMap<TxnRecord, RunHash> txns_{4 * RunHash::kRunLength};
  std::vector<uint64_t> committed_;
  uint64_t aborted_count_ = 0;
  /// Key -> its chain; the versions themselves are in versions_.
  FlatMap<ChainRef> chain_of_;
  std::vector<storage::TupleKey> chain_keys_;
  ChunkedLog<VersionEntry> versions_;
  ChunkedLog<ReadRecord> reads_;
  ChunkedLog<SnapshotReadRecord> snapshot_reads_;
  ChunkedLog<WriteApplyRecord> write_applies_;
  /// Per partition: key -> last applied writer (chain-resolved).
  std::vector<FlatMap<uint64_t>> last_writer_;
  std::function<SimTime()> clock_;
};

}  // namespace soap::check

#endif  // SOAP_CHECK_HISTORY_RECORDER_H_
