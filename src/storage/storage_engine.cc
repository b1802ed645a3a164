#include "src/storage/storage_engine.h"

#include <string>

#include "src/common/flat_map.h"

namespace soap::storage {

Status StorageEngine::ApplyInsert(uint64_t txn_id, const Tuple& tuple) {
  SOAP_RETURN_NOT_OK(table_.Insert(tuple));
  wal_.AppendInsert(txn_id, tuple);
  if (observer_ != nullptr) {
    observer_->OnApplyInsert(partition_id_, txn_id, tuple);
  }
  return Status::OK();
}

Status StorageEngine::ApplyUpdate(uint64_t txn_id, TupleKey key,
                                  int64_t content, SimTime commit_ts) {
  SOAP_RETURN_NOT_OK(table_.Update(key, content));
  Result<Tuple> updated = table_.Get(key);
  wal_.AppendUpdate(txn_id, *updated, commit_ts);
  if (observer_ != nullptr) {
    observer_->OnApplyUpdate(partition_id_, txn_id, *updated);
  }
  return Status::OK();
}

Status StorageEngine::ApplyErase(uint64_t txn_id, TupleKey key) {
  SOAP_RETURN_NOT_OK(table_.Erase(key));
  wal_.AppendErase(txn_id, key);
  if (observer_ != nullptr) {
    observer_->OnApplyErase(partition_id_, txn_id, key);
  }
  return Status::OK();
}

Status StorageEngine::RecoverFromWal() {
  // The WAL only holds records appended since the last checkpoint
  // (Checkpoint() truncates it), so replay must start from the
  // checkpoint image — an empty table would silently lose everything
  // the truncated prefix covered.
  Table recovered = checkpoint_;
  SOAP_RETURN_NOT_OK(wal_.Replay(&recovered));
  table_ = std::move(recovered);
  return Status::OK();
}

void StorageEngine::Checkpoint() {
  checkpoint_ = table_;
  wal_.Truncate(0);
}

Status StorageEngine::VerifyRecoveryImage() const {
  // Rolls the WAL forward (Wal::Replay's rules) over an overlay of the
  // keys it touches instead of over a copy of the checkpoint: the
  // recovered image is the checkpoint outside the overlay and the overlay
  // inside it, so the rehearsal costs O(WAL + live rows) and copies no
  // table.
  struct Replayed {
    bool present = false;
    int64_t content = 0;
  };
  FlatMap<Replayed> overlay;
  SOAP_RETURN_NOT_OK(wal_.Replay(
      [&](const Tuple& tuple) {
        *overlay.TryEmplace(tuple.key).first = {true, tuple.content};
      },
      [&](TupleKey key) {
        Replayed* seen = overlay.Find(key);
        if (seen != nullptr ? !seen->present : !checkpoint_.Contains(key)) {
          return false;
        }
        *overlay.TryEmplace(key).first = {false, 0};
        return true;
      }));
  int64_t recovered_size = static_cast<int64_t>(checkpoint_.size());
  overlay.ForEach([&](uint64_t key, const Replayed& r) {
    recovered_size += static_cast<int64_t>(r.present) -
                      static_cast<int64_t>(checkpoint_.Contains(key));
  });
  if (recovered_size != static_cast<int64_t>(table_.size())) {
    return Status::Corruption(
        "partition " + std::to_string(partition_id_) + ": recovery yields " +
        std::to_string(recovered_size) + " tuples, live table has " +
        std::to_string(table_.size()));
  }
  Status mismatch = Status::OK();
  table_.ForEach([&](const Tuple& live) {
    if (!mismatch.ok()) return;
    bool matches = false;
    if (const Replayed* r = overlay.Find(live.key)) {
      matches = r->present && r->content == live.content;
    } else {
      Result<Tuple> replayed = checkpoint_.Get(live.key);
      matches = replayed.ok() && replayed->content == live.content;
    }
    if (!matches) {
      mismatch = Status::Corruption(
          "partition " + std::to_string(partition_id_) + " key " +
          std::to_string(live.key) + ": recovery image diverges from live " +
          "table (live content " + std::to_string(live.content) + ")");
    }
  });
  return mismatch;
}

Status StorageEngine::CrashAndRecover() {
  // Crash: the in-memory table is gone. Restart: reload the checkpoint
  // image and roll the WAL suffix forward over it.
  Table recovered = checkpoint_;
  SOAP_RETURN_NOT_OK(wal_.Replay(&recovered));
  table_ = std::move(recovered);
  return Status::OK();
}

}  // namespace soap::storage
