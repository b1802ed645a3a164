#include "src/storage/wal.h"

#include <fstream>

#include "src/storage/table.h"

namespace soap::storage {

void Wal::AppendInsert(uint64_t txn_id, const Tuple& tuple) {
  records_.push_back({WalRecord::Kind::kInsert, txn_id, tuple});
}

void Wal::AppendUpdate(uint64_t txn_id, const Tuple& tuple,
                       SimTime commit_ts) {
  records_.push_back({WalRecord::Kind::kUpdate, txn_id, tuple, commit_ts});
}

void Wal::AppendErase(uint64_t txn_id, TupleKey key) {
  Tuple t;
  t.key = key;
  records_.push_back({WalRecord::Kind::kErase, txn_id, t});
}

Status Wal::Replay(Table* table) const {
  return Replay([table](const Tuple& tuple) { table->Upsert(tuple); },
                [table](TupleKey key) { return table->Erase(key).ok(); });
}

void Wal::Truncate(size_t keep_last) {
  if (records_.size() <= keep_last) return;
  records_.erase(records_.begin(),
                 records_.end() - static_cast<ptrdiff_t>(keep_last));
}

Status Wal::DumpToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path);
  for (const auto& rec : records_) {
    const char* kind = rec.kind == WalRecord::Kind::kInsert   ? "INSERT"
                       : rec.kind == WalRecord::Kind::kUpdate ? "UPDATE"
                                                              : "ERASE";
    out << kind << " txn=" << rec.txn_id << " key=" << rec.tuple.key
        << " content=" << rec.tuple.content << "\n";
  }
  return out.good() ? Status::OK() : Status::Internal("short write");
}

}  // namespace soap::storage
