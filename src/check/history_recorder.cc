#include "src/check/history_recorder.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace soap::check {

using txn::OpKind;

uint64_t HistoryRecorder::ChainTailWriter(storage::TupleKey key) const {
  const ChainRef* chain = chain_of_.Find(key);
  return chain == nullptr ? 0 : versions_[chain->tail].record.writer;
}

FlatMap<uint64_t>& HistoryRecorder::PartitionMap(uint32_t partition) {
  if (partition >= last_writer_.size()) {
    last_writer_.resize(partition + 1);
  }
  return last_writer_[partition];
}

void HistoryRecorder::OnApplyInsert(uint32_t partition, uint64_t txn_id,
                                    const storage::Tuple& tuple) {
  // Inserts are always copies (migration / replica creation staged under
  // the key's exclusive lock), never new values: attribute the committed
  // chain tail, regardless of the inserting transaction's id.
  (void)txn_id;
  *PartitionMap(partition).TryEmplace(tuple.key).first =
      ChainTailWriter(tuple.key);
}

void HistoryRecorder::OnApplyUpdate(uint32_t partition, uint64_t txn_id,
                                    const storage::Tuple& tuple) {
  if (txn_id == 0) {
    // Catch-up refresh: the restarted node copies the primary's current
    // (committed) content.
    *PartitionMap(partition).TryEmplace(tuple.key).first =
        ChainTailWriter(tuple.key);
    return;
  }
  *PartitionMap(partition).TryEmplace(tuple.key).first = txn_id;
  write_applies_.push_back(
      {partition, tuple.key, txn_id, clock_ ? clock_() : 0});
}

void HistoryRecorder::OnApplyErase(uint32_t partition, uint64_t txn_id,
                                   storage::TupleKey key) {
  (void)txn_id;
  PartitionMap(partition).Erase(key);
}

void HistoryRecorder::OnRead(uint64_t txn_id, storage::TupleKey key,
                             uint32_t partition, SimTime at) {
  uint64_t observed = 0;
  if (partition < last_writer_.size()) {
    if (const uint64_t* writer = last_writer_[partition].Find(key)) {
      observed = *writer;
    }
  }
  reads_.push_back({txn_id, key, partition, observed, at});
}

void HistoryRecorder::OnSnapshotRead(uint64_t txn_id, storage::TupleKey key,
                                     uint32_t partition,
                                     uint64_t observed_writer,
                                     SimTime snapshot_ts, SimTime at) {
  snapshot_reads_.push_back(
      {txn_id, key, partition, observed_writer, snapshot_ts, at});
}

void HistoryRecorder::OnCommit(const txn::Transaction& txn,
                               SimTime commit_time) {
  TxnRecord* record = txns_.TryEmplace(txn.id).first;
  if (!record->committed) {
    record->committed = true;
    record->seq = static_cast<uint32_t>(committed_.size());
    committed_.push_back(txn.id);
  }
  record->commit_time = commit_time;
  // Final value per written key, preserving first-write chain position:
  // a transaction writing a key twice commits one version (the last
  // value), not two.
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const txn::Operation& op = txn.ops[i];
    if (op.kind != OpKind::kWrite) continue;
    bool last_for_key = true;
    for (size_t j = i + 1; j < txn.ops.size(); ++j) {
      if (txn.ops[j].kind == OpKind::kWrite && txn.ops[j].key == op.key) {
        last_for_key = false;
        break;
      }
    }
    if (!last_for_key) continue;
    auto [chain, fresh] = chain_of_.TryEmplace(
        op.key, {static_cast<uint32_t>(chain_keys_.size()), kNoVersion});
    if (fresh) chain_keys_.push_back(op.key);
    versions_.push_back(
        {{txn.id, commit_time, op.write_value}, chain->id, chain->tail});
    chain->tail = static_cast<uint32_t>(versions_.size() - 1);
  }
}

void HistoryRecorder::OnAbort(const txn::Transaction& txn) {
  TxnRecord* record = txns_.TryEmplace(txn.id).first;
  if (!record->aborted) {
    record->aborted = true;
    aborted_count_++;
  }
}

std::vector<VersionRecord> HistoryRecorder::Chain(
    storage::TupleKey key) const {
  std::vector<VersionRecord> chain;
  const ChainRef* ref = chain_of_.Find(key);
  if (ref == nullptr) return chain;
  for (uint32_t v = ref->tail; v != kNoVersion; v = versions_[v].prev) {
    chain.push_back(versions_[v].record);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

uint64_t HistoryRecorder::LastWriter(uint32_t partition,
                                     storage::TupleKey key) const {
  if (partition >= last_writer_.size()) return 0;
  const uint64_t* writer = last_writer_[partition].Find(key);
  return writer == nullptr ? 0 : *writer;
}

bool HistoryRecorder::TailValue(storage::TupleKey key, int64_t* value) const {
  const ChainRef* chain = chain_of_.Find(key);
  if (chain == nullptr) return false;
  *value = versions_[chain->tail].record.value;
  return true;
}

Status HistoryRecorder::WriteHistoryFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Unavailable("cannot open " + path);
  // Commits first (sorted by commit time then id for a deterministic
  // file), then reads in record order.
  std::vector<std::pair<SimTime, uint64_t>> order;
  order.reserve(committed_.size());
  for (uint64_t id : committed_) {
    order.push_back({txns_.Find(id)->commit_time, id});
  }
  std::sort(order.begin(), order.end());
  for (const auto& [t, id] : order) {
    out << "{\"kind\":\"commit\",\"txn\":" << id << ",\"t_us\":" << t
        << "}\n";
  }
  // Version chains, one line per key (keys sorted).
  std::vector<std::pair<storage::TupleKey, uint32_t>> tails;  // key, tail
  tails.reserve(chain_keys_.size());
  chain_of_.ForEach([&](uint64_t key, const ChainRef& ref) {
    tails.push_back({key, ref.tail});
  });
  std::sort(tails.begin(), tails.end());
  std::vector<const VersionRecord*> chain;
  for (const auto& [key, tail] : tails) {
    chain.clear();
    for (uint32_t v = tail; v != kNoVersion; v = versions_[v].prev) {
      chain.push_back(&versions_[v].record);
    }
    out << "{\"kind\":\"chain\",\"key\":" << key << ",\"versions\":[";
    for (size_t i = chain.size(); i-- > 0;) {
      if (i + 1 < chain.size()) out << ",";
      out << "{\"writer\":" << chain[i]->writer
          << ",\"t_us\":" << chain[i]->commit_time
          << ",\"value\":" << chain[i]->value << "}";
    }
    out << "]}\n";
  }
  for (const ReadRecord& r : reads_) {
    out << "{\"kind\":\"read\",\"txn\":" << r.reader << ",\"key\":" << r.key
        << ",\"partition\":" << r.partition
        << ",\"observed\":" << r.observed_writer << ",\"t_us\":" << r.at
        << "}\n";
  }
  for (const SnapshotReadRecord& r : snapshot_reads_) {
    out << "{\"kind\":\"snapshot_read\",\"txn\":" << r.reader
        << ",\"key\":" << r.key << ",\"partition\":" << r.partition
        << ",\"observed\":" << r.observed_writer
        << ",\"snapshot_t_us\":" << r.snapshot_ts << ",\"t_us\":" << r.at
        << "}\n";
  }
  // Direct write applies, in apply order: which partition installed which
  // writer's version. Lets offline tooling reconstruct where a committed
  // write physically landed (reads and chains alone can't).
  for (const WriteApplyRecord& a : write_applies_) {
    out << "{\"kind\":\"apply\",\"txn\":" << a.writer << ",\"key\":" << a.key
        << ",\"partition\":" << a.partition << ",\"t_us\":" << a.at << "}\n";
  }
  out.flush();
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

}  // namespace soap::check
