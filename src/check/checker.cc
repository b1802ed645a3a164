#include "src/check/checker.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "src/common/flat_map.h"

namespace soap::check {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

struct Edge {
  uint32_t from;
  uint32_t to;
};
using EdgeLists = std::initializer_list<const std::vector<Edge>*>;

/// A directed graph in compressed-sparse-row form: node v's successors
/// are targets[offsets[v] .. offsets[v + 1]).
struct Csr {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;
};

/// The union of `lists` over nodes [0, n): each node's successors keep
/// list order, earlier lists first.
Csr BuildCsr(uint32_t n, EdgeLists lists) {
  Csr g;
  g.offsets.assign(static_cast<size_t>(n) + 1, 0);
  size_t m = 0;
  for (const std::vector<Edge>* list : lists) {
    for (const Edge& e : *list) g.offsets[e.from + 1]++;
    m += list->size();
  }
  for (uint32_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.resize(m);
  std::vector<uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const std::vector<Edge>* list : lists) {
    for (const Edge& e : *list) g.targets[cursor[e.from]++] = e.to;
  }
  return g;
}

/// Iterative Tarjan strongly-connected components. Returns the component
/// id per node; components with >= 2 nodes are cycles (the graph has no
/// self-loops: edges between a txn and itself are never added).
std::vector<uint32_t> StronglyConnected(const Csr& g,
                                        uint32_t* num_components) {
  const uint32_t n = static_cast<uint32_t>(g.offsets.size() - 1);
  std::vector<uint32_t> index(n, kNone);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<uint32_t> component(n, kNone);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  uint32_t next_index = 0;
  uint32_t components = 0;

  struct Frame {
    uint32_t node;
    uint32_t edge;  // next index into g.targets
  };
  std::vector<Frame> dfs;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    dfs.push_back({root, g.offsets[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const uint32_t v = frame.node;
      if (frame.edge < g.offsets[v + 1]) {
        const uint32_t w = g.targets[frame.edge++];
        if (index[w] == kNone) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          dfs.push_back({w, g.offsets[w]});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          const uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component[w] = components;
          if (w == v) break;
        }
        components++;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const uint32_t parent = dfs.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  *num_components = components;
  return component;
}

/// Component ids whose member count is >= 2 — a dependency cycle.
std::vector<bool> CyclicComponents(const std::vector<uint32_t>& component,
                                   uint32_t num_components) {
  std::vector<uint32_t> size(num_components, 0);
  for (uint32_t c : component) size[c]++;
  std::vector<bool> cyclic(num_components, false);
  for (uint32_t c = 0; c < num_components; ++c) {
    cyclic[c] = size[c] >= 2;
  }
  return cyclic;
}

/// Per cyclic component, its first (up to) four member txns by node id,
/// comma-separated; one pass over the nodes, strings only for cycles.
class MemberSamples {
 public:
  MemberSamples(const std::vector<uint32_t>& component,
                const std::vector<bool>& cyclic,
                const std::vector<uint64_t>& txn_of)
      : slot_(cyclic.size(), kNone) {
    for (uint32_t c = 0; c < cyclic.size(); ++c) {
      if (!cyclic[c]) continue;
      slot_[c] = static_cast<uint32_t>(samples_.size());
      samples_.emplace_back();
    }
    std::vector<uint8_t> listed(samples_.size(), 0);
    for (uint32_t v = 0; v < component.size(); ++v) {
      const uint32_t i = slot_[component[v]];
      if (i == kNone || listed[i] == 4) continue;
      if (listed[i] > 0) samples_[i] += ",";
      samples_[i] += std::to_string(txn_of[v]);
      listed[i]++;
    }
  }
  /// The sample of cyclic component `c`.
  const std::string& of(uint32_t c) const { return samples_[slot_[c]]; }

 private:
  std::vector<uint32_t> slot_;
  std::vector<std::string> samples_;
};

/// HistoryRecorder::FindTxn with a one-entry cache: a transaction's
/// versions sit together in the version log, and its reads and applies
/// often do in theirs.
class TxnLookup {
 public:
  explicit TxnLookup(const HistoryRecorder& history) : history_(history) {}
  const TxnRecord* operator()(uint64_t txn) {
    if (!cached_ || txn != txn_) {
      record_ = history_.FindTxn(txn);
      txn_ = txn;
      cached_ = true;
    }
    return record_;
  }

 private:
  const HistoryRecorder& history_;
  uint64_t txn_ = 0;
  const TxnRecord* record_ = nullptr;
  bool cached_ = false;
};

/// A violation tagged with the key it concerns, so that a rule pass that
/// visits keys in chain-id order can still report in ascending key order.
struct KeyedViolation {
  storage::TupleKey key;
  Violation violation;
};

void AppendByKey(std::vector<KeyedViolation>* keyed, CheckReport* report) {
  std::stable_sort(keyed->begin(), keyed->end(),
                   [](const KeyedViolation& a, const KeyedViolation& b) {
                     return a.key < b.key;
                   });
  for (KeyedViolation& k : *keyed) {
    report->violations.push_back(std::move(k.violation));
  }
  keyed->clear();
}

}  // namespace

std::string CheckReport::ToString() const {
  std::ostringstream os;
  os << "check[violations=" << violations.size()
     << " txns=" << txns_checked << " reads=" << reads_checked;
  if (mvcc_checked) os << " snapshot_reads=" << snapshot_reads_checked;
  os << " ww=" << ww_edges << " wr=" << wr_edges << " rw=" << rw_edges
     << " rw_cycles=" << rw_cycles
     << (serializable_checked ? " level=serializable" : " level=readcommitted");
  if (mvcc_checked) os << " cc=mvcc";
  os << "]";
  if (!violations.empty()) {
    os << " first: " << violations.front().check << " ("
       << violations.front().detail << ")";
  }
  return os.str();
}

CheckReport CheckHistory(const HistoryRecorder& history, bool serializable,
                         bool mvcc) {
  CheckReport report;
  report.serializable_checked = serializable;
  report.mvcc_checked = mvcc;
  report.txns_checked = history.committed_count();
  const std::vector<storage::TupleKey>& chain_key = history.chain_keys();
  const ChunkedLog<VersionEntry>& log = history.versions();
  const uint32_t num_chains = static_cast<uint32_t>(chain_key.size());

  // Dependency-graph nodes: committed txns by commit sequence number, then
  // any chain writer the recorder never saw commit.
  std::vector<uint64_t> txn_of = history.committed_txns();
  const uint32_t num_committed = static_cast<uint32_t>(txn_of.size());
  FlatMap<uint32_t> uncommitted_node;
  TxnLookup find_writer(history);
  auto writer_node_of = [&](uint64_t writer) -> uint32_t {
    const TxnRecord* t = find_writer(writer);
    if (t != nullptr && t->committed) return t->seq;
    auto [node, fresh] = uncommitted_node.TryEmplace(
        writer, static_cast<uint32_t>(txn_of.size()));
    if (fresh) txn_of.push_back(writer);
    return *node;
  };

  // Chains as CSR: chain c's versions are versions[begin[c] .. begin[c+1])
  // in commit order, each with its writer's node id.
  std::vector<uint32_t> begin(static_cast<size_t>(num_chains) + 1, 0);
  for (const VersionEntry& e : log) begin[e.chain + 1]++;
  for (uint32_t c = 0; c < num_chains; ++c) begin[c + 1] += begin[c];
  std::vector<VersionRecord> versions(log.size());
  std::vector<uint32_t> writer_node(log.size());
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (const VersionEntry& e : log) {
      const uint32_t v = cursor[e.chain]++;
      versions[v] = e.record;
      writer_node[v] = writer_node_of(e.record.writer);
    }
  }

  // Chain sanity: writers committed, commit times non-decreasing. A chain
  // that passes is sorted by commit time, so versions are found by binary
  // search; one that fails falls back to linear scans.
  std::vector<uint8_t> sorted(num_chains, 1);
  std::vector<KeyedViolation> keyed;
  for (uint32_t c = 0; c < num_chains; ++c) {
    const storage::TupleKey key = chain_key[c];
    for (uint32_t v = begin[c]; v < begin[c + 1]; ++v) {
      const uint32_t i = v - begin[c];
      if (writer_node[v] >= num_committed) {
        keyed.push_back(
            {key,
             {"phantom_writer",
              "chain of key " + std::to_string(key) + " version " +
                  std::to_string(i) + " written by uncommitted txn " +
                  std::to_string(versions[v].writer),
              versions[v].commit_time}});
      }
      if (i > 0 && versions[v].commit_time < versions[v - 1].commit_time) {
        sorted[c] = 0;
        keyed.push_back(
            {key,
             {"chain_order",
              "key " + std::to_string(key) + " version " + std::to_string(i) +
                  " committed before its predecessor",
              versions[v].commit_time}});
      }
    }
  }
  AppendByKey(&keyed, &report);

  // The version `writer` (committed at `commit_time`) installed in chain
  // c, as an index into `versions`, or kNone. Mirrors a writer -> version
  // map: the last matching version wins.
  auto find_version = [&](uint32_t c, uint64_t writer,
                          SimTime commit_time) -> uint32_t {
    const uint32_t lo = begin[c];
    const uint32_t hi = begin[c + 1];
    if (sorted[c]) {
      auto first = std::lower_bound(
          versions.begin() + lo, versions.begin() + hi, commit_time,
          [](const VersionRecord& ver, SimTime t) {
            return ver.commit_time < t;
          });
      uint32_t found = kNone;
      for (auto it = first;
           it != versions.begin() + hi && it->commit_time == commit_time;
           ++it) {
        if (it->writer == writer) {
          found = static_cast<uint32_t>(it - versions.begin());
        }
      }
      if (found != kNone) return found;
    }
    uint32_t found = kNone;
    for (uint32_t v = lo; v < hi; ++v) {
      if (versions[v].writer == writer) found = v;
    }
    return found;
  };

  std::vector<Edge> ww_wr_edges;
  std::vector<Edge> rw_edge_list;

  // ww edges: chain adjacency per key.
  for (uint32_t c = 0; c < num_chains; ++c) {
    for (uint32_t v = begin[c]; v + 1 < begin[c + 1]; ++v) {
      if (versions[v].writer == versions[v + 1].writer) continue;
      ww_wr_edges.push_back({writer_node[v], writer_node[v + 1]});
      report.ww_edges++;
    }
  }

  // Reads: G1a/G1b, staleness, wr and rw edges. Reads by transactions
  // that did not commit carry no obligations.
  TxnLookup find_reader(history);
  for (const ReadRecord& r : history.reads()) {
    const TxnRecord* reader = find_reader(r.reader);
    if (reader == nullptr || !reader->committed) continue;
    report.reads_checked++;
    const uint32_t c = history.FindChain(r.key);
    uint32_t next = c == HistoryRecorder::kNoChain ? kNone : begin[c];
    if (r.observed_writer != 0) {
      const TxnRecord* writer = find_writer(r.observed_writer);
      if (writer != nullptr && writer->aborted) {
        report.violations.push_back(
            {"dirty_read",
             "txn " + std::to_string(r.reader) + " read key " +
                 std::to_string(r.key) + " from aborted txn " +
                 std::to_string(r.observed_writer) + " on partition " +
                 std::to_string(r.partition),
             r.at});
        continue;
      }
      if (writer == nullptr || !writer->committed) {
        report.violations.push_back(
            {"dangling_read",
             "txn " + std::to_string(r.reader) + " read key " +
                 std::to_string(r.key) + " from unknown writer " +
                 std::to_string(r.observed_writer),
             r.at});
        continue;
      }
      const uint32_t observed =
          next == kNone
              ? kNone
              : find_version(c, r.observed_writer, writer->commit_time);
      if (observed == kNone) {
        report.violations.push_back(
            {"dangling_read",
             "txn " + std::to_string(r.reader) + " read key " +
                 std::to_string(r.key) + " from txn " +
                 std::to_string(r.observed_writer) +
                 " which committed no version of it",
             r.at});
        continue;
      }
      if (r.observed_writer != r.reader) {
        ww_wr_edges.push_back({writer_node[observed], reader->seq});
        report.wr_edges++;
      }
      next = observed + 1;
    }
    if (next == kNone || next >= begin[c + 1]) continue;
    const VersionRecord& newer = versions[next];
    // Every phase-2 apply precedes FinishCommit, so a version committed
    // strictly before the read was already applied on every live copy —
    // observing its predecessor is a stale read.
    if (newer.commit_time < r.at) {
      report.violations.push_back(
          {"stale_read",
           "txn " + std::to_string(r.reader) + " read key " +
               std::to_string(r.key) + " on partition " +
               std::to_string(r.partition) + " observing writer " +
               std::to_string(r.observed_writer) + " after txn " +
               std::to_string(newer.writer) + " committed at t=" +
               std::to_string(newer.commit_time),
           r.at});
    }
    if (newer.writer != r.reader) {
      rw_edge_list.push_back({reader->seq, writer_node[next]});
      report.rw_edges++;
    }
  }

  // MVCC snapshot reads: every committed reader must observe exactly the
  // newest version committed strictly before its begin timestamp, all of
  // one transaction's reads must share a single timestamp, and G1a holds
  // (the version store only ever serves committed versions, so a dirty or
  // dangling observation means the recorder and store disagree).
  std::vector<SimTime> snapshot_of;  // by reader node, once it has read
  std::vector<uint8_t> has_snapshot;
  for (const SnapshotReadRecord& r : history.snapshot_reads()) {
    const TxnRecord* reader = find_reader(r.reader);
    if (reader == nullptr || !reader->committed) continue;
    report.snapshot_reads_checked++;
    if (has_snapshot.empty()) {
      has_snapshot.assign(num_committed, 0);
      snapshot_of.assign(num_committed, 0);
    }
    if (!has_snapshot[reader->seq]) {
      has_snapshot[reader->seq] = 1;
      snapshot_of[reader->seq] = r.snapshot_ts;
    } else if (snapshot_of[reader->seq] != r.snapshot_ts) {
      report.violations.push_back(
          {"snapshot_fracture",
           "txn " + std::to_string(r.reader) + " read key " +
               std::to_string(r.key) + " at snapshot t=" +
               std::to_string(r.snapshot_ts) + " but its earlier reads used t=" +
               std::to_string(snapshot_of[reader->seq]),
           r.at});
      continue;
    }
    if (r.observed_writer != 0) {
      const TxnRecord* writer = find_writer(r.observed_writer);
      if (writer != nullptr && writer->aborted) {
        report.violations.push_back(
            {"dirty_read",
             "txn " + std::to_string(r.reader) + " snapshot-read key " +
                 std::to_string(r.key) + " from aborted txn " +
                 std::to_string(r.observed_writer),
             r.at});
        continue;
      }
      if (writer == nullptr || !writer->committed) {
        report.violations.push_back(
            {"dangling_read",
             "txn " + std::to_string(r.reader) + " snapshot-read key " +
                 std::to_string(r.key) + " from unknown writer " +
                 std::to_string(r.observed_writer),
             r.at});
        continue;
      }
    }
    // The version visible at the snapshot: newest chain entry with
    // commit_time < snapshot_ts; writer 0 (the base) when none exists.
    const uint32_t c = history.FindChain(r.key);
    uint32_t visible = kNone;
    if (c != HistoryRecorder::kNoChain) {
      const uint32_t lo = begin[c];
      const uint32_t hi = begin[c + 1];
      if (sorted[c]) {
        const auto first = std::lower_bound(
            versions.begin() + lo, versions.begin() + hi, r.snapshot_ts,
            [](const VersionRecord& ver, SimTime t) {
              return ver.commit_time < t;
            });
        const uint32_t at = static_cast<uint32_t>(first - versions.begin());
        if (at > lo) visible = at - 1;
      } else {
        for (uint32_t v = hi; v-- > lo;) {
          if (versions[v].commit_time < r.snapshot_ts) {
            visible = v;
            break;
          }
        }
      }
    }
    const uint64_t expected = visible == kNone ? 0 : versions[visible].writer;
    if (r.observed_writer != expected) {
      report.violations.push_back(
          {"stale_snapshot_read",
           "txn " + std::to_string(r.reader) + " snapshot-read key " +
               std::to_string(r.key) + " at t=" +
               std::to_string(r.snapshot_ts) + " observing writer " +
               std::to_string(r.observed_writer) + " instead of " +
               std::to_string(expected),
           r.at});
      continue;
    }
    if (r.observed_writer != 0 && r.observed_writer != r.reader) {
      ww_wr_edges.push_back({writer_node[visible], reader->seq});
      report.wr_edges++;
    }
    if (c != HistoryRecorder::kNoChain) {
      const uint32_t next = visible == kNone ? begin[c] : visible + 1;
      if (next < begin[c + 1] && versions[next].writer != r.reader) {
        rw_edge_list.push_back({reader->seq, writer_node[next]});
        report.rw_edges++;
      }
    }
  }

  // Write applies: from committed writers only, and in chain order per
  // (partition, key) — a partition may skip versions (it was down, the
  // catch-up sweep repairs it) but must never apply them out of order.
  // Each resolved apply also marks its chain version as applied somewhere.
  std::vector<uint8_t> applied(versions.size(), 0);
  // Highest chain position applied per (chain, partition): a short list
  // per chain (one entry per partition that applied it), pooled.
  struct AppliedUpTo {
    uint32_t partition;
    uint32_t version;
    uint32_t next;  // pool index of the chain's next entry, or kNone
  };
  std::vector<AppliedUpTo> up_to_pool;
  std::vector<uint32_t> up_to_head(num_chains, kNone);
  for (const WriteApplyRecord& a : history.write_applies()) {
    const uint32_t c = history.FindChain(a.key);
    const TxnRecord* writer = find_writer(a.writer);
    if (writer == nullptr || !writer->committed) {
      if (c != HistoryRecorder::kNoChain) {
        for (uint32_t v = begin[c]; v < begin[c + 1]; ++v) {
          if (versions[v].writer == a.writer) applied[v] = 1;
        }
      }
      report.violations.push_back(
          {"phantom_writer",
           "partition " + std::to_string(a.partition) + " applied key " +
               std::to_string(a.key) + " from uncommitted txn " +
               std::to_string(a.writer),
           a.at});
      continue;
    }
    const uint32_t v = c == HistoryRecorder::kNoChain
                           ? kNone
                           : find_version(c, a.writer, writer->commit_time);
    if (v == kNone) {
      report.violations.push_back(
          {"phantom_writer",
           "partition " + std::to_string(a.partition) + " applied key " +
               std::to_string(a.key) + " from txn " +
               std::to_string(a.writer) +
               " which committed no version of it",
           a.at});
      continue;
    }
    applied[v] = 1;
    const uint32_t version = v - begin[c];
    uint32_t e = up_to_head[c];
    while (e != kNone && up_to_pool[e].partition != a.partition) {
      e = up_to_pool[e].next;
    }
    if (e == kNone) {
      up_to_pool.push_back({a.partition, version, up_to_head[c]});
      up_to_head[c] = static_cast<uint32_t>(up_to_pool.size() - 1);
      continue;
    }
    uint32_t& slot = up_to_pool[e].version;
    if (version <= slot) {
      report.violations.push_back(
          {"out_of_order_apply",
           "partition " + std::to_string(a.partition) + " applied key " +
               std::to_string(a.key) + " version " + std::to_string(version) +
               " after version " + std::to_string(slot),
           a.at});
    }
    slot = std::max(slot, version);
  }

  // Lost updates: the primary's phase-2 apply precedes FinishCommit (and a
  // down participant aborts the transaction), so every committed chain
  // version must have been applied somewhere — a version with no apply
  // record anywhere was silently dropped.
  for (uint32_t c = 0; c < num_chains; ++c) {
    for (uint32_t v = begin[c]; v < begin[c + 1]; ++v) {
      if (applied[v]) continue;
      keyed.push_back(
          {chain_key[c],
           {"lost_write",
            "txn " + std::to_string(versions[v].writer) +
                " committed version " + std::to_string(v - begin[c]) +
                " of key " + std::to_string(chain_key[c]) +
                " but no partition applied it",
            versions[v].commit_time}});
    }
  }
  AppendByKey(&keyed, &report);

  // Cycle checks. First ww ∪ wr (G1c, an anomaly at every isolation
  // level), then the full graph with rw anti-dependencies.
  const uint32_t n = static_cast<uint32_t>(txn_of.size());
  uint32_t num_components = 0;
  const std::vector<uint32_t> component =
      StronglyConnected(BuildCsr(n, {&ww_wr_edges}), &num_components);
  const std::vector<bool> g1c_cyclic =
      CyclicComponents(component, num_components);
  const MemberSamples g1c_samples(component, g1c_cyclic, txn_of);
  for (uint32_t c = 0; c < num_components; ++c) {
    if (!g1c_cyclic[c]) continue;
    report.violations.push_back(
        {"g1c_cycle",
         "ww/wr dependency cycle through txns {" + g1c_samples.of(c) +
             ",...}",
         0});
  }

  uint32_t full_components = 0;
  const std::vector<uint32_t> full = StronglyConnected(
      BuildCsr(n, {&ww_wr_edges, &rw_edge_list}), &full_components);
  const std::vector<bool> full_cyclic = CyclicComponents(full, full_components);
  // Components already reported as G1c cycles are skipped.
  std::vector<bool> holds_g1c(full_components, false);
  for (uint32_t v = 0; v < n; ++v) {
    if (g1c_cyclic[component[v]]) holds_g1c[full[v]] = true;
  }
  const MemberSamples full_samples(full, full_cyclic, txn_of);
  for (uint32_t c = 0; c < full_components; ++c) {
    if (!full_cyclic[c] || holds_g1c[c]) continue;
    report.rw_cycles++;
    // Snapshot isolation permits write skew: under MVCC an rw-closed cycle
    // is informational even when the run asked for serializable reads.
    if (serializable && !mvcc) {
      report.violations.push_back(
          {"serialization_cycle",
           "dependency cycle (needs rw edges) through txns {" +
               full_samples.of(c) + ",...}",
           0});
    }
  }

  return report;
}

}  // namespace soap::check
