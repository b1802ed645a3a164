#include "src/planner/co_access_graph.h"

#include <algorithm>
#include <utility>

namespace soap::planner {

namespace {

// The partition a transaction is "homed" on: the modal source partition
// across its data ops, ties to the lowest id — the partition the txn
// would run single-node on if every key it writes lived there. Ops are
// few (normal SOAP txns touch 5 keys), so a quadratic scan beats any map
// and allocates nothing: each partition is counted at its first op.
uint32_t TxnHome(const txn::Transaction& t) {
  const std::vector<txn::Operation>& ops = t.ops;
  uint32_t home = 0;
  uint64_t best = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].repartition_op_id != 0) continue;
    const uint32_t p = ops[i].source_partition;
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) {
      seen = ops[j].repartition_op_id == 0 && ops[j].source_partition == p;
    }
    if (seen) continue;
    uint64_t c = 0;
    for (size_t j = i; j < ops.size(); ++j) {
      c += ops[j].repartition_op_id == 0 && ops[j].source_partition == p;
    }
    if (c > best || (c == best && p < home)) {
      home = p;
      best = c;
    }
  }
  return home;
}

}  // namespace

CoAccessGraph::CoAccessGraph(CoAccessGraphConfig config)
    : config_(config) {
  sketch_mode_ = config_.num_keys > config_.sketch_threshold;
  if (sketch_mode_) {
    const uint64_t ranges = std::max<uint64_t>(1, config_.supernode_ranges);
    supernode_width_ = std::max<uint64_t>(1, (config_.num_keys + ranges - 1) /
                                                 ranges);
    hot_ = std::make_unique<sketch::SpaceSaving>(config_.sketch_topk);
    heat_ = std::make_unique<sketch::CountMin>(config_.count_min_width_log2,
                                               config_.count_min_depth);
  }
}

void CoAccessGraph::Observe(const txn::Transaction& t) {
  // Distinct data keys only; piggybacked/repartition ops carry
  // repartition_op_id != 0 and are not workload co-access.
  keys_.clear();
  for (const txn::Operation& op : t.ops) {
    if (op.repartition_op_id != 0) continue;
    keys_.push_back(op.key);
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  if (keys_.empty() || keys_.size() > config_.max_keys_per_txn) return;

  ++txns_observed_;
  if (sketch_mode_) {
    // Feed the sketches first so a key that just crossed into the top-k
    // is treated as hot within the same transaction.
    for (storage::TupleKey k : keys_) {
      hot_->Add(k);
      heat_->Add(k);
    }
  }
  // Vertex per key, resolved once: exact-mode and hot keys keep
  // themselves, the cold tail folds into its keyspace-range supernode.
  touched_.clear();
  for (storage::TupleKey k : keys_) {
    const storage::TupleKey vid =
        !sketch_mode_ || IsHot(k) ? k : SupernodeOf(k);
    Vertex* v = &vertices_[vid];
    v->weight += 1;
    touched_.push_back({vid, v});
  }
  const uint32_t home = TxnHome(t);
  for (const txn::Operation& op : t.ops) {
    if (op.repartition_op_id != 0) continue;
    const Touched& at = touched_[static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), op.key) - keys_.begin())];
    Vertex& v = *at.vertex;
    if (op.kind == txn::OpKind::kRead) {
      v.reads += 1;
    } else if (op.kind == txn::OpKind::kWrite) {
      v.writes += 1;
      // Supernodes aggregate the cold tail and never shift leaders, so
      // write attribution stays on exact (hot) vertices only.
      if (sketch_mode_ && IsSupernode(at.vid)) continue;
      auto src = std::find_if(
          v.write_from.begin(), v.write_from.end(),
          [home](const auto& e) { return e.first == home; });
      if (src == v.write_from.end()) {
        v.write_from.emplace_back(home, 1);
      } else {
        src->second += 1;
      }
    }
  }
  if (sketch_mode_) {
    // Edges among distinct vertex ids (cold keys sharing a supernode
    // collapse; intra-supernode co-access carries no placement signal).
    distinct_ = touched_;
    std::sort(distinct_.begin(), distinct_.end(),
              [](const Touched& a, const Touched& b) { return a.vid < b.vid; });
    distinct_.erase(std::unique(distinct_.begin(), distinct_.end(),
                                [](const Touched& a, const Touched& b) {
                                  return a.vid == b.vid;
                                }),
                    distinct_.end());
    AddClique(distinct_);
  } else {
    AddClique(touched_);  // distinct keys, so distinct vertices
  }
  if (edge_count_ > config_.max_edges) EvictOverCap();
}

void CoAccessGraph::AddClique(const std::vector<Touched>& touched) {
  for (size_t i = 0; i < touched.size(); ++i) {
    for (size_t j = i + 1; j < touched.size(); ++j) {
      auto [w, inserted] = touched[i].vertex->out.TryEmplace(touched[j].vid);
      *w += 1;
      *touched[j].vertex->out.TryEmplace(touched[i].vid).first += 1;
      if (inserted) ++edge_count_;
    }
  }
}

void CoAccessGraph::EraseEdge(storage::TupleKey a, storage::TupleKey b) {
  auto ia = vertices_.find(a);
  auto ib = vertices_.find(b);
  if (ia != vertices_.end()) ia->second.out.Erase(b);
  if (ib != vertices_.end()) ib->second.out.Erase(a);
  --edge_count_;
}

void CoAccessGraph::EvictOverCap() {
  if (edge_count_ <= config_.max_edges) return;
  std::vector<Edge> edges = SortedEdges();
  // Lightest first; SortedEdges' (a, b) order makes ties deterministic.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& x, const Edge& y) {
                     return x.weight < y.weight;
                   });
  const size_t excess = edge_count_ - config_.max_edges;
  for (size_t i = 0; i < excess && i < edges.size(); ++i) {
    EraseEdge(edges[i].a, edges[i].b);
  }
}

void CoAccessGraph::FoldVertex(storage::TupleKey key) {
  const storage::TupleKey sid = SupernodeOf(key);
  vertices_.try_emplace(sid);  // ensure target exists before taking refs
  auto it = vertices_.find(key);
  if (it == vertices_.end()) return;
  Vertex v = std::move(it->second);
  // Detach all of key's edges first (both directions).
  v.out.ForEach([&](storage::TupleKey nbr, uint64_t) {
    auto nb = vertices_.find(nbr);
    if (nb != vertices_.end()) nb->second.out.Erase(key);
    --edge_count_;
  });
  vertices_.erase(it);
  Vertex& sv = vertices_[sid];
  sv.weight += v.weight;
  sv.reads += v.reads;
  sv.writes += v.writes;
  // Re-attach edges to the supernode; edges into the own supernode become
  // internal and vanish.
  v.out.ForEach([&](storage::TupleKey nbr, uint64_t w) {
    if (nbr == sid) return;
    auto nb = vertices_.find(nbr);
    if (nb == vertices_.end()) return;
    auto [e, inserted] = sv.out.TryEmplace(nbr);
    *e += w;
    *nb->second.out.TryEmplace(sid).first += w;
    if (inserted) ++edge_count_;
  });
}

void CoAccessGraph::FoldColdVertices() {
  std::vector<storage::TupleKey> cold;
  for (const auto& [key, v] : vertices_) {
    if (!IsSupernode(key) && !IsHot(key)) cold.push_back(key);
  }
  std::sort(cold.begin(), cold.end());
  for (storage::TupleKey key : cold) FoldVertex(key);
}

void CoAccessGraph::Decay() {
  std::vector<std::pair<storage::TupleKey, storage::TupleKey>> dead_edges;
  const uint32_t shift = config_.decay_shift;
  for (auto& [key, v] : vertices_) {
    v.weight >>= shift;
    v.reads >>= shift;
    v.writes >>= shift;
    for (auto& [p, c] : v.write_from) c >>= shift;
    std::erase_if(v.write_from, [](const auto& e) { return e.second == 0; });
    v.out.ForEach([&](storage::TupleKey nbr, uint64_t& w) {
      w >>= shift;
      if (w < config_.min_edge_weight && key < nbr) {
        dead_edges.emplace_back(key, nbr);
      }
    });
  }
  for (const auto& [a, b] : dead_edges) EraseEdge(a, b);
  // Drop vertices that decayed to nothing and have no edges left.
  for (auto it = vertices_.begin(); it != vertices_.end();) {
    if (it->second.weight == 0 && it->second.out.empty()) {
      it = vertices_.erase(it);
    } else {
      ++it;
    }
  }
  if (sketch_mode_) {
    hot_->Decay(config_.decay_shift);
    heat_->Decay(config_.decay_shift);
    // Keys demoted out of the top-k lose their exact vertex: their
    // remaining mass and edges fold into the supernode hierarchy.
    FoldColdVertices();
  }
  EvictOverCap();
}

uint64_t CoAccessGraph::VertexWeight(storage::TupleKey key) const {
  auto it = vertices_.find(key);
  return it == vertices_.end() ? 0 : it->second.weight;
}

uint64_t CoAccessGraph::VertexReads(storage::TupleKey key) const {
  auto it = vertices_.find(key);
  return it == vertices_.end() ? 0 : it->second.reads;
}

uint64_t CoAccessGraph::VertexWrites(storage::TupleKey key) const {
  auto it = vertices_.find(key);
  return it == vertices_.end() ? 0 : it->second.writes;
}

std::vector<std::pair<uint32_t, uint64_t>> CoAccessGraph::WriteSources(
    storage::TupleKey key) const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  auto it = vertices_.find(key);
  if (it == vertices_.end()) return out;
  out = it->second.write_from;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

uint64_t CoAccessGraph::HeatEstimate(storage::TupleKey key) const {
  auto it = vertices_.find(key);
  if (it != vertices_.end()) return it->second.weight;
  if (sketch_mode_) return heat_->Estimate(key);
  return 0;
}

uint64_t CoAccessGraph::EdgeWeight(storage::TupleKey a,
                                   storage::TupleKey b) const {
  auto it = vertices_.find(a);
  if (it == vertices_.end()) return 0;
  const uint64_t* w = it->second.out.Find(b);
  return w == nullptr ? 0 : *w;
}

size_t CoAccessGraph::ApproxBytes() const {
  constexpr size_t kHashNodeOverhead = 2 * sizeof(void*);
  size_t bytes = sizeof(*this);
  bytes += vertices_.bucket_count() * sizeof(void*);
  for (const auto& [key, v] : vertices_) {
    bytes += sizeof(key) + sizeof(Vertex) + kHashNodeOverhead;
    bytes += v.out.bytes();
    bytes += v.write_from.capacity() * sizeof(v.write_from[0]);
  }
  if (hot_) bytes += hot_->ApproxBytes();
  if (heat_) bytes += heat_->ApproxBytes();
  return bytes;
}

std::vector<storage::TupleKey> CoAccessGraph::SortedVertices() const {
  std::vector<storage::TupleKey> keys;
  keys.reserve(vertices_.size());
  for (const auto& [key, v] : vertices_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<CoAccessGraph::Edge> CoAccessGraph::SortedEdges() const {
  std::vector<Edge> edges;
  edges.reserve(edge_count_);
  for (const auto& [key, v] : vertices_) {
    v.out.ForEach([&](storage::TupleKey nbr, uint64_t w) {
      if (key < nbr) edges.push_back({key, nbr, w});
    });
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  return edges;
}

std::vector<std::pair<storage::TupleKey, uint64_t>>
CoAccessGraph::NeighborsOf(storage::TupleKey key) const {
  std::vector<std::pair<storage::TupleKey, uint64_t>> out;
  auto it = vertices_.find(key);
  if (it == vertices_.end()) return out;
  out.reserve(it->second.out.size());
  it->second.out.ForEach(
      [&](storage::TupleKey nbr, uint64_t w) { out.emplace_back(nbr, w); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace soap::planner
