// Sliding-window tuple co-access graph (the workload model of Schism,
// SWORD and the hypergraph partitioners): vertices are tuple keys weighted
// by access rate, edges connect keys touched by the same committed
// transaction, weighted by co-access frequency. Memory stays bounded by
// deterministic exponential decay (right-shift per interval) plus
// lowest-weight-first eviction against hard caps — no wall clock, no
// hashing-order dependence in anything observable.
//
// Production-cardinality sketch mode (SWORD-style hierarchy): above a
// configured keyspace threshold the graph stops allocating a vertex per
// touched tuple. A space-saving top-k identifies the hot tuples, which
// keep exact vertices and edges; the cold tail folds into per-range
// *supernodes* (one vertex per contiguous keyspace range, tagged by a
// high id bit), and a count-min sketch answers heat queries for tuples
// without a vertex. At paper scale (num_keys <= sketch_threshold) the
// exact path runs unchanged, byte for byte.
//
// Representation: vertices live in a node map keyed by id (their
// addresses stay put while Observe holds them); each vertex's adjacency is
// a flat open-addressing map (src/common/flat_map.h) and its write sources
// a short vector of (partition, count) pairs. Observe resolves every key's
// vertex once into member scratch buffers, so a committed transaction
// costs one vertex lookup per distinct key plus one adjacency probe per
// edge direction, with no scratch allocation once the buffers have warmed up.

#ifndef SOAP_PLANNER_CO_ACCESS_GRAPH_H_
#define SOAP_PLANNER_CO_ACCESS_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/sketch/count_min.h"
#include "src/sketch/space_saving.h"
#include "src/storage/tuple.h"
#include "src/txn/transaction.h"

namespace soap::planner {

struct CoAccessGraphConfig {
  /// Right-shift applied to every vertex/edge weight at Decay(); 1 halves
  /// the window each interval, making the effective sliding window a few
  /// intervals deep.
  uint32_t decay_shift = 1;
  /// Edges whose weight falls below this after decay are evicted.
  uint64_t min_edge_weight = 1;
  /// Hard cap on undirected edge count; exceeding it evicts the lightest
  /// edges (ties broken by key order) until back under the cap.
  size_t max_edges = 1u << 20;
  /// Transactions touching more keys than this are ignored (quadratic
  /// edge fan-out guard; normal SOAP transactions touch 5 keys).
  size_t max_keys_per_txn = 32;

  // --- Sketch mode (engaged when num_keys > sketch_threshold) ---
  /// Monitored table cardinality; the default 0 never exceeds the
  /// threshold, so an unconfigured graph stays exact.
  uint64_t num_keys = 0;
  /// Keyspaces up to this size use the exact per-tuple path (byte-for-
  /// byte the paper-scale behaviour); larger ones switch to sketches.
  uint64_t sketch_threshold = 1'000'000;
  /// Hot tuples tracked with exact vertices (space-saving capacity).
  uint32_t sketch_topk = 4096;
  /// A tracked tuple counts as hot only once its guaranteed (error-free)
  /// space-saving count reaches this; below it the key is treated as cold
  /// churn through the sketch's bottom slot and maps to its supernode.
  uint64_t hot_min_guarantee = 2;
  /// Contiguous keyspace ranges the cold tail folds into.
  uint32_t supernode_ranges = 1024;
  /// Count-min geometry for sketch-mode heat estimates.
  uint32_t count_min_width_log2 = 16;
  uint32_t count_min_depth = 4;
};

class CoAccessGraph {
 public:
  explicit CoAccessGraph(CoAccessGraphConfig config = {});

  /// Feeds one committed normal transaction: each distinct key's vertex
  /// weight +1, each distinct key pair's edge weight +1. In sketch mode
  /// cold keys contribute to their supernode instead.
  void Observe(const txn::Transaction& t);

  /// Ages the window: every weight >>= decay_shift, then evicts edges
  /// below min_edge_weight, isolated zero-weight vertices, and (if still
  /// over max_edges) the lightest edges. In sketch mode also decays the
  /// sketches and folds no-longer-hot vertices into their supernodes.
  void Decay();

  uint64_t VertexWeight(storage::TupleKey key) const;
  uint64_t EdgeWeight(storage::TupleKey a, storage::TupleKey b) const;

  /// Per-vertex access mix (reads and writes of the key across observed
  /// transactions, decayed with the window). Feeds the replica-aware plan
  /// builder's read/write-ratio test; tracking them does not change
  /// weights, edges or eviction, so migration-only planning is unaffected.
  uint64_t VertexReads(storage::TupleKey key) const;
  uint64_t VertexWrites(storage::TupleKey key) const;

  /// Write-source attribution (the Lion leader-shift signal): how many of
  /// `key`'s windowed writes were issued by transactions homed on each
  /// partition, where a transaction's home is the modal source partition
  /// of its data ops (ties to the lowest id) — the partition the txn
  /// would be single-node on. Sorted by count descending, ties to the
  /// lower partition id; decays with the window. Empty for unwritten
  /// keys and for supernodes (the cold tail never shifts leaders).
  std::vector<std::pair<uint32_t, uint64_t>> WriteSources(
      storage::TupleKey key) const;

  /// Heat of a tuple whether or not it holds a vertex: exact weight when
  /// one exists (always, in exact mode), else the count-min estimate.
  uint64_t HeatEstimate(storage::TupleKey key) const;

  size_t vertex_count() const { return vertices_.size(); }
  size_t edge_count() const { return edge_count_; }
  uint64_t txns_observed() const { return txns_observed_; }

  /// True when the graph runs the sketch/supernode path.
  bool sketch_mode() const { return sketch_mode_; }

  /// Supernode ids carry this tag bit; they can never collide with tuple
  /// keys, which the routing table bounds below 2^63.
  static constexpr storage::TupleKey kSupernodeBit = 1ULL << 63;
  static bool IsSupernode(storage::TupleKey id) {
    return (id & kSupernodeBit) != 0;
  }
  /// The supernode id of a (cold) tuple key in sketch mode.
  storage::TupleKey SupernodeOf(storage::TupleKey key) const {
    return kSupernodeBit | (key / supernode_width_);
  }

  /// Rough heap footprint (vertices + adjacency + sketches), for scaling
  /// reports. Not allocator-exact.
  size_t ApproxBytes() const;

  /// Deterministic snapshots for the partitioner (sorted by key).
  std::vector<storage::TupleKey> SortedVertices() const;
  struct Edge {
    storage::TupleKey a = 0;  // a < b
    storage::TupleKey b = 0;
    uint64_t weight = 0;
  };
  std::vector<Edge> SortedEdges() const;

  /// Sorted neighbours of one vertex with edge weights.
  std::vector<std::pair<storage::TupleKey, uint64_t>> NeighborsOf(
      storage::TupleKey key) const;

 private:
  struct Vertex {
    uint64_t weight = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    /// Windowed write counts keyed by the issuing transaction's home
    /// partition, unordered. Tiny in practice (one or two writers per key).
    std::vector<std::pair<uint32_t, uint64_t>> write_from;
    /// Adjacency is stored in both directions with equal weights.
    FlatMap<uint64_t> out;
  };
  /// A vertex id and its vertex, resolved once per Observe.
  struct Touched {
    storage::TupleKey vid = 0;
    Vertex* vertex = nullptr;
  };

  void EraseEdge(storage::TupleKey a, storage::TupleKey b);
  void EvictOverCap();
  /// Adds 1 to the edge between every pair of `touched` (distinct ids).
  void AddClique(const std::vector<Touched>& touched);
  /// Hot = tracked by the top-k with enough guaranteed count.
  bool IsHot(storage::TupleKey key) const {
    return hot_->Contains(key) &&
           hot_->Guaranteed(key) >= config_.hot_min_guarantee;
  }
  /// Moves a demoted hot vertex's mass and edges onto its supernode.
  void FoldVertex(storage::TupleKey key);
  void FoldColdVertices();

  CoAccessGraphConfig config_;
  bool sketch_mode_ = false;
  uint64_t supernode_width_ = 1;
  std::unique_ptr<sketch::SpaceSaving> hot_;
  std::unique_ptr<sketch::CountMin> heat_;
  std::unordered_map<storage::TupleKey, Vertex> vertices_;
  size_t edge_count_ = 0;  // undirected pairs
  uint64_t txns_observed_ = 0;
  // Observe's scratch, reused across calls: the txn's distinct data keys
  // (sorted), each key's vertex (parallel to keys_), and the distinct
  // vertices sorted by id (sketch mode, where cold keys share supernodes).
  std::vector<storage::TupleKey> keys_;
  std::vector<Touched> touched_;
  std::vector<Touched> distinct_;
};

}  // namespace soap::planner

#endif  // SOAP_PLANNER_CO_ACCESS_GRAPH_H_
