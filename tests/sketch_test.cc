#include "src/sketch/count_min.h"
#include "src/sketch/space_saving.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/planner/co_access_graph.h"
#include "src/txn/transaction.h"

namespace soap {
namespace {

// --- CountMin -------------------------------------------------------------

TEST(CountMinTest, CountsAreNeverUnderestimates) {
  sketch::CountMin cm(/*width_log2=*/8, /*depth=*/4);
  for (uint64_t k = 0; k < 200; ++k) cm.Add(k, k + 1);
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_GE(cm.Estimate(k), k + 1) << "key " << k;
  }
}

TEST(CountMinTest, ExactForSparseKeys) {
  sketch::CountMin cm(/*width_log2=*/16, /*depth=*/4);
  cm.Add(42, 7);
  cm.Add(1'000'003, 11);
  EXPECT_EQ(cm.Estimate(42), 7u);
  EXPECT_EQ(cm.Estimate(1'000'003), 11u);
  EXPECT_EQ(cm.Estimate(5), 0u);
}

TEST(CountMinTest, DecayHalvesCounts) {
  sketch::CountMin cm(/*width_log2=*/12, /*depth=*/4);
  cm.Add(9, 8);
  cm.Decay(1);
  EXPECT_EQ(cm.Estimate(9), 4u);
  cm.Decay(2);
  EXPECT_EQ(cm.Estimate(9), 1u);
}

TEST(CountMinTest, ApproxBytesMatchesGeometry) {
  sketch::CountMin cm(/*width_log2=*/10, /*depth=*/3);
  // 3 rows of 1024 uint64 counters = 24 KiB, plus object overhead.
  EXPECT_GE(cm.ApproxBytes(), 3u * 1024u * sizeof(uint64_t));
  EXPECT_LT(cm.ApproxBytes(), 3u * 1024u * sizeof(uint64_t) + 4096u);
}

// --- SpaceSaving ----------------------------------------------------------

TEST(SpaceSavingTest, ExactBelowCapacity) {
  sketch::SpaceSaving ss(4);
  ss.Add(1, 5);
  ss.Add(2, 3);
  ss.Add(1, 2);
  EXPECT_EQ(ss.size(), 2u);
  EXPECT_TRUE(ss.Contains(1));
  EXPECT_EQ(ss.Estimate(1), 7u);
  EXPECT_EQ(ss.Estimate(2), 3u);
  EXPECT_FALSE(ss.Contains(3));
  EXPECT_EQ(ss.Estimate(3), 0u);
}

TEST(SpaceSavingTest, EvictionInheritsMinimumCount) {
  sketch::SpaceSaving ss(2);
  ss.Add(10, 5);
  ss.Add(20, 3);
  // Capacity reached: key 30 evicts the (count, key)-least entry (20, 3)
  // and inherits its count as error.
  ss.Add(30);
  EXPECT_FALSE(ss.Contains(20));
  EXPECT_TRUE(ss.Contains(30));
  EXPECT_EQ(ss.Estimate(30), 4u);
  auto top = ss.TopK();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 10u);
  EXPECT_EQ(top[1].key, 30u);
  EXPECT_EQ(top[1].error, 3u);
}

TEST(SpaceSavingTest, TopKOrdersHottestFirstTiesByKey) {
  sketch::SpaceSaving ss(8);
  ss.Add(5, 2);
  ss.Add(3, 7);
  ss.Add(9, 2);
  ss.Add(1, 4);
  auto top = ss.TopK();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].key, 3u);
  EXPECT_EQ(top[1].key, 1u);
  // Tie at count 2 breaks by ascending key.
  EXPECT_EQ(top[2].key, 5u);
  EXPECT_EQ(top[3].key, 9u);
}

TEST(SpaceSavingTest, DecayDropsDeadEntriesAndFreesSlots) {
  sketch::SpaceSaving ss(2);
  ss.Add(1, 4);
  ss.Add(2, 1);
  ss.Decay(1);  // 1 -> 2, 2 -> 0 (dropped)
  EXPECT_EQ(ss.size(), 1u);
  EXPECT_TRUE(ss.Contains(1));
  EXPECT_FALSE(ss.Contains(2));
  // The freed slot admits a new key without eviction error.
  ss.Add(7);
  EXPECT_EQ(ss.Estimate(7), 1u);
  EXPECT_EQ(ss.TopK()[1].error, 0u);
}

TEST(SpaceSavingTest, ZeroCapacityIsInert) {
  sketch::SpaceSaving ss(0);
  ss.Add(1);
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_FALSE(ss.Contains(1));
}

TEST(SpaceSavingTest, Deterministic) {
  sketch::SpaceSaving a(3), b(3);
  const uint64_t keys[] = {5, 9, 5, 2, 7, 7, 2, 5, 11, 3, 9};
  for (uint64_t k : keys) a.Add(k);
  for (uint64_t k : keys) b.Add(k);
  auto ta = a.TopK(), tb = b.TopK();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
  }
}

// The textbook space-saving structure on ordered node containers: the
// reference the heap-based sketch must match step for step.
class SpaceSavingModel {
 public:
  explicit SpaceSavingModel(size_t capacity) : capacity_(capacity) {}

  void Add(uint64_t key, uint64_t count) {
    if (capacity_ == 0) return;
    auto it = items_.find(key);
    if (it != items_.end()) {
      order_.erase({it->second.first, key});
      it->second.first += count;
      order_.insert({it->second.first, key});
      return;
    }
    if (items_.size() < capacity_) {
      items_[key] = {count, 0};
      order_.insert({count, key});
      return;
    }
    const auto [min_count, min_key] = *order_.begin();
    order_.erase(order_.begin());
    items_.erase(min_key);
    items_[key] = {min_count + count, min_count};
    order_.insert({min_count + count, key});
  }

  void Decay(uint32_t shift) {
    order_.clear();
    for (auto it = items_.begin(); it != items_.end();) {
      it->second.first >>= shift;
      it->second.second >>= shift;
      if (it->second.first == 0) {
        it = items_.erase(it);
      } else {
        order_.insert({it->second.first, it->first});
        ++it;
      }
    }
  }

  bool Contains(uint64_t key) const { return items_.count(key) > 0; }
  uint64_t Estimate(uint64_t key) const {
    auto it = items_.find(key);
    return it == items_.end() ? 0 : it->second.first;
  }
  uint64_t Guaranteed(uint64_t key) const {
    auto it = items_.find(key);
    return it == items_.end() ? 0 : it->second.first - it->second.second;
  }
  /// (key, count, error), hottest first, ties by ascending key.
  std::vector<std::vector<uint64_t>> TopK() const {
    std::vector<std::vector<uint64_t>> out;
    for (const auto& [key, ce] : items_) {
      out.push_back({key, ce.first, ce.second});
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a[1] != b[1] ? a[1] > b[1] : a[0] < b[0];
    });
    return out;
  }

 private:
  size_t capacity_;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> items_;  // count, error
  std::set<std::pair<uint64_t, uint64_t>> order_;            // count, key
};

// Seeded uniform and zipf streams over capacities 1-64 with interleaved
// decays: after every step the sketch answers every query exactly as the
// reference model does.
TEST(SpaceSavingTest, MatchesOrderedReferenceModel) {
  for (const bool zipf : {false, true}) {
    for (size_t capacity = 1; capacity <= 64; ++capacity) {
      const uint64_t universe = zipf ? 400 : 96;
      Rng rng(capacity * 2 + (zipf ? 1 : 0));
      const ZipfSampler sampler(universe, 0.9);
      sketch::SpaceSaving sketch(capacity);
      SpaceSavingModel model(capacity);
      for (int step = 0; step < 500; ++step) {
        SCOPED_TRACE(::testing::Message()
                     << (zipf ? "zipf" : "uniform") << " capacity "
                     << capacity << " step " << step);
        if (step % 61 == 60) {
          const auto shift = static_cast<uint32_t>(1 + rng.NextUint64(2));
          sketch.Decay(shift);
          model.Decay(shift);
        } else {
          const uint64_t key = 3 * (zipf ? sampler.Sample(rng)
                                         : rng.NextUint64(universe));
          const uint64_t count = rng.NextUint64(4) == 0 ? 3 : 1;
          sketch.Add(key, count);
          model.Add(key, count);
        }
        const std::vector<std::vector<uint64_t>> want = model.TopK();
        const std::vector<sketch::SpaceSaving::Entry> got = sketch.TopK();
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(sketch.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].key, want[i][0]) << "rank " << i;
          ASSERT_EQ(got[i].count, want[i][1]) << "rank " << i;
          ASSERT_EQ(got[i].error, want[i][2]) << "rank " << i;
        }
        // Point queries over the whole key range, tracked or not.
        for (uint64_t key = 0; key < 3 * universe; key += 1 + step % 5) {
          ASSERT_EQ(sketch.Contains(key), model.Contains(key)) << key;
          ASSERT_EQ(sketch.Estimate(key), model.Estimate(key)) << key;
          ASSERT_EQ(sketch.Guaranteed(key), model.Guaranteed(key)) << key;
        }
      }
    }
  }
}

TEST(SpaceSavingTest, HugeCapacityAllocatesOnlyForLiveEntries) {
  sketch::SpaceSaving ss(size_t{1} << 32);
  for (uint64_t k = 0; k < 10; ++k) ss.Add(k);
  EXPECT_EQ(ss.size(), 10u);
  EXPECT_LT(ss.ApproxBytes(), 4096u);
}

// --- CoAccessGraph sketch mode --------------------------------------------

txn::Transaction MakeTxn(std::vector<storage::TupleKey> keys) {
  txn::Transaction t;
  for (storage::TupleKey k : keys) {
    txn::Operation op;
    op.kind = txn::OpKind::kRead;
    op.key = k;
    t.ops.push_back(op);
  }
  return t;
}

TEST(CoAccessGraphSketchTest, ExactBelowThreshold) {
  planner::CoAccessGraphConfig cfg;
  cfg.num_keys = 1000;
  cfg.sketch_threshold = 1'000'000;
  planner::CoAccessGraph g(cfg);
  EXPECT_FALSE(g.sketch_mode());
  g.Observe(MakeTxn({1, 2}));
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 1u);
}

TEST(CoAccessGraphSketchTest, SupernodeIdsAreTagged) {
  EXPECT_FALSE(planner::CoAccessGraph::IsSupernode(0));
  EXPECT_FALSE(planner::CoAccessGraph::IsSupernode((1ULL << 63) - 1));
  EXPECT_TRUE(
      planner::CoAccessGraph::IsSupernode(planner::CoAccessGraph::kSupernodeBit));
}

TEST(CoAccessGraphSketchTest, HotKeysGetVerticesColdTailFolds) {
  planner::CoAccessGraphConfig cfg;
  cfg.num_keys = 10'000;
  cfg.sketch_threshold = 1;  // force sketch mode
  cfg.sketch_topk = 2;
  cfg.supernode_ranges = 10;  // ranges of 1000 keys
  planner::CoAccessGraph g(cfg);
  ASSERT_TRUE(g.sketch_mode());

  const storage::TupleKey s0 = g.SupernodeOf(1);
  ASSERT_TRUE(planner::CoAccessGraph::IsSupernode(s0));
  ASSERT_EQ(g.SupernodeOf(2), s0);

  // First sighting counts as cold churn (guaranteed count 1): both keys
  // land on their supernode. From the second observation they are hot and
  // get exact vertices and an exact edge.
  for (int i = 0; i < 3; ++i) g.Observe(MakeTxn({1, 2}));
  EXPECT_EQ(g.vertex_count(), 3u);  // supernode + the two hot keys
  EXPECT_EQ(g.VertexWeight(s0), 2u);
  EXPECT_EQ(g.VertexWeight(1), 2u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 2u);

  // Two new keys displace 1 and 2 from the top-k (space-saving adoption)
  // but arrive with no guaranteed count, so they observe as supernode
  // mass, not as vertices.
  g.Observe(MakeTxn({5001, 5002}));
  const storage::TupleKey s5 = g.SupernodeOf(5001);
  EXPECT_EQ(g.VertexWeight(s5), 2u);
  EXPECT_EQ(g.VertexWeight(5001), 0u);

  // Decay folds the demoted keys 1 and 2 into their supernode: decayed
  // weights 1+1 on top of the supernode's own decayed 1, and the (1,2)
  // edge becomes internal and vanishes.
  g.Decay();
  EXPECT_EQ(g.VertexWeight(1), 0u);
  EXPECT_EQ(g.VertexWeight(2), 0u);
  EXPECT_EQ(g.VertexWeight(s0), 3u);
  EXPECT_EQ(g.VertexWeight(s5), 1u);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 0u);
  // The demoted keys remain queryable through the count-min estimate.
  EXPECT_GE(g.HeatEstimate(1), 1u);
}

TEST(CoAccessGraphSketchTest, ColdKeysObserveIntoSupernodes) {
  planner::CoAccessGraphConfig cfg;
  cfg.num_keys = 10'000;
  cfg.sketch_threshold = 1;
  cfg.sketch_topk = 4;
  cfg.supernode_ranges = 10;
  planner::CoAccessGraph g(cfg);

  // Pin two genuinely hot keys (first sighting is cold, the other 49 are
  // hot).
  for (int i = 0; i < 50; ++i) g.Observe(MakeTxn({7, 8}));
  EXPECT_EQ(g.VertexWeight(7), 49u);
  EXPECT_EQ(g.EdgeWeight(7, 8), 49u);

  // A transaction touching a hot key and two fresh cold keys from
  // distinct ranges: the cold ones land on their supernodes, edges
  // connect the hot vertex to both supernodes.
  g.Observe(MakeTxn({7, 1500, 9500}));
  const storage::TupleKey s1 = g.SupernodeOf(1500);
  const storage::TupleKey s9 = g.SupernodeOf(9500);
  EXPECT_NE(s1, s9);
  EXPECT_EQ(g.VertexWeight(s1), 1u);
  EXPECT_EQ(g.VertexWeight(s9), 1u);
  EXPECT_EQ(g.EdgeWeight(7, s1), 1u);
  EXPECT_EQ(g.EdgeWeight(s1, s9), 1u);
  EXPECT_EQ(g.VertexWeight(1500), 0u);
  // Vertex count stays bounded: 2 hot keys + 3 supernodes, nothing per
  // cold key.
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_GT(g.ApproxBytes(), 0u);
}

TEST(CoAccessGraphSketchTest, ReadsAndWritesFollowTheVertexMapping) {
  planner::CoAccessGraphConfig cfg;
  cfg.num_keys = 10'000;
  cfg.sketch_threshold = 1;
  cfg.sketch_topk = 4;
  cfg.supernode_ranges = 10;
  planner::CoAccessGraph g(cfg);

  txn::Transaction t;
  txn::Operation read;
  read.kind = txn::OpKind::kRead;
  read.key = 42;
  txn::Operation write;
  write.kind = txn::OpKind::kWrite;
  write.key = 42;
  t.ops = {read, write};
  g.Observe(t);  // first sighting: cold, mix lands on the supernode
  const storage::TupleKey s0 = g.SupernodeOf(42);
  EXPECT_EQ(g.VertexReads(s0), 1u);
  EXPECT_EQ(g.VertexWrites(s0), 1u);
  g.Observe(t);  // now hot: mix lands on the key's own vertex
  EXPECT_EQ(g.VertexReads(42), 1u);
  EXPECT_EQ(g.VertexWrites(42), 1u);
}

// --- CoAccessGraph checksum pins ------------------------------------------

// A seeded stream of mixed read/write transactions with duplicate keys,
// piggybacked repartition ops and a 16-key hot set. Integer-only, so the
// stream is the same on every platform.
txn::Transaction StreamTxn(std::mt19937_64& rng, uint64_t num_keys) {
  txn::Transaction t;
  const int ops = 2 + static_cast<int>(rng() % 5);
  for (int i = 0; i < ops; ++i) {
    txn::Operation op;
    op.key = rng() % 3 == 0 ? rng() % 16 : rng() % num_keys;
    op.kind = rng() % 3 == 0 ? txn::OpKind::kWrite : txn::OpKind::kRead;
    op.source_partition = static_cast<uint32_t>(
        rng() % 4 == 0 ? rng() % 5 : op.key % 5);
    if (rng() % 10 == 0) {
      op.kind = txn::OpKind::kMigrateInsert;
      op.repartition_op_id = 1 + rng() % 100;
    }
    t.ops.push_back(op);
  }
  return t;
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Everything the graph exposes in sorted form, folded into one FNV-1a.
uint64_t GraphChecksum(const planner::CoAccessGraph& g, uint64_t num_keys) {
  uint64_t h = 0xCBF29CE484222325ULL;
  h = Fnv(h, g.vertex_count());
  h = Fnv(h, g.edge_count());
  h = Fnv(h, g.txns_observed());
  for (storage::TupleKey v : g.SortedVertices()) {
    h = Fnv(h, v);
    h = Fnv(h, g.VertexWeight(v));
    h = Fnv(h, g.VertexReads(v));
    h = Fnv(h, g.VertexWrites(v));
    h = Fnv(h, g.HeatEstimate(v));
    for (const auto& [p, c] : g.WriteSources(v)) {
      h = Fnv(h, p);
      h = Fnv(h, c);
    }
  }
  for (const planner::CoAccessGraph::Edge& e : g.SortedEdges()) {
    h = Fnv(h, e.a);
    h = Fnv(h, e.b);
    h = Fnv(h, e.weight);
  }
  for (uint64_t k = 0; k < num_keys; k += 1 + num_keys / 97) {
    h = Fnv(h, g.HeatEstimate(k));
  }
  return h;
}

uint64_t StreamChecksum(const planner::CoAccessGraphConfig& cfg,
                        uint64_t num_keys) {
  planner::CoAccessGraph g(cfg);
  std::mt19937_64 rng(0xC0AC);
  uint64_t h = 0;
  for (int i = 1; i <= 3000; ++i) {
    g.Observe(StreamTxn(rng, num_keys));
    if (i % 250 == 0) {
      h = Fnv(h, GraphChecksum(g, num_keys));
      g.Decay();
      h = Fnv(h, GraphChecksum(g, num_keys));
    }
  }
  return h;
}

// The checksums were computed with the node-container graph (std::set
// space-saving, std::unordered_map adjacency) that the flat structures
// replaced: the representation change must be invisible.
TEST(CoAccessGraphChecksumTest, ExactModeStreamMatchesPinnedChecksum) {
  planner::CoAccessGraphConfig cfg;
  cfg.max_edges = 300;  // keeps EvictOverCap busy
  EXPECT_EQ(StreamChecksum(cfg, 200), 0x6F241487FD255398ULL);
}

TEST(CoAccessGraphChecksumTest, SketchModeStreamMatchesPinnedChecksum) {
  planner::CoAccessGraphConfig cfg;
  cfg.num_keys = 50'000;
  cfg.sketch_threshold = 1'000;
  cfg.sketch_topk = 32;
  cfg.supernode_ranges = 64;
  cfg.count_min_width_log2 = 10;
  cfg.max_edges = 500;
  planner::CoAccessGraph probe(cfg);
  ASSERT_TRUE(probe.sketch_mode());
  EXPECT_EQ(StreamChecksum(cfg, cfg.num_keys), 0x86FB82A0176862B7ULL);
}

}  // namespace
}  // namespace soap
