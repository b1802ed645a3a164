// Interval/exception behaviour of the range-based RoutingTable: bulk range
// assignment, block-range split and coalesce at boundary keys, exception
// absorption, O(1) counters, ForEachReplicated under mutation, the
// exception overlay's backward-shift deletion, and randomized
// differentials against a dense per-key reference model.

#include "src/router/routing_table.h"

#include "src/router/exception_overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace soap::router {
namespace {

TEST(RoutingIntervalTest, RoundRobinBulkAssign) {
  RoutingTable rt(1000);
  ASSERT_TRUE(rt.AssignRoundRobin(0, 1000, 4).ok());
  EXPECT_EQ(rt.range_count(), 1u);
  EXPECT_EQ(rt.exception_count(), 0u);
  for (uint64_t k : {0ull, 1ull, 5ull, 999ull}) {
    EXPECT_EQ(*rt.GetPrimary(k), static_cast<PartitionId>(k % 4));
  }
  EXPECT_EQ(rt.CountPrimaries(0), 250u);
  EXPECT_EQ(rt.CountPrimaries(3), 250u);
  EXPECT_EQ(rt.CountReplicas(0), 0u);
}

TEST(RoutingIntervalTest, BlockRangeAssign) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(0, 50, 1).ok());
  ASSERT_TRUE(rt.AssignRange(50, 100, 2).ok());
  EXPECT_EQ(rt.range_count(), 2u);
  EXPECT_EQ(*rt.GetPrimary(0), 1u);
  EXPECT_EQ(*rt.GetPrimary(49), 1u);
  EXPECT_EQ(*rt.GetPrimary(50), 2u);
  EXPECT_EQ(rt.CountPrimaries(1), 50u);
  EXPECT_EQ(rt.CountPrimaries(2), 50u);
}

TEST(RoutingIntervalTest, OverlappingOrOutOfBoundsRangesRejected) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(10, 20, 0).ok());
  EXPECT_FALSE(rt.AssignRange(15, 25, 1).ok());  // overlaps tail
  EXPECT_FALSE(rt.AssignRange(5, 11, 1).ok());   // overlaps head
  EXPECT_FALSE(rt.AssignRange(0, 101, 1).ok());  // past num_keys
  EXPECT_FALSE(rt.AssignRange(30, 30, 1).ok());  // empty
  EXPECT_TRUE(rt.AssignRange(20, 30, 1).ok());   // adjacent is fine
}

TEST(RoutingIntervalTest, MigrateAtFirstKeySplitsBlockRange) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(0, 100, 1).ok());
  ASSERT_TRUE(rt.Migrate(0, 1, 2).ok());
  EXPECT_EQ(*rt.GetPrimary(0), 2u);
  EXPECT_EQ(*rt.GetPrimary(1), 1u);
  // Boundary migration restructures the range instead of leaving a point
  // exception behind.
  EXPECT_EQ(rt.exception_count(), 0u);
  EXPECT_EQ(rt.range_count(), 2u);
  EXPECT_EQ(rt.CountPrimaries(1), 99u);
  EXPECT_EQ(rt.CountPrimaries(2), 1u);

  // Migrating back coalesces to a single range again.
  ASSERT_TRUE(rt.Migrate(0, 2, 1).ok());
  EXPECT_EQ(rt.range_count(), 1u);
  EXPECT_EQ(rt.exception_count(), 0u);
  EXPECT_EQ(rt.CountPrimaries(1), 100u);
}

TEST(RoutingIntervalTest, MigrateAtLastKeySplitsBlockRange) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(0, 100, 1).ok());
  ASSERT_TRUE(rt.Migrate(99, 1, 3).ok());
  EXPECT_EQ(*rt.GetPrimary(99), 3u);
  EXPECT_EQ(*rt.GetPrimary(98), 1u);
  EXPECT_EQ(rt.exception_count(), 0u);
  EXPECT_EQ(rt.range_count(), 2u);

  ASSERT_TRUE(rt.Migrate(99, 3, 1).ok());
  EXPECT_EQ(rt.range_count(), 1u);
  EXPECT_EQ(rt.CountPrimaries(1), 100u);
}

TEST(RoutingIntervalTest, BoundarySplitsMergeWithEqualOwnerNeighbors) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(0, 50, 1).ok());
  ASSERT_TRUE(rt.AssignRange(50, 100, 2).ok());
  // Key 50 is the first key of partition 2's range; moving it to 1
  // extends partition 1's neighboring block instead of minting a range.
  ASSERT_TRUE(rt.Migrate(50, 2, 1).ok());
  EXPECT_EQ(*rt.GetPrimary(50), 1u);
  EXPECT_EQ(rt.exception_count(), 0u);
  EXPECT_EQ(rt.range_count(), 2u);
  EXPECT_EQ(rt.CountPrimaries(1), 51u);
  EXPECT_EQ(rt.CountPrimaries(2), 49u);
}

TEST(RoutingIntervalTest, InteriorMigrationIsAnExceptionAbsorbedOnReturn) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRange(0, 100, 1).ok());
  ASSERT_TRUE(rt.Migrate(42, 1, 3).ok());
  EXPECT_EQ(*rt.GetPrimary(42), 3u);
  EXPECT_EQ(rt.exception_count(), 1u);
  EXPECT_EQ(rt.range_count(), 1u);
  EXPECT_EQ(rt.CountPrimaries(1), 99u);
  EXPECT_EQ(rt.CountPrimaries(3), 1u);
  // Returning home absorbs the exception back into the range.
  ASSERT_TRUE(rt.Migrate(42, 3, 1).ok());
  EXPECT_EQ(rt.exception_count(), 0u);
  EXPECT_EQ(rt.CountPrimaries(1), 100u);
  EXPECT_EQ(rt.CountPrimaries(3), 0u);
}

TEST(RoutingIntervalTest, RoundRobinMigrationsUseExceptions) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRoundRobin(0, 100, 4).ok());
  // Round-robin ranges never restructure — even boundary keys become
  // exceptions (there is no contiguous block to split).
  ASSERT_TRUE(rt.Migrate(0, 0, 3).ok());
  EXPECT_EQ(rt.exception_count(), 1u);
  EXPECT_EQ(rt.range_count(), 1u);
  EXPECT_EQ(*rt.GetPrimary(0), 3u);
  // Returning to the arithmetic owner absorbs.
  ASSERT_TRUE(rt.Migrate(0, 3, 0).ok());
  EXPECT_EQ(rt.exception_count(), 0u);
}

TEST(RoutingIntervalTest, PromoteOnExceptionKey) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRoundRobin(0, 100, 4).ok());
  // Key 5 (base owner 1) migrates to 3, then gets a replica on 2.
  ASSERT_TRUE(rt.Migrate(5, 1, 3).ok());
  ASSERT_TRUE(rt.AddReplica(5, 2).ok());
  EXPECT_EQ(rt.exception_count(), 1u);
  ASSERT_TRUE(rt.Promote(5, 2).ok());
  Result<Placement> p = rt.GetPlacement(5);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->primary, 2u);
  ASSERT_EQ(p->replicas.size(), 1u);
  EXPECT_EQ(p->replicas[0], 3u);  // old primary demoted in place
  EXPECT_EQ(rt.CountPrimaries(2), 26u);  // 25 round-robin + the exception
  EXPECT_EQ(rt.CountReplicas(3), 1u);
  EXPECT_EQ(rt.CountReplicas(2), 0u);
}

TEST(RoutingIntervalTest, PromoteBackToBaseOwnerAbsorbsException) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRoundRobin(0, 100, 4).ok());
  // Key 7's base owner is 3. Move it away, replicate it back on 3, then
  // promote 3: the primary returns to the arithmetic owner and the
  // exception disappears.
  ASSERT_TRUE(rt.Migrate(7, 3, 0).ok());
  ASSERT_TRUE(rt.AddReplica(7, 3).ok());
  EXPECT_EQ(rt.exception_count(), 1u);
  ASSERT_TRUE(rt.Promote(7, 3).ok());
  EXPECT_EQ(*rt.GetPrimary(7), 3u);
  EXPECT_EQ(rt.exception_count(), 0u);
  Result<Placement> p = rt.GetPlacement(7);
  ASSERT_EQ(p->replicas.size(), 1u);
  EXPECT_EQ(p->replicas[0], 0u);
}

TEST(RoutingIntervalTest, AssignOverExistingExceptionsAbsorbsMatching) {
  RoutingTable rt(100);
  // Point placements before any range exists live as exceptions.
  ASSERT_TRUE(rt.SetPrimary(3, 1).ok());
  ASSERT_TRUE(rt.SetPrimary(4, 2).ok());
  EXPECT_EQ(rt.exception_count(), 2u);
  // Installing a block range over them: the key already on the range
  // owner is absorbed, the other stays authoritative.
  ASSERT_TRUE(rt.AssignRange(0, 10, 1).ok());
  EXPECT_EQ(rt.exception_count(), 1u);
  EXPECT_EQ(*rt.GetPrimary(3), 1u);
  EXPECT_EQ(*rt.GetPrimary(4), 2u);
  EXPECT_EQ(*rt.GetPrimary(7), 1u);
  EXPECT_EQ(rt.CountPrimaries(1), 9u);
  EXPECT_EQ(rt.CountPrimaries(2), 1u);
}

TEST(RoutingIntervalTest, ForEachReplicatedSeesMutationsBeyondCursor) {
  RoutingTable rt(100);
  ASSERT_TRUE(rt.AssignRoundRobin(0, 100, 4).ok());
  for (uint64_t k : {3ull, 10ull, 20ull}) {
    ASSERT_TRUE(rt.AddReplica(k, static_cast<PartitionId>((k + 1) % 4)).ok());
  }
  std::vector<storage::TupleKey> visited;
  rt.ForEachReplicated([&](storage::TupleKey key, const Placement& p) {
    visited.push_back(key);
    EXPECT_EQ(p.replicas.size(), 1u);
    if (key == 3) {
      // Mutations beyond the cursor take effect for the rest of the
      // sweep: 20 loses its replica, 50 gains one.
      ASSERT_TRUE(rt.RemoveReplica(20, 1).ok());
      ASSERT_TRUE(rt.AddReplica(50, 0).ok());
    }
  });
  EXPECT_EQ(visited, (std::vector<storage::TupleKey>{3, 10, 50}));
}

// --- Randomized differential vs a dense per-key reference model ----------

struct DenseModel {
  struct Entry {
    bool routed = false;
    PartitionId primary = 0;
    std::vector<PartitionId> replicas;
  };
  std::vector<Entry> keys;
  explicit DenseModel(uint64_t n) : keys(n) {}

  bool SetPrimary(uint64_t k, PartitionId p) {
    keys[k].routed = true;
    keys[k].primary = p;
    return true;
  }
  bool AddReplica(uint64_t k, PartitionId p) {
    Entry& e = keys[k];
    if (!e.routed) return false;
    if (e.primary == p) return false;
    if (std::find(e.replicas.begin(), e.replicas.end(), p) !=
        e.replicas.end()) {
      return false;
    }
    e.replicas.push_back(p);
    return true;
  }
  bool RemoveReplica(uint64_t k, PartitionId p) {
    Entry& e = keys[k];
    auto it = std::find(e.replicas.begin(), e.replicas.end(), p);
    if (!e.routed || it == e.replicas.end()) return false;
    e.replicas.erase(it);
    return true;
  }
  bool Migrate(uint64_t k, PartitionId from, PartitionId to) {
    Entry& e = keys[k];
    if (!e.routed || e.primary != from) return false;
    e.primary = to;
    auto it = std::find(e.replicas.begin(), e.replicas.end(), to);
    if (it != e.replicas.end()) e.replicas.erase(it);
    return true;
  }
  bool Promote(uint64_t k, PartitionId np) {
    Entry& e = keys[k];
    auto it = std::find(e.replicas.begin(), e.replicas.end(), np);
    if (!e.routed || it == e.replicas.end()) return false;
    *it = e.primary;  // demote in place, matching the table's swap
    e.primary = np;
    return true;
  }
};

TEST(RoutingIntervalTest, RandomizedDifferentialAgainstDenseModel) {
  constexpr uint64_t kKeys = 512;
  constexpr uint32_t kParts = 8;
  constexpr int kMutations = 10'000;
  RoutingTable rt(kKeys);
  ASSERT_TRUE(rt.AssignRoundRobin(0, kKeys, kParts).ok());
  DenseModel model(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    model.SetPrimary(k, static_cast<PartitionId>(k % kParts));
  }

  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < kMutations; ++i) {
    const uint64_t k = rng() % kKeys;
    const auto p = static_cast<PartitionId>(rng() % kParts);
    const int op = static_cast<int>(rng() % 5);
    bool model_ok = false;
    bool table_ok = false;
    switch (op) {
      case 0: {
        // SetPrimary may not collide with a live replica; mirror the
        // generator guard the production writers obey.
        const auto& reps = model.keys[k].replicas;
        if (std::find(reps.begin(), reps.end(), p) != reps.end()) continue;
        model_ok = model.SetPrimary(k, p);
        table_ok = rt.SetPrimary(k, p).ok();
        break;
      }
      case 1:
        model_ok = model.AddReplica(k, p);
        table_ok = rt.AddReplica(k, p).ok();
        break;
      case 2:
        model_ok = model.RemoveReplica(k, p);
        table_ok = rt.RemoveReplica(k, p).ok();
        break;
      case 3: {
        const auto from = static_cast<PartitionId>(rng() % kParts);
        model_ok = model.Migrate(k, from, p);
        table_ok = rt.Migrate(k, from, p).ok();
        break;
      }
      case 4:
        model_ok = model.Promote(k, p);
        table_ok = rt.Promote(k, p).ok();
        break;
    }
    ASSERT_EQ(model_ok, table_ok) << "op " << op << " key " << k
                                  << " part " << p << " at step " << i;
    if (i % 1000 == 999) {
      for (uint64_t key = 0; key < kKeys; ++key) {
        Result<Placement> got = rt.GetPlacement(key);
        ASSERT_TRUE(got.ok()) << "key " << key;
        EXPECT_EQ(got->primary, model.keys[key].primary) << "key " << key;
        EXPECT_EQ(got->replicas, model.keys[key].replicas) << "key " << key;
      }
    }
  }

  // Final structural cross-check: counters, replicated-key census, and the
  // exception overlay staying a strict subset of the keyspace.
  std::vector<uint64_t> primaries(kParts, 0), replicas(kParts, 0);
  uint64_t replicated = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    primaries[model.keys[key].primary]++;
    for (PartitionId r : model.keys[key].replicas) replicas[r]++;
    if (!model.keys[key].replicas.empty()) ++replicated;
  }
  for (uint32_t part = 0; part < kParts; ++part) {
    EXPECT_EQ(rt.CountPrimaries(part), primaries[part]) << "part " << part;
    EXPECT_EQ(rt.CountReplicas(part), replicas[part]) << "part " << part;
  }
  EXPECT_EQ(rt.replicated_key_count(), replicated);
  EXPECT_LE(rt.exception_count(), kKeys);
  EXPECT_GT(rt.ApproxBytes(), 0u);
}

// Keys below `limit` whose home slot is `slot` in a fresh overlay, the
// capacity a RoutingTable's overlay keeps while it holds few exceptions.
std::vector<storage::TupleKey> KeysHomedAt(size_t slot, size_t count,
                                           storage::TupleKey limit) {
  const ExceptionOverlay fresh;
  std::vector<storage::TupleKey> keys;
  for (storage::TupleKey k = 0; k < limit && keys.size() < count; ++k) {
    if (fresh.HomeSlot(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(ExceptionOverlayTest, BackwardShiftKeepsWrappedChainReachable) {
  ExceptionOverlay overlay;
  const size_t last = overlay.capacity() - 1;
  // a, b, c share the last home slot, so b and c wrap to slots 0 and 1;
  // d (home 0) is displaced to slot 2 and e (home 3) sits at its home.
  const std::vector<storage::TupleKey> wrapped = KeysHomedAt(last, 3, 4096);
  const storage::TupleKey d = KeysHomedAt(0, 1, 4096).at(0);
  const storage::TupleKey e = KeysHomedAt(3, 1, 4096).at(0);
  ASSERT_EQ(wrapped.size(), 3u);
  std::vector<storage::TupleKey> keys = wrapped;
  keys.push_back(d);
  keys.push_back(e);
  for (size_t i = 0; i < keys.size(); ++i) {
    overlay.InsertAt(overlay.Probe(keys[i]), keys[i],
                     static_cast<uint32_t>(i + 10));
  }
  EXPECT_EQ(overlay.Probe(wrapped[0]), last);
  EXPECT_EQ(overlay.Probe(wrapped[2]), 1u);
  EXPECT_EQ(overlay.Probe(d), 2u);
  EXPECT_EQ(overlay.Probe(e), 3u);

  // Erasing a pulls b, c and d back one slot across the wrap; e stays.
  overlay.EraseAt(overlay.Probe(wrapped[0]));
  EXPECT_EQ(overlay.size(), 4u);
  EXPECT_EQ(overlay.Find(wrapped[0]), nullptr);
  EXPECT_EQ(overlay.Probe(wrapped[1]), last);
  EXPECT_EQ(overlay.Probe(wrapped[2]), 0u);
  EXPECT_EQ(overlay.Probe(d), 1u);
  EXPECT_EQ(overlay.Probe(e), 3u);
  EXPECT_FALSE(overlay.occupied(2));
  for (size_t i = 1; i < keys.size(); ++i) {
    const uint32_t* p = overlay.Find(keys[i]);
    ASSERT_NE(p, nullptr) << "key " << keys[i];
    EXPECT_EQ(*p, static_cast<uint32_t>(i + 10));
  }
}

TEST(RoutingIntervalTest, AbsorbedKeyLeavesProbeChainNeighboursReachable) {
  constexpr uint64_t kKeys = 4096;
  constexpr uint32_t kParts = 4;
  RoutingTable rt(kKeys);
  ASSERT_TRUE(rt.AssignRoundRobin(0, kKeys, kParts).ok());
  // Three keys colliding on the overlay's last home slot (a wrapped chain)
  // plus one homed at slot 0 that the wrap displaces.
  const size_t last = ExceptionOverlay().capacity() - 1;
  std::vector<storage::TupleKey> keys = KeysHomedAt(last, 3, kKeys);
  keys.push_back(KeysHomedAt(0, 1, kKeys).at(0));
  ASSERT_EQ(keys.size(), 4u);
  auto owner = [](storage::TupleKey k) {
    return static_cast<PartitionId>(k % kParts);
  };
  auto moved = [](storage::TupleKey k) {
    return static_cast<PartitionId>((k + 1) % kParts);
  };
  for (storage::TupleKey k : keys) {
    ASSERT_TRUE(rt.Migrate(k, owner(k), moved(k)).ok());
  }
  ASSERT_EQ(rt.exception_count(), keys.size());

  // Absorb the chain head back into its round-robin range.
  ASSERT_TRUE(rt.Migrate(keys[0], moved(keys[0]), owner(keys[0])).ok());
  EXPECT_EQ(rt.exception_count(), keys.size() - 1);
  EXPECT_EQ(*rt.GetPrimary(keys[0]), owner(keys[0]));
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(*rt.GetPrimary(keys[i]), moved(keys[i])) << "key " << keys[i];
  }
  // And a middle member, through SetPrimary this time.
  ASSERT_TRUE(rt.SetPrimary(keys[1], owner(keys[1])).ok());
  EXPECT_EQ(rt.exception_count(), keys.size() - 2);
  EXPECT_EQ(*rt.GetPrimary(keys[2]), moved(keys[2]));
  EXPECT_EQ(*rt.GetPrimary(keys[3]), moved(keys[3]));
  for (uint32_t p = 0; p < kParts; ++p) {
    uint64_t expected = 0;
    for (storage::TupleKey k = 0; k < kKeys; ++k) {
      const bool off = k == keys[2] || k == keys[3];
      expected += (off ? moved(k) : owner(k)) == p;
    }
    EXPECT_EQ(rt.CountPrimaries(p), expected) << "part " << p;
  }
}

// Delete-heavy churn on a small keyspace: keys keep leaving their
// round-robin owner and returning to it, so the overlay's backward-shift
// deletes run across wrapped probe chains. The target exception
// population rises mid-run (the overlay grows several times while churning)
// and falls again.
TEST(RoutingIntervalTest, ExceptionChurnAgainstDenseModel) {
  constexpr uint64_t kKeys = 384;
  constexpr uint32_t kParts = 4;
  constexpr int kSteps = 30'000;
  RoutingTable rt(kKeys);
  ASSERT_TRUE(rt.AssignRoundRobin(0, kKeys, kParts).ok());
  DenseModel model(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    model.SetPrimary(k, static_cast<PartitionId>(k % kParts));
  }
  auto off_owner = [&](uint64_t k) {
    return model.keys[k].primary != static_cast<PartitionId>(k % kParts);
  };
  uint64_t off = 0;

  auto check = [&](int step) {
    ASSERT_EQ(rt.exception_count(), off) << "step " << step;
    std::vector<uint64_t> primaries(kParts, 0);
    for (uint64_t key = 0; key < kKeys; ++key) {
      Result<Placement> got = rt.GetPlacement(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      ASSERT_EQ(got->primary, model.keys[key].primary)
          << "key " << key << " at step " << step;
      ASSERT_TRUE(got->replicas.empty());
      primaries[model.keys[key].primary]++;
    }
    for (uint32_t part = 0; part < kParts; ++part) {
      ASSERT_EQ(rt.CountPrimaries(part), primaries[part])
          << "part " << part << " at step " << step;
    }
  };

  std::mt19937_64 rng(0x5EED);
  for (int step = 0; step < kSteps; ++step) {
    // Small population, then ~200 exceptions, then small again.
    const uint64_t target =
        step < kSteps / 3 ? 6 : (step < 2 * kSteps / 3 ? 200 : 10);
    const uint64_t k = rng() % kKeys;
    const auto owner = static_cast<PartitionId>(k % kParts);
    const bool leave = off < target ? rng() % 4 != 0 : rng() % 4 == 0;
    if (off_owner(k)) {
      if (leave) {
        // Re-target an existing exception without absorbing it.
        const PartitionId from = model.keys[k].primary;
        PartitionId to = static_cast<PartitionId>(rng() % kParts);
        if (to == owner || to == from) continue;
        ASSERT_TRUE(rt.Migrate(k, from, to).ok());
        model.Migrate(k, from, to);
      } else {
        // Return home: half via Migrate, half via SetPrimary.
        const PartitionId from = model.keys[k].primary;
        if (rng() % 2 == 0) {
          ASSERT_TRUE(rt.Migrate(k, from, owner).ok());
        } else {
          ASSERT_TRUE(rt.SetPrimary(k, owner).ok());
        }
        model.Migrate(k, from, owner);
        --off;
      }
    } else if (leave) {
      const auto to =
          static_cast<PartitionId>((owner + 1 + rng() % (kParts - 1)) %
                                   kParts);
      ASSERT_TRUE(rt.Migrate(k, owner, to).ok());
      model.Migrate(k, owner, to);
      ++off;
    }
    if (step % 500 == 499) {
      check(step);
      if (HasFatalFailure()) return;
    }
  }
  check(kSteps);
}

}  // namespace
}  // namespace soap::router
