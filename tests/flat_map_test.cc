// The shared open-addressing table (src/common/flat_map.h): slot layout
// under backward-shift deletion, lazy allocation, and a differential check
// against std::unordered_map under insert/erase churn with wrapped probe
// chains and growth mid-churn.

#include "src/common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace soap {
namespace {

/// A deliberately weak policy: every key homes in the last four slots, so
/// probe chains are long and wrap past the end of the array.
struct TailHash {
  size_t operator()(uint64_t key, unsigned log2_capacity) const {
    const size_t capacity = size_t{1} << log2_capacity;
    return capacity - 1 - static_cast<size_t>(key % 4);
  }
};

TEST(FlatMapTest, DefaultBuiltAllocatesNothingUntilFirstInsert) {
  FlatMap<uint64_t> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.bytes(), 0u);
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Erase(7));
  auto [value, inserted] = map.TryEmplace(7, 3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 3u);
  EXPECT_EQ(map.capacity(), FlatMap<uint64_t>::kMinCapacity);
  auto [again, inserted_again] = map.TryEmplace(7, 9);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 3u);
}

TEST(FlatMapTest, LoadStaysAtMostHalf) {
  FlatMap<uint32_t> map;
  for (uint64_t k = 0; k < 1000; ++k) {
    map.TryEmplace(k * 7919, static_cast<uint32_t>(k));
    ASSERT_LE(map.size() * 2, map.capacity()) << "after " << k;
    ASSERT_EQ(map.capacity() & (map.capacity() - 1), 0u);
  }
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.bytes(), map.capacity() * 16);
}

TEST(FlatMapTest, BackwardShiftPullsWrappedChainBack) {
  FlatMap<uint32_t, TailHash> map(16);
  // Keys 0, 4, 8 home at slot 15 and wrap to 0 and 1; key 1 homes at 14.
  for (uint64_t k : {1, 0, 4, 8}) map.TryEmplace(k, static_cast<uint32_t>(k));
  EXPECT_EQ(map.Probe(1), 14u);
  EXPECT_EQ(map.Probe(0), 15u);
  EXPECT_EQ(map.Probe(4), 0u);
  EXPECT_EQ(map.Probe(8), 1u);
  EXPECT_TRUE(map.Erase(0));
  EXPECT_EQ(map.Probe(4), 15u);
  EXPECT_EQ(map.Probe(8), 0u);
  EXPECT_FALSE(map.occupied(1));
  EXPECT_TRUE(map.Erase(1));
  // 4 and 8 home at 15, so neither may move into slot 14.
  EXPECT_FALSE(map.occupied(14));
  for (uint64_t k : {4, 8}) {
    const uint32_t* value = map.Find(k);
    ASSERT_NE(value, nullptr) << "key " << k;
    EXPECT_EQ(*value, k);
  }
}

template <typename Hash>
void ChurnAgainstUnorderedMap(uint64_t seed, uint64_t universe) {
  FlatMap<uint64_t, Hash> map;
  std::unordered_map<uint64_t, uint64_t> model;
  std::mt19937_64 rng(seed);
  size_t max_capacity = 0;
  constexpr int kSteps = 20'000;
  for (int step = 0; step < kSteps; ++step) {
    // Population target: small, then large (growth mid-churn), then small.
    const size_t target = step < kSteps / 3       ? 8
                          : step < 2 * kSteps / 3 ? universe / 2
                                                  : 4;
    const uint64_t key = rng() % universe;
    const bool insert = model.size() < target ? rng() % 4 != 0
                                              : rng() % 4 == 0;
    if (insert) {
      const uint64_t value = rng();
      auto [got, inserted] = map.TryEmplace(key, value);
      auto [want, model_inserted] = model.try_emplace(key, value);
      ASSERT_EQ(inserted, model_inserted) << "step " << step;
      *got += 1;
      want->second += 1;
    } else {
      ASSERT_EQ(map.Erase(key), model.erase(key) == 1) << "step " << step;
    }
    ASSERT_EQ(map.size(), model.size()) << "step " << step;
    max_capacity = std::max(max_capacity, map.capacity());
    if (step % 97 != 0) continue;
    for (uint64_t k = 0; k < universe; ++k) {
      auto it = model.find(k);
      const uint64_t* got = map.Find(k);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << "key " << k << " step " << step;
      } else {
        ASSERT_NE(got, nullptr) << "key " << k << " step " << step;
        ASSERT_EQ(*got, it->second) << "key " << k << " step " << step;
      }
    }
    size_t visited = 0;
    map.ForEach([&](uint64_t k, uint64_t v) {
      ++visited;
      ASSERT_EQ(model.at(k), v);
    });
    ASSERT_EQ(visited, model.size());
  }
  EXPECT_GE(max_capacity, universe) << "the table never grew mid-churn";
}

TEST(FlatMapTest, ChurnAgainstUnorderedMapMixHash) {
  ChurnAgainstUnorderedMap<Mix64Hash>(0xF1A7, 512);
}

TEST(FlatMapTest, ChurnAgainstUnorderedMapWrappedChains) {
  ChurnAgainstUnorderedMap<TailHash>(0xC4A1, 96);
}

}  // namespace
}  // namespace soap
