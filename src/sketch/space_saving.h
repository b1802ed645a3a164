// Space-saving heavy hitters (Metwally, Agrawal & El Abbadi): tracks the
// top-k hottest tuple keys in O(k) memory — the E-Store-style hot-tuple
// identification that decides which keys get exact vertices in the
// co-access graph at production cardinality.
//
// Representation: a binary min-heap of {count, key} nodes ordered on
// (count, key), a dense item array (inherited error, heap position) and a
// flat key -> item index (src/common/flat_map.h). Keys are distinct, so
// (count, key) is a total order and the heap root is exactly the
// (count, key)-least entry: eviction is fully deterministic and never
// depends on a hash iteration order. The arrays and the index grow with
// the live entries; nothing is sized from the configured capacity.

#ifndef SOAP_SKETCH_SPACE_SAVING_H_
#define SOAP_SKETCH_SPACE_SAVING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"

namespace soap::sketch {

class SpaceSaving {
 public:
  explicit SpaceSaving(size_t capacity) : capacity_(capacity) {}

  /// Counts one (or `count`) occurrences of `key` (any key but ~0). At
  /// capacity the (count, key)-least tracked entry is evicted and `key`
  /// inherits its count as over-estimation error — the classic
  /// space-saving step.
  void Add(uint64_t key, uint64_t count = 1) {
    if (capacity_ == 0) return;
    if (const uint32_t* id = index_.Find(key)) {
      const uint32_t pos = items_[*id].pos;
      heap_[pos].count += count;
      SiftDown(pos);
      return;
    }
    if (heap_.size() < capacity_) {
      const auto id = static_cast<uint32_t>(items_.size());
      const auto pos = static_cast<uint32_t>(heap_.size());
      items_.push_back({0, pos});
      heap_.push_back({count, key, id});
      index_.TryEmplace(key, id);
      SiftUp(pos);
      return;
    }
    // The root is the victim; the newcomer takes over its item slot.
    Node& root = heap_[0];
    const uint64_t min_count = root.count;
    index_.Erase(root.key);
    index_.TryEmplace(key, root.id);
    items_[root.id].error = min_count;
    root.count = min_count + count;
    root.key = key;
    SiftDown(0);
  }

  /// True while `key` occupies one of the k tracked slots ("hot").
  bool Contains(uint64_t key) const { return index_.Find(key) != nullptr; }

  /// Estimated count (an over-estimate by at most the entry's error);
  /// 0 for untracked keys.
  uint64_t Estimate(uint64_t key) const {
    const uint32_t* id = index_.Find(key);
    return id == nullptr ? 0 : heap_[items_[*id].pos].count;
  }

  /// Guaranteed (error-free) count: count minus inherited error, 0 for
  /// untracked keys. A freshly adopted key has guarantee 1, so consumers
  /// can tell real heavy hitters from churn through the bottom slot.
  uint64_t Guaranteed(uint64_t key) const {
    const uint32_t* id = index_.Find(key);
    if (id == nullptr) return 0;
    const Item& item = items_[*id];
    return heap_[item.pos].count - item.error;
  }

  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;
    uint64_t error = 0;  ///< inherited over-estimation at adoption time
  };

  /// Tracked entries, hottest first (ties by ascending key).
  std::vector<Entry> TopK() const {
    std::vector<Entry> out;
    out.reserve(heap_.size());
    for (const Node& node : heap_) {
      out.push_back({node.key, node.count, items_[node.id].error});
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

  /// Ages the window: counts and errors >>= shift; entries decayed to
  /// zero are dropped, freeing slots for the next phase's hot keys. The
  /// survivors get fresh item ids and the heap is rebuilt.
  void Decay(uint32_t shift) {
    std::vector<Node> old_heap = std::move(heap_);
    std::vector<Item> old_items = std::move(items_);
    heap_.clear();
    items_.clear();
    index_ = Index{};
    for (const Node& node : old_heap) {
      const uint64_t count = node.count >> shift;
      if (count == 0) continue;
      const auto id = static_cast<uint32_t>(items_.size());
      items_.push_back({old_items[node.id].error >> shift, id});
      heap_.push_back({count, node.key, id});
      index_.TryEmplace(node.key, id);
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) {
      SiftDown(static_cast<uint32_t>(i));
    }
  }

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return capacity_; }

  size_t ApproxBytes() const {
    return sizeof(*this) + heap_.capacity() * sizeof(Node) +
           items_.capacity() * sizeof(Item) + index_.bytes();
  }

 private:
  /// Heap node; the heap orders nodes on (count, key).
  struct Node {
    uint64_t count = 0;
    uint64_t key = 0;
    uint32_t id = 0;  ///< index into items_
  };
  /// Per-entry state that heap moves must not copy around.
  struct Item {
    uint64_t error = 0;
    uint32_t pos = 0;  ///< the entry's position in heap_
  };
  using Index = FlatMap<uint32_t>;

  static bool Less(const Node& a, const Node& b) {
    return a.count != b.count ? a.count < b.count : a.key < b.key;
  }

  void Place(uint32_t pos, const Node& node) {
    heap_[pos] = node;
    items_[node.id].pos = pos;
  }

  void SiftUp(uint32_t pos) {
    const Node node = heap_[pos];
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / 2;
      if (!Less(node, heap_[parent])) break;
      Place(pos, heap_[parent]);
      pos = parent;
    }
    Place(pos, node);
  }

  void SiftDown(uint32_t pos) {
    const Node node = heap_[pos];
    const size_t n = heap_.size();
    for (;;) {
      size_t child = 2 * size_t{pos} + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
      if (!Less(heap_[child], node)) break;
      Place(pos, heap_[child]);
      pos = static_cast<uint32_t>(child);
    }
    Place(pos, node);
  }

  size_t capacity_;
  std::vector<Node> heap_;
  std::vector<Item> items_;
  Index index_;
};

}  // namespace soap::sketch

#endif  // SOAP_SKETCH_SPACE_SAVING_H_
