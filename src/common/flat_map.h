// The one open-addressing hash table in the tree: a uint64_t -> Value map
// stored as one flat array of {key, value} slots, with the hash supplied
// as a policy. The routing table's exception overlay, the co-access
// graph's adjacency, the space-saving sketch's key index and the
// consistency checker's history recorder all use it.
//
// Layout: power-of-two capacity, linear probing, load factor at most 1/2.
// A lookup is a hash and a short forward scan; there are no per-entry
// nodes or bucket pointers. Deletion shifts later members of the probe
// chain back into the hole (backward-shift deletion), so the table never
// holds tombstones and a miss stops at the first empty slot however much
// churn the table has seen.
//
// The key ~0 marks an empty slot and cannot be stored. A default-built
// table allocates nothing until its first insert, so a container of many
// mostly-empty maps (one adjacency per graph vertex) pays only for the
// entries it holds.
//
// Hash policy: `size_t operator()(uint64_t key, unsigned log2_capacity)`
// returning the key's home slot in [0, 2^log2_capacity). Capacity is at
// least kMinCapacity whenever the policy is called.

#ifndef SOAP_COMMON_FLAT_MAP_H_
#define SOAP_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace soap {

/// Hash policy for keys whose bit patterns carry no useful locality: the
/// murmur3 64-bit finalizer, top log2_capacity bits of the result.
struct Mix64Hash {
  size_t operator()(uint64_t key, unsigned log2_capacity) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key >> (64 - log2_capacity));
  }
};

/// Hash policy for keys that arrive in runs of consecutive values (bulk
/// placements, sequentially issued ids): each aligned run of kRunLength
/// consecutive keys shares one multiplicative hash of the key's high bits
/// and takes adjacent home slots, so a run touches one or two cache lines,
/// while strided key sets still spread over the whole table. Needs a
/// capacity above kRunLength (start the table at 16 slots or more).
struct RunHash {
  static constexpr unsigned kRunBits = 3;
  static constexpr uint64_t kRunLength = uint64_t{1} << kRunBits;
  static constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  size_t operator()(uint64_t key, unsigned log2_capacity) const {
    const uint64_t run = (key >> kRunBits) * kGolden;
    const unsigned run_shift = 64 - (log2_capacity - kRunBits);
    return static_cast<size_t>(((run >> run_shift) << kRunBits) |
                               (key & (kRunLength - 1)));
  }
};

template <typename Value, typename Hash = Mix64Hash>
class FlatMap {
 public:
  /// Marks an empty slot; never a valid key.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  /// Capacity of the first allocation of a default-built table.
  static constexpr size_t kMinCapacity = 4;

  /// Empty, with no slot array until the first insert.
  FlatMap() = default;
  /// Empty, with `capacity` (a power of two >= kMinCapacity) slots.
  explicit FlatMap(size_t capacity) { Reset(capacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }
  /// Heap bytes of the slot array.
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// The slot `key`'s probe chain starts at under the current capacity.
  /// Requires capacity() > 0.
  size_t HomeSlot(uint64_t key) const { return Hash{}(key, log2_); }

  /// One probe: the slot holding `key`, or the empty slot that ends its
  /// chain (where an insert of `key` belongs). Requires capacity() > 0.
  size_t Probe(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = HomeSlot(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return i;
  }

  bool occupied(size_t slot) const { return slots_[slot].key != kEmptyKey; }
  Value& value(size_t slot) { return slots_[slot].value; }
  const Value& value(size_t slot) const { return slots_[slot].value; }

  /// The value mapped to `key`, or nullptr.
  const Value* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[Probe(key)];
    return slot.key == kEmptyKey ? nullptr : &slot.value;
  }
  Value* Find(uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).Find(key));
  }

  /// Fills the empty slot `slot` that Probe(key) returned and returns the
  /// stored value. Growing the table moves every entry, so slot indices
  /// and value pointers do not survive this call.
  Value& InsertAt(size_t slot, uint64_t key, Value value) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
      slot = Probe(key);
    }
    slots_[slot] = Slot{key, std::move(value)};
    ++size_;
    return slots_[slot].value;
  }

  /// The value mapped to `key`, inserting `value` first if absent; the
  /// bool is true when the key was inserted.
  std::pair<Value*, bool> TryEmplace(uint64_t key, Value value = Value{}) {
    if (!slots_.empty()) {
      const size_t slot = Probe(key);
      if (slots_[slot].key == key) return {&slots_[slot].value, false};
      return {&InsertAt(slot, key, std::move(value)), true};
    }
    Grow();
    return {&InsertAt(Probe(key), key, std::move(value)), true};
  }

  /// Empties occupied `slot`, pulling later chain members back over the
  /// hole so that every remaining key stays reachable from its home.
  void EraseAt(size_t slot) {
    const size_t mask = slots_.size() - 1;
    size_t hole = slot;
    for (size_t i = (hole + 1) & mask; slots_[i].key != kEmptyKey;
         i = (i + 1) & mask) {
      // The entry at i may fill the hole unless its home lies cyclically
      // in (hole, i] — then the hole is before its home.
      const size_t from_home = (i - HomeSlot(slots_[i].key)) & mask;
      if (from_home >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    const size_t slot = Probe(key);
    if (slots_[slot].key == kEmptyKey) return false;
    EraseAt(slot);
    return true;
  }

  /// Visits every (key, value) in slot order. `fn` must not insert into
  /// or erase from the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    uint64_t key = kEmptyKey;
    Value value{};
  };

  void Reset(size_t capacity) {
    slots_.assign(capacity, Slot{});
    size_ = 0;
    log2_ = 0;
    while ((size_t{1} << log2_) < capacity) ++log2_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t live = size_;
    Reset(old.empty() ? kMinCapacity : old.size() * 2);
    const size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      size_t i = HomeSlot(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
    size_ = live;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned log2_ = 0;
};

}  // namespace soap

#endif  // SOAP_COMMON_FLAT_MAP_H_
