// The routing table's point-exception overlay: an open-addressing
// TupleKey -> partition-id hash table holding the keys whose primary
// diverged from their base range. Private to the router — RoutingTable is
// its only user; it lives in its own header so its probe chains can be
// unit-tested directly.
//
// Layout: one flat array of {key, partition} slots, power-of-two capacity,
// linear probing, load factor at most 1/2. A lookup is a hash and a short
// forward scan; there are no per-entry nodes or bucket pointers. Deletion
// shifts later members of the probe chain back into the hole (backward-
// shift deletion), so the table never holds tombstones and a miss stops
// at the first empty slot however much churn the table has seen.
//
// Hash: each aligned run of kRunLength consecutive keys shares one
// multiplicative hash of the key's high bits and takes adjacent home
// slots, so sequential keys (bulk placement, range migration) touch one or
// two cache lines per run, while strided key sets (say, every key of one
// round-robin partition) still spread over the whole table.

#ifndef SOAP_ROUTER_EXCEPTION_OVERLAY_H_
#define SOAP_ROUTER_EXCEPTION_OVERLAY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/storage/tuple.h"

namespace soap::router {

class ExceptionOverlay {
 public:
  /// Marks an empty slot. Routed keys are < num_keys <= UINT64_MAX, so no
  /// real key can take this value.
  static constexpr storage::TupleKey kEmptyKey = ~storage::TupleKey{0};
  static constexpr size_t kMinCapacity = 16;

  ExceptionOverlay() { Reset(kMinCapacity); }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Heap bytes of the slot array.
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// The slot `key`'s probe chain starts at under the current capacity.
  size_t HomeSlot(storage::TupleKey key) const {
    const uint64_t run = (key >> kRunBits) * kGolden;
    return static_cast<size_t>(((run >> run_shift_) << kRunBits) |
                               (key & (kRunLength - 1)));
  }

  /// One probe: the slot holding `key`, or the empty slot that ends its
  /// chain (where an insert of `key` belongs).
  size_t Probe(storage::TupleKey key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = HomeSlot(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return i;
  }

  bool occupied(size_t slot) const { return slots_[slot].key != kEmptyKey; }
  uint32_t partition(size_t slot) const { return slots_[slot].partition; }
  void set_partition(size_t slot, uint32_t partition) {
    slots_[slot].partition = partition;
  }

  /// The partition mapped to `key`, or nullptr.
  const uint32_t* Find(storage::TupleKey key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[Probe(key)];
    return slot.key == kEmptyKey ? nullptr : &slot.partition;
  }

  /// Fills the empty slot `slot` that Probe(key) returned. Growing the
  /// table moves every entry, so slot indices do not survive this call.
  void InsertAt(size_t slot, storage::TupleKey key, uint32_t partition) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
      slot = Probe(key);
    }
    slots_[slot] = Slot{key, partition};
    ++size_;
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
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Visits every (key, partition) in slot order. `fn` must not mutate
  /// the overlay.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.partition);
    }
  }

 private:
  struct Slot {
    storage::TupleKey key = kEmptyKey;
    uint32_t partition = 0;
  };

  static constexpr unsigned kRunBits = 3;
  static constexpr uint64_t kRunLength = uint64_t{1} << kRunBits;
  static constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  static_assert(kMinCapacity > kRunLength,
                "HomeSlot needs at least one run-hash bit");

  void Reset(size_t capacity) {
    slots_.assign(capacity, Slot{});
    size_ = 0;
    unsigned log2 = 0;
    while ((size_t{1} << log2) < capacity) ++log2;
    run_shift_ = 64 - (log2 - kRunBits);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t live = size_;
    Reset(old.size() * 2);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      size_t i = HomeSlot(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = slot;
    }
    size_ = live;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  /// 64 - log2(capacity / kRunLength): selects the run-hash bits.
  unsigned run_shift_ = 0;
};

}  // namespace soap::router

#endif  // SOAP_ROUTER_EXCEPTION_OVERLAY_H_
