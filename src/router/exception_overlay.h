// The routing table's point-exception overlay: a TupleKey -> partition-id
// map holding the keys whose primary diverged from their base range.
// Private to the router — RoutingTable is its only user; it lives in its
// own header so its probe chains can be unit-tested directly.
//
// Storage is the shared open-addressing table (src/common/flat_map.h:
// flat {key, partition} slots, linear probing, load <= 1/2, backward-
// shift deletion). What is the overlay's own is the hash policy below and
// a first allocation of kInitialCapacity slots.
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

#include "src/common/flat_map.h"

namespace soap::router {

/// The overlay's hash policy (see file comment).
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

class ExceptionOverlay : public FlatMap<uint32_t, RunHash> {
 public:
  static constexpr size_t kInitialCapacity = 16;
  static_assert(kInitialCapacity > RunHash::kRunLength,
                "HomeSlot needs at least one run-hash bit");

  ExceptionOverlay() : FlatMap(kInitialCapacity) {}

  uint32_t partition(size_t slot) const { return value(slot); }
  void set_partition(size_t slot, uint32_t partition) {
    value(slot) = partition;
  }
};

}  // namespace soap::router

#endif  // SOAP_ROUTER_EXCEPTION_OVERLAY_H_
