// The routing table's point-exception overlay: a TupleKey -> partition-id
// map holding the keys whose primary diverged from their base range.
// Private to the router — RoutingTable is its only user; it lives in its
// own header so its probe chains can be unit-tested directly.
//
// Storage is the shared open-addressing table (src/common/flat_map.h:
// flat {key, partition} slots, linear probing, load <= 1/2, backward-
// shift deletion) under its RunHash policy, so sequential keys (bulk
// placement, range migration) touch one or two cache lines per run while
// strided key sets (say, every key of one round-robin partition) still
// spread over the whole table. What is the overlay's own is a first
// allocation of kInitialCapacity slots.

#ifndef SOAP_ROUTER_EXCEPTION_OVERLAY_H_
#define SOAP_ROUTER_EXCEPTION_OVERLAY_H_

#include <cstddef>
#include <cstdint>

#include "src/common/flat_map.h"

namespace soap::router {

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
