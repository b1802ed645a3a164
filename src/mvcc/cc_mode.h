// Concurrency-control engine selector (--cc). k2PL is the seed's strict
// two-phase locking pipeline, byte-identical when selected; kMvcc layers
// versioned storage + snapshot reads on top of it (src/mvcc/): reads are
// served lock-free from per-key version chains at the transaction's begin
// timestamp while writers keep their commit-window exclusive locks and
// abort on first-updater-wins write-write conflicts.

#ifndef SOAP_MVCC_CC_MODE_H_
#define SOAP_MVCC_CC_MODE_H_

#include <cstdint>

namespace soap::mvcc {

enum class ConcurrencyControl : uint8_t {
  /// Strict 2PL (the seed pipeline): serializable reads take shared locks
  /// at execution; writes lock exclusively for the commit window.
  k2PL = 0,
  /// MVCC snapshot reads: reads acquire no locks at any isolation level;
  /// writers keep 2PL write locks and install versions at commit, with
  /// first-updater-wins write-write conflict detection.
  kMvcc,
};

}  // namespace soap::mvcc

#endif  // SOAP_MVCC_CC_MODE_H_
