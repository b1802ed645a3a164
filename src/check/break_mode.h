// Deliberate-corruption test hook (--check_break): mutation modes the
// transaction manager injects exactly once per run so tests can prove the
// checker actually detects each class of bug. Guards against a vacuously
// green checker. Lives in soap_check_core so the cluster layer can consume
// the enum without depending on the full check subsystem.

#ifndef SOAP_CHECK_BREAK_MODE_H_
#define SOAP_CHECK_BREAK_MODE_H_

namespace soap::check {

enum class BreakMode {
  kNone = 0,
  /// Skip one replica-path phase-2 write apply: the copy silently diverges
  /// from the primary (must trip replica_coherence / stale_read).
  kReplicaApply,
  /// Skip one migration source cleanup: the tuple stays stored on a
  /// partition the routing table no longer places it on (must trip the
  /// ownership invariant).
  kDoubleDeploy,
  /// Skip one primary write apply: a committed update never reaches
  /// storage (must trip final_state / stale_read).
  kLostWrite,
  /// Misreport one MVCC snapshot read as having observed a version other
  /// than the one visible at the reader's begin timestamp (must trip
  /// stale_snapshot_read). Only meaningful under --cc=mvcc.
  kStaleSnapshot,
  /// Half-apply one leader shift: retarget the primary without absorbing
  /// the target's replica entry or demoting the old primary, so the key
  /// briefly lists a partition twice and strands the old copy (must trip
  /// double_primary / ownership). Only meaningful under --lion.
  kDoublePrimary,
};

}  // namespace soap::check

#endif  // SOAP_CHECK_BREAK_MODE_H_
