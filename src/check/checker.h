// Offline consistency checker over a recorded history: reconstructs the
// transaction dependency graph (ww from per-key version chains, wr from
// read observations, rw anti-dependencies from read-to-next-version) and
// verifies the isolation level the run promised.
//
// At read committed the checker enforces Adya PL-2: G1a (no reads from
// aborted writers), G1b/dangling reads (no reads from phantom writers) and
// G1c (no cycles of ww/wr edges). Cycles that need an rw edge — write
// skew — are legal there and only counted. Under serializable isolation
// any dependency cycle is a violation (conflict-serializability).
//
// On top of the graph checks: stale reads (a read observing a version
// older than the latest one committed strictly before it — every phase-2
// apply precedes its FinishCommit, so the newer version was already on
// every live copy), write applies landing out of chain order on a
// partition, and applies from transactions that never committed.
//
// MVCC histories (--cc=mvcc) record snapshot reads instead of routed
// reads. The checker then verifies snapshot isolation: every read observes
// exactly the newest version committed strictly before the reader's begin
// timestamp (stale_snapshot_read), all of a transaction's reads share one
// timestamp (snapshot_fracture), and G1a still holds. Dependency cycles
// that need an rw edge — write skew — are legal under SI and only counted.
//
// Cost. No per-key map is built, and no per-txn map beyond one for chain
// writers the recorder never saw commit: the chains are laid out once
// as CSR arrays by chain id, a txn's graph node is its commit sequence
// number, and a writer's version is a binary search on its commit time
// in a chain that passed chain_order (a linear scan only in one that
// failed it). The dependency graph is CSR adjacency; Tarjan runs only
// when some edge points backward in commit order. Linear in the history
// apart from one binary search per resolved version.
//
// Violation order. Each rule pass reports in a fixed order: chain rules
// and lost_write in ascending key order, read, snapshot-read and apply
// rules in record (virtual-time) order, cycles in component order.

#ifndef SOAP_CHECK_CHECKER_H_
#define SOAP_CHECK_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/history_recorder.h"
#include "src/common/time.h"

namespace soap::check {

struct Violation {
  std::string check;   // e.g. "stale_read", "g1c_cycle", "ownership"
  std::string detail;  // human-readable specifics
  SimTime at = 0;      // virtual time of the offending event (0 = n/a)
};

struct CheckReport {
  std::vector<Violation> violations;
  uint64_t txns_checked = 0;
  uint64_t reads_checked = 0;
  /// MVCC snapshot reads verified against the version chains.
  uint64_t snapshot_reads_checked = 0;
  uint64_t ww_edges = 0;
  uint64_t wr_edges = 0;
  uint64_t rw_edges = 0;
  /// Dependency cycles that need an rw edge to close; violations only
  /// under serializable isolation, informational otherwise.
  uint64_t rw_cycles = 0;
  bool serializable_checked = false;
  /// True when the history was checked under MVCC snapshot-isolation
  /// rules (rw cycles are then informational even at serializable).
  bool mvcc_checked = false;

  bool ok() const { return violations.empty(); }
  /// One-line digest for run summaries.
  std::string ToString() const;
};

/// Runs every offline rule over the recorded history. `serializable` names
/// the isolation level the run executed under and gates whether rw cycles
/// are violations; `mvcc` switches reads to snapshot-isolation rules
/// (under which rw cycles are never violations — SI allows write skew).
CheckReport CheckHistory(const HistoryRecorder& history, bool serializable,
                         bool mvcc = false);

}  // namespace soap::check

#endif  // SOAP_CHECK_CHECKER_H_
