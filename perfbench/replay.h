// Host cost per call, measured by replaying a cell's own generated
// transaction stream through each layer's public API (router, locks,
// storage + WAL, MVCC version store, co-access graph, history recorder and
// checker), one transaction at a time on a stack assembled exactly as the
// engine assembles it. Every call is wrapped in a span (see spans.h).

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/experiment.h"

namespace perfbench {

struct ReplayOptions {
  /// Span CSV written after the replay (empty: not written).
  std::string spans_out;
};

struct ReplayOutcome {
  /// False when any replayed call returned an unexpected result (a read
  /// missing at its routed partition, a lock not granted, a checker
  /// violation on the replayed history, ...); `error` says which.
  bool ok = true;
  std::string error;
  uint64_t txns_generated = 0;
  uint64_t txns_replayed = 0;
  uint64_t spans = 0;
  /// Per-layer metric name -> value, in report order.
  std::vector<std::pair<std::string, double>> metrics;
};

ReplayOutcome Replay(const soap::engine::ExperimentConfig& config,
                     const ReplayOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
