// In-memory span log for the benchmark's replay timings. A span is one
// timed call into a layer's public API: name, start, end, the span that
// caused it, the replayed transaction it belongs to, and how many items
// (transactions, keys) the call covered. Spans stay in memory while the
// replay runs and are written out once at the end, so the file write
// never lands inside a timed region.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank summary of one span name's per-item self times.
struct SpanSummary {
  uint64_t n = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double total_ns = 0.0;
};

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Opens a span and returns its id; close it with End().
  uint32_t Begin(uint32_t name, uint64_t txn, uint32_t parent = kNoParent,
                 uint32_t items = 1);
  void End(uint32_t span) { spans_[span].end_ns = NowNs(); }
  /// Sets the item count of a span whose size is known only after the call.
  void SetItems(uint32_t span, uint32_t items) {
    spans_[span].items = items == 0 ? 1 : items;
  }

  /// Id of `name`, registering it on first use.
  uint32_t Intern(std::string_view name);

  size_t size() const { return spans_.size(); }
  void Reserve(size_t n) { spans_.reserve(n); }

  /// Self time (duration minus the time its children cover) of every span
  /// named `name`, divided by the span's item count, summarised.
  SpanSummary Summarize(std::string_view name) const;

  /// CSV dump: span_id,parent_id,txn_id,name,start_ns,end_ns,items.
  /// Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint32_t items = 1;
    uint64_t txn = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint32_t name, uint64_t txn,
             uint32_t parent = SpanLog::kNoParent, uint32_t items = 1)
      : log_(log), id_(log->Begin(name, txn, parent, items)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
