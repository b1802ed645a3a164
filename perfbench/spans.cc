#include "spans.h"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

uint32_t SpanLog::Begin(uint32_t name, uint64_t txn, uint32_t parent,
                        uint32_t items) {
  const auto id = static_cast<uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = parent;
  span.items = items == 0 ? 1 : items;
  span.txn = txn;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

uint32_t SpanLog::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

namespace {

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

SpanSummary SpanLog::Summarize(std::string_view name) const {
  SpanSummary summary;
  uint32_t id = UINT32_MAX;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) id = static_cast<uint32_t>(i);
  }
  if (id == UINT32_MAX) return summary;

  // Children always follow their parent in the log, so one pass charges
  // each child's duration against its parent.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> values;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != id) continue;
    const int64_t self = span.end_ns - span.start_ns - child_ns[i];
    values.push_back(static_cast<double>(self) /
                     static_cast<double>(span.items));
    summary.total_ns += static_cast<double>(self);
  }
  std::sort(values.begin(), values.end());
  summary.n = values.size();
  summary.p50_ns = NearestRank(values, 50.0);
  summary.p99_ns = NearestRank(values, 99.0);
  return summary;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "span_id,parent_id,txn_id,name,start_ns,end_ns,items\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ','
        << (span.parent == kNoParent ? std::string()
                                     : std::to_string(span.parent))
        << ',' << span.txn << ',' << names_[span.name] << ','
        << span.start_ns << ',' << span.end_ns << ',' << span.items << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
