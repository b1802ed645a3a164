// The catalogue of distinct transaction templates (the paper's t_i): each
// template owns a fixed set of tuple keys and fixed read/write kinds, and
// is either collocated (all keys on one partition) or distributed (keys on
// two partitions) under the initial placement. Repartitioning collocates
// the distributed ones.

#ifndef SOAP_WORKLOAD_TEMPLATE_CATALOG_H_
#define SOAP_WORKLOAD_TEMPLATE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/storage/tuple.h"
#include "src/txn/transaction.h"
#include "src/workload/workload_spec.h"

namespace soap::workload {

struct TxnTemplate {
  uint32_t id = 0;
  /// The tuple keys this template's queries touch (disjoint across
  /// templates, so the α semantics are exact).
  std::vector<storage::TupleKey> keys;
  /// Per-query kind: true = write (UPDATE), false = read (SELECT).
  std::vector<bool> is_write;
  /// The partition the template's keys live on after repartitioning (and
  /// before it, for collocated templates).
  uint32_t home_partition = 0;
  /// True if the initial placement spreads this template over two
  /// partitions (it will be repartitioned to become collocated).
  bool initially_distributed = false;
  /// The keys that start on the remote partition and must be migrated
  /// home; empty for collocated templates.
  std::vector<storage::TupleKey> remote_keys;
  /// The partition the remote keys start on.
  uint32_t remote_partition = 0;
};

/// Builds and stores all templates plus the initial key->partition
/// placement the cluster is bulk-loaded with.
class TemplateCatalog {
 public:
  TemplateCatalog(const WorkloadSpec& spec, uint32_t num_partitions);

  const WorkloadSpec& spec() const { return spec_; }
  uint32_t num_partitions() const { return num_partitions_; }
  size_t size() const { return templates_.size(); }
  const TxnTemplate& at(uint32_t id) const { return templates_[id]; }
  const std::vector<TxnTemplate>& templates() const { return templates_; }

  /// Initial partition of any key (templates' keys per the scheme above;
  /// unused keys round-robin).
  uint32_t InitialPartitionOf(storage::TupleKey key) const;

  /// Visits every key whose initial partition differs from the round-robin
  /// default `key % num_partitions`, in ascending key order, as
  /// `fn(key, partition)`. The bulk loader combines this with a
  /// round-robin base assignment to load without touching all num_keys
  /// keys; the override count is O(templates × queries_per_txn).
  template <typename Fn>
  void ForEachInitialOverride(Fn&& fn) const {
    for (const auto& [key, partition] : initial_override_) fn(key, partition);
  }

  /// Number of templates that start distributed.
  uint32_t distributed_count() const { return distributed_count_; }

  /// Instantiates a normal transaction from a template.
  std::unique_ptr<txn::Transaction> Instantiate(uint32_t template_id,
                                                int64_t write_value) const;

  /// Instantiates a *paired* transaction (drifting workloads): the last
  /// half of the *read* positions (up to floor(q/2)) borrow the partner
  /// template's first keys; the base template's own writes stay on its own
  /// keys. By default borrowed partner accesses are read-only — a
  /// transaction reads foreign data but only writes its own. With
  /// `write_borrowed` the borrowed positions become writes against the
  /// partner's keys instead (DriftPhase::pair_write), modelling state the
  /// borrower partition writes through remotely. Borrowed keys are always
  /// accessed in partner-key order, so concurrent borrowers of the same
  /// partner acquire locks in one global order.
  std::unique_ptr<txn::Transaction> InstantiatePaired(
      uint32_t base_template, uint32_t partner_template, int64_t write_value,
      bool write_borrowed = false) const;

  /// Owning template of a key, or kNoTemplate for unowned keys.
  static constexpr uint32_t kNoTemplate = UINT32_MAX;
  uint32_t TemplateOfKey(storage::TupleKey key) const {
    auto it = template_of_.find(key);
    return it == template_of_.end() ? kNoTemplate : it->second;
  }

 private:
  WorkloadSpec spec_;
  uint32_t num_partitions_;
  std::vector<TxnTemplate> templates_;
  /// Initial placement, sparse: only keys whose partition differs from the
  /// round-robin default `key % num_partitions` (a subset of the template
  /// keys). Sorted so the bulk loader can stream overrides in key order.
  std::map<storage::TupleKey, uint32_t> initial_override_;
  /// key -> owning template, for template keys only.
  std::unordered_map<storage::TupleKey, uint32_t> template_of_;
  uint32_t distributed_count_ = 0;
};

}  // namespace soap::workload

#endif  // SOAP_WORKLOAD_TEMPLATE_CATALOG_H_
