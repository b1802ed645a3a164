// Hash-indexed in-memory table: the per-partition tuple store.

#ifndef SOAP_STORAGE_TABLE_H_
#define SOAP_STORAGE_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/tuple.h"

namespace soap::storage {

/// An unordered collection of tuples keyed by TupleKey. This is the storage
/// behind one partition; the engine layers locking and logging on top, so
/// the table itself is a plain single-writer structure.
///
/// Lazy base mode (production cardinality): instead of materialising one
/// row per seed tuple, SetLazyBase declares the arithmetic membership
/// {k < num_keys, k % num_partitions == partition} as virtually present
/// with the seed content (content == key, version 0). Rows materialise on
/// first write; evicted/erased base keys get a tombstone. Reads, size()
/// and ForEach behave exactly as if the base had been bulk-loaded.
class Table {
 public:
  /// Pre-sizes the hash index for an expected row count, so bulk loads and
  /// steady-state stores never rehash mid-run.
  void Reserve(size_t expected_rows) { rows_.reserve(expected_rows); }

  /// Declares the virtual seed base (call once, on an empty table). Keys
  /// congruent to `partition` mod `num_partitions` below `num_keys` become
  /// virtually present without allocating rows.
  void SetLazyBase(uint64_t num_keys, uint32_t partition,
                   uint32_t num_partitions);

  /// Inserts a new tuple. Fails with AlreadyExists if the key is present
  /// (materially or virtually).
  Status Insert(const Tuple& tuple);

  /// Inserts or overwrites.
  void Upsert(const Tuple& tuple);

  /// Reads a tuple by key.
  Result<Tuple> Get(TupleKey key) const;

  /// Updates the content of an existing tuple, bumping its version.
  /// Fails with NotFound if absent.
  Status Update(TupleKey key, int64_t content);

  /// Removes a tuple. Fails with NotFound if absent.
  Status Erase(TupleKey key);

  bool Contains(TupleKey key) const {
    return rows_.count(key) > 0 || VirtualLive(key);
  }
  size_t size() const { return rows_.size() + virtual_live_; }

  /// Materialised rows only (excludes the virtual base), for reports.
  size_t materialized_size() const { return rows_.size(); }

  /// The declared virtual base: keys below num_keys congruent to
  /// `partition` mod `stride` (meaningful only when lazy()).
  struct LazyBase {
    uint64_t num_keys = 0;
    uint32_t partition = 0;
    uint32_t stride = 1;
  };
  bool lazy() const { return lazy_; }
  LazyBase lazy_base() const {
    return {base_num_keys_, base_partition_, base_stride_};
  }

  /// True while `key` is present only virtually: in the lazy base, never
  /// materialised and not erased.
  bool VirtualLive(TupleKey key) const {
    return InBase(key) && rows_.count(key) == 0 && dead_.count(key) == 0;
  }

  /// Rough heap footprint of the materialised state, for scaling reports.
  size_t ApproxBytes() const {
    constexpr size_t kHashNodeOverhead = 2 * sizeof(void*);
    return sizeof(*this) +
           rows_.size() * (sizeof(TupleKey) + sizeof(Tuple) +
                           kHashNodeOverhead) +
           rows_.bucket_count() * sizeof(void*) +
           dead_.size() * (sizeof(TupleKey) + kHashNodeOverhead) +
           dead_.bucket_count() * sizeof(void*);
  }

  /// Calls `fn(tuple)` for every materialised row (no virtual base rows;
  /// iteration order unspecified).
  template <typename Fn>
  void ForEachMaterialized(Fn&& fn) const {
    for (const auto& [key, tuple] : rows_) fn(tuple);
  }

  /// Calls `fn(tuple)` for every row (iteration order unspecified).
  /// Virtual base rows are synthesised on the fly.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, tuple] : rows_) fn(tuple);
    if (!lazy_ || virtual_live_ == 0) return;
    for (TupleKey key = base_partition_; key < base_num_keys_;
         key += base_stride_) {
      if (rows_.count(key) > 0 || dead_.count(key) > 0) continue;
      fn(SynthesizeRow(key));
    }
  }

 private:
  /// True while `key` belongs to the declared base membership (whether or
  /// not it has since materialised or died).
  bool InBase(TupleKey key) const {
    return lazy_ && key < base_num_keys_ &&
           key % base_stride_ == base_partition_;
  }
  static Tuple SynthesizeRow(TupleKey key) {
    Tuple t;
    t.key = key;
    t.content = static_cast<int64_t>(key);
    t.version = 0;
    return t;
  }

  std::unordered_map<TupleKey, Tuple> rows_;

  // Lazy-base state (inert unless SetLazyBase was called).
  bool lazy_ = false;
  uint64_t base_num_keys_ = 0;
  uint32_t base_partition_ = 0;
  uint32_t base_stride_ = 1;
  /// Count of base keys that are neither materialised nor dead.
  uint64_t virtual_live_ = 0;
  /// Base keys erased/evicted before ever materialising a row.
  std::unordered_set<TupleKey> dead_;
};

}  // namespace soap::storage

#endif  // SOAP_STORAGE_TABLE_H_
