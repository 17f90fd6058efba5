#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"

namespace morph::storage {

/// \brief A hash-based secondary index mapping an attribute combination to
/// the primary keys of the records holding it.
///
/// The transformation framework requires indexes on the join attributes of
/// the transformed table and on the S-key attributes (paper §4.1) so the
/// propagation rules can find "all T-records affected by an operation on an
/// S-record" without scanning. The index is non-unique (a multimap): one
/// S-record typically occurs in many T-records.
///
/// Thread safety: all methods take an internal mutex. Index content is
/// maintained by Table under its shard operations; readers may interleave.
class SecondaryIndex {
 public:
  /// \param name index name (unique within the table)
  /// \param column_indices positions of the indexed columns in the table
  ///        schema, in index-key order
  SecondaryIndex(std::string name, std::vector<size_t> column_indices)
      : name_(std::move(name)), column_indices_(std::move(column_indices)) {}

  const std::string& name() const { return name_; }
  const std::vector<size_t>& column_indices() const { return column_indices_; }

  /// \brief Extracts this index's key from a full row.
  Row KeyOf(const Row& row) const { return row.Project(column_indices_); }

  /// \brief Adds the (index_key, pk) entry; a pair already present is not
  /// added twice.
  void Add(const Row& index_key, const Row& pk);
  void Remove(const Row& index_key, const Row& pk);

  /// \brief Add for a batch of entries (`keys[i]`, `pks[i]`) under one
  /// mutex acquisition. Keys and primary keys are moved in; the duplicate
  /// scan runs only for a key that already existed.
  void AddBatch(std::vector<Row> keys, std::vector<Row> pks);

  /// \brief Pre-sizes the map for `n` distinct index keys (never shrinks).
  void Reserve(size_t n);

  /// \brief All primary keys with this index key (copy).
  std::vector<Row> Lookup(const Row& index_key) const;

  /// \brief Number of matching entries without copying them out.
  size_t Count(const Row& index_key) const;

  size_t num_entries() const;

  void Clear();

 private:
  /// The insert rule shared by Add and AddBatch, run with `mu_` held: the
  /// key is copied or moved in only when absent, the pk only when new.
  template <typename K, typename P>
  void AddLocked(K&& index_key, P&& pk);

  const std::string name_;
  const std::vector<size_t> column_indices_;
  mutable std::mutex mu_;
  std::unordered_map<Row, std::vector<Row>, RowHasher> map_;
};

}  // namespace morph::storage
