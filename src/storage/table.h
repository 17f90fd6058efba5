#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/index.h"
#include "storage/record.h"
#include "storage/tablet.h"

namespace morph::storage {

/// \brief An in-memory heap table: a sharded hash map from primary key to
/// Record, plus any number of secondary indexes.
///
/// This layer is purely *physical*. Transactional concerns — record locks,
/// WAL logging, constraint enforcement — live in engine::Database. The
/// physical layer still matters to the paper's method in two ways:
///
///  1. **Fuzzy scan.** FuzzyScan() reads the table *without any
///     transactional locks*, shard by shard, each shard snapshot taken under
///     the shard mutex (so individual records are never torn) but with
///     writers free to run between shards. The result is exactly the
///     transactionally inconsistent "fuzzy" image of paper §2.2/§3.2.
///  2. **Tablet latches.** The table carries (but does not itself acquire)
///     one reader-writer latch per hash-range *tablet* (storage/tablet.h).
///     engine::Database holds the latch of the tablet owning the touched
///     key in shared mode across each transactional operation (record lock
///     + WAL append + apply); the synchronization step of a transformation
///     takes latches exclusively — all of them for a whole-table switch,
///     one tablet's for a staggered per-tablet switch, which pauses only
///     1/T of the keyspace (paper §3.4, shrunk to tablet grain). With
///     num_tablets == 1 (the default) there is exactly one latch and the
///     behavior is bit-identical to the historical whole-table latch.
///     Keeping acquisition at the engine layer avoids recursive shared
///     acquisition, which could deadlock against a pending exclusive
///     request.
///
/// Thread safety: all methods are safe to call concurrently.
class Table {
 public:
  /// \param id catalog-assigned identifier
  /// \param name table name
  /// \param schema column layout and primary-key set
  /// \param num_shards power-of-two shard count for the hash heap
  /// \param num_tablets hash-range tablets (latch granularity); clamped to
  ///        a power of two in [1, num_shards]. 1 = one table-wide latch,
  ///        the historical behavior.
  Table(TableId id, std::string name, Schema schema, size_t num_shards = 32,
        size_t num_tablets = 1);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  /// \brief Inserts a record; the primary key is extracted from its row.
  /// Fails with AlreadyExists if the key is present.
  Status Insert(Record record);

  /// \brief What a batched insert/upsert did, per record.
  struct BatchStats {
    size_t inserted = 0;  ///< new keys stored
    size_t replaced = 0;  ///< upsert replaced an older-LSN record
    size_t skipped = 0;   ///< duplicates tolerated (in the batch or stored)
  };

  /// \brief Bulk insert for the population pipeline: records are grouped by
  /// destination shard so each shard mutex is taken once per batch, and
  /// each secondary index gets one SecondaryIndex::AddBatch — versus one
  /// mutex pair per record on the Insert path. Records are moved into the
  /// table, never copied; their index keys are taken before the move,
  /// outside every shard mutex.
  ///
  /// Duplicate keys are *tolerated*, not errors: within the batch the first
  /// occurrence wins, against stored records the stored one wins — exactly
  /// what a loop of Insert calls ignoring AlreadyExists produces, which is
  /// how the fuzzy population treats anomaly duplicates (the log converges
  /// them later).
  ///
  /// An index created by a concurrent CreateIndex while the batch runs gets
  /// its entries from the stored records, so the backfill guarantee holds.
  Result<BatchStats> InsertBatch(std::vector<Record> records);

  /// \brief Like InsertBatch, but an existing record is replaced when the
  /// incoming one carries a strictly higher LSN (ties keep the stored
  /// record) — the newest-contributor seeding rule the merge population
  /// applies per record via Insert + Mutate. The gate is evaluated under the
  /// shard mutex, so concurrent batches converge on the max-LSN image in any
  /// arrival order; within one batch the highest-LSN occurrence of a key
  /// wins.
  Result<BatchStats> UpsertBatchLsnGated(std::vector<Record> records);

  /// \brief Replaces the record at `key` (the new row must have the same
  /// primary key). Secondary indexes are maintained.
  Status Update(const Row& key, Record record);

  /// \brief Removes the record at `key`.
  Status Delete(const Row& key);

  /// \brief Copy of the record at `key`.
  Result<Record> Get(const Row& key) const;

  bool Contains(const Row& key) const;

  /// \brief Atomically reads-modifies-writes the record at `key` under the
  /// shard mutex. `fn` returns false to signal "leave unchanged" (no index
  /// maintenance). The row's primary key must not change. Used by the split
  /// propagator for counter/LSN/flag updates that must be atomic.
  Status Mutate(const Row& key, const std::function<bool(Record*)>& fn);

  /// \brief What an Rmw callback decided to do with the slot at `key`.
  enum class RmwAction {
    kKeep,   ///< leave the slot as it was (absent stays absent)
    kPut,    ///< store `*record` (insert if absent, replace if present)
    kErase,  ///< remove the record (no-op if absent)
  };

  /// \brief Like Mutate, but the callback also sees *absence* and may insert
  /// or erase — the whole decision runs under the shard mutex. `fn` receives
  /// a scratch Record (a copy of the stored one when `exists`, default-
  /// constructed otherwise) and returns the action. On kPut the row's
  /// primary key must equal `key`.
  ///
  /// This is the primitive the split propagator's S-side counter maintenance
  /// needs under parallel propagation: "increment, inserting if absent" and
  /// "decrement, erasing at zero" are only correct if the existence check
  /// and the write are one atomic step. A Mutate-then-Insert (or
  /// Mutate-then-Delete) pair leaves a window where a concurrent worker's
  /// bump lands between the two and is lost.
  Status Rmw(const Row& key,
             const std::function<RmwAction(Record* record, bool exists)>& fn);

  /// \brief Fuzzy scan: per-shard snapshots without transactional locks.
  /// `fn` is invoked outside any shard mutex.
  void FuzzyScan(const std::function<void(const Record&)>& fn) const;

  /// \brief Number of physical shards (the unit of SnapshotShard and the
  /// natural partition grain for parallel scans).
  size_t num_shards() const { return shards_.size(); }

  /// \brief One shard's worth of a fuzzy scan: the records of shard
  /// `shard_index` copied out under that shard's mutex (no record is ever
  /// torn), writers free everywhere else. Calling this for every shard index
  /// is FuzzyScan decomposed — each key lives in exactly one shard, so
  /// workers owning disjoint shard ranges cover the table exactly once
  /// without ever materializing it whole.
  std::vector<Record> SnapshotShard(size_t shard_index) const;

  /// \brief Action-consistent iteration: every shard mutex is held (acquired
  /// in index order) for the duration of one pass, so `fn` sees a single
  /// point-in-time image even while writers are running — no record is torn
  /// and no write lands between shards. Writers block until the pass ends;
  /// use FuzzyScan when staleness is acceptable. Deadlock-free against all
  /// other Table operations, which each take at most one shard mutex. `fn`
  /// must not call back into this table.
  void ForEach(const std::function<void(const Record&)>& fn) const;

  size_t size() const;

  /// \brief Pre-sizes every shard map and every secondary index for `n`
  /// records in total, so a bulk population does not rehash as it grows.
  /// A hint: it never shrinks anything and changes no contents.
  void Reserve(size_t n);

  /// \brief Creates a secondary index over `column_names` and backfills it
  /// from the current contents. Fails if an index with that name exists or a
  /// column is unknown.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names);

  /// \brief Index lookup by name; nullptr if absent.
  SecondaryIndex* GetIndex(const std::string& index_name) const;

  /// \brief Tablet geometry of this table (storage/tablet.h).
  const TabletSpace& tablets() const { return tablets_; }
  size_t num_tablets() const { return tablets_.num_tablets(); }

  /// \brief The latch of the tablet owning `key` (shared = normal ops on
  /// that key range, exclusive = pause the tablet).
  std::shared_mutex& latch_for(const Row& key) const {
    return latches_.at(tablets_.TabletOf(key));
  }

  /// \brief Latch of tablet `t` (for a transformation's per-tablet sync
  /// pass, or a whole-table pause looping t = 0..num_tablets()-1 in index
  /// order).
  std::shared_mutex& tablet_latch(size_t t) const { return latches_.at(t); }

  /// \brief Row-count and per-record visitor used by recovery to rebuild.
  void Clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Row, Record, RowHasher> map;
  };

  Shard& ShardFor(const Row& key) {
    return shards_[key.Hash() & shard_mask_];
  }
  const Shard& ShardFor(const Row& key) const {
    return shards_[key.Hash() & shard_mask_];
  }

  /// The current indexes. Indexes are only ever appended, so an earlier
  /// snapshot is a prefix of a later one and the pointers stay valid.
  std::vector<SecondaryIndex*> IndexSnapshot() const;

  void IndexAdd(const Record& record, const Row& pk);
  void IndexRemove(const Record& record, const Row& pk);

  /// Shared implementation of InsertBatch / UpsertBatchLsnGated.
  Result<BatchStats> ApplyBatch(std::vector<Record> records, bool lsn_upsert);

  const TableId id_;
  std::string name_;
  const Schema schema_;
  const size_t shard_mask_;
  std::vector<Shard> shards_;

  const TabletSpace tablets_;
  mutable TabletLatches latches_;

  mutable std::mutex indexes_mu_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
};

}  // namespace morph::storage
