#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/status.h"
#include "engine/transform_hook.h"
#include "storage/catalog.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace morph::engine {

/// \brief Engine configuration.
struct DatabaseOptions {
  /// Record-lock wait timeout (backstop; wait-die resolves deadlocks).
  int64_t lock_timeout_micros = 5'000'000;
  /// Shards per table hash heap. Kept below 64 so Table::ForEach's
  /// all-shard-locks pass stays under TSan's 64-held-mutexes cap.
  size_t table_shards = 32;
  /// Hash-range tablets per table (storage/tablet.h): the latch
  /// granularity, and the grain a staggered transformation migrates at.
  /// Clamped to a power of two in [1, table_shards]. 1 (the default) = one
  /// table-wide latch, bit-identical to the historical engine.
  size_t table_tablets = 1;
  /// Multigranularity locking: every record operation first takes an
  /// intention lock (IS for reads, IX for writes) on the table, letting
  /// clients use table-granularity LockTable() S/X locks that exclude or
  /// coexist with record-level activity by the classic matrix. Off by
  /// default: it costs one extra lock-manager round-trip per operation,
  /// which single-table workloads do not need.
  bool multigranularity_locking = false;
};

using TxnPtr = std::shared_ptr<txn::Transaction>;

/// \brief A single update to one column.
struct ColumnUpdate {
  size_t column;
  Value value;
};

/// \brief The transactional engine facade.
///
/// Ties the substrates together the way the paper's prototype DBMS does:
/// strict 2PL record locks (writes exclusive — no delta updates, §4.2),
/// ARIES-style WAL with undo producing CLRs, table latches taken in shared
/// mode for the span of every operation so a transformation's
/// synchronization step can pause a table by latching it exclusively (§3.4).
///
/// Thread model: each transaction is driven by one client thread; any number
/// of client threads plus background transformation threads may run
/// concurrently.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  storage::Catalog* catalog() { return &catalog_; }
  wal::Wal* wal() { return &wal_; }
  txn::LockManager* locks() { return &locks_; }
  txn::TransactionManager* txns() { return &txns_; }
  const DatabaseOptions& options() const { return options_; }

  /// \brief Creates a table (no logging: DDL durability is out of scope, as
  /// in the paper's prototype).
  Result<std::shared_ptr<storage::Table>> CreateTable(const std::string& name,
                                                      Schema schema);
  Status DropTable(const std::string& name);

  // --- transaction lifecycle -------------------------------------------

  /// \brief Begins a transaction (logs BEGIN).
  TxnPtr Begin();

  /// \brief Commits: logs COMMIT, releases locks, notifies any registered
  /// transformation hook. Before the in-memory apply, an admission check
  /// (Wal::WaitWritable) rides out an ENOSPC stall and otherwise returns a
  /// *retryable* Status with the transaction untouched — the caller may
  /// retry the Commit once space frees, or Abort. After admission, the
  /// commit is applied in memory first, then made durable (Wal::Sync). If
  /// Sync fails, in-memory state has diverged from the durable log — the
  /// already-applied effects cannot be unwound — so the engine halts: the
  /// failing Status is returned and every subsequent Commit is refused
  /// (see wal_failed()). A crash-failpoint CrashException propagates
  /// instead; the crash harness discards the incarnation, so no divergence
  /// is observable.
  Status Commit(const TxnPtr& t);

  /// \brief True once a commit's WAL sync has failed: volatile state no
  /// longer matches the durable log and the engine refuses further commits.
  bool wal_failed() const { return wal_failed_.load(std::memory_order_acquire); }

  /// \brief Aborts: logs ABORT, undoes this transaction's operations in
  /// reverse LSN order writing a CLR per undone operation (the undo-chain
  /// walk restart recovery runs too, Recovery::Undo), logs TXN_END,
  /// releases locks.
  Status Abort(const TxnPtr& t);

  // --- transactional data operations -----------------------------------

  /// \brief Inserts `row` into `table` under an exclusive record lock.
  Status Insert(const TxnPtr& t, storage::Table* table, Row row);

  /// \brief Deletes the record at `key`.
  Status Delete(const TxnPtr& t, storage::Table* table, const Row& key);

  /// \brief Applies partial column updates to the record at `key`. The log
  /// record deliberately carries only the changed columns (old + new
  /// values), matching the paper's assumption that update records are
  /// "less informative" than inserts (§4.2). Updates may not change the
  /// primary key (use Delete+Insert).
  Status Update(const TxnPtr& t, storage::Table* table, const Row& key,
                const std::vector<ColumnUpdate>& updates);

  /// \brief Reads the row at `key` under a shared record lock.
  Result<Row> Read(const TxnPtr& t, storage::Table* table, const Row& key);

  /// \brief Explicit table-granularity lock (requires
  /// DatabaseOptions::multigranularity_locking). A kShared table lock
  /// admits record readers (IS) but excludes record writers (IX); a
  /// kExclusive table lock excludes everything — the transactional
  /// equivalent of the physical latch the blocking baseline uses. Released
  /// with the transaction's other locks at commit/abort.
  Status LockTable(const TxnPtr& t, storage::Table* table, txn::LockMode mode);

  // --- bulk / maintenance ----------------------------------------------

  /// \brief Loads rows outside any user transaction (txn id 0), with WAL
  /// insert records so the load is recoverable. Intended for initial data
  /// population in tests/benchmarks.
  Status BulkLoad(storage::Table* table, const std::vector<Row>& rows);

  // --- transformation support -------------------------------------------

  /// \brief Registers/clears the hook of an active transformation. At most
  /// one transformation may be active at a time (returns AlreadyExists
  /// otherwise).
  Status SetTransformHook(TransformHook* hook);
  void ClearTransformHook();
  TransformHook* transform_hook() const {
    return hook_.load(std::memory_order_acquire);
  }

  /// \brief Current global epoch stamped onto transactions at Begin.
  txn::TxnEpoch current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// \brief Bumps the global epoch; returns the *new* value. Transactions
  /// that began before the bump have epoch < returned value. Used by
  /// transformation control points (drain start, switch-over).
  txn::TxnEpoch AdvanceEpoch() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  /// Common per-operation prologue (before the table latch): hook gate
  /// (may block) + record lock.
  Status OpGate(const TxnPtr& t, storage::Table* table, const Row& key,
                txn::LockMode mode, txn::Access access);

  /// Post-latch, non-blocking hook revalidation (see TransformHook docs).
  Status Recheck(const TxnPtr& t, storage::Table* table, const Row& key,
                 txn::Access access);

  DatabaseOptions options_;
  wal::Wal wal_;
  storage::Catalog catalog_;
  txn::LockManager locks_;
  txn::TransactionManager txns_;
  std::atomic<TransformHook*> hook_{nullptr};
  std::atomic<txn::TxnEpoch> epoch_{0};
  /// Set when a commit was applied in memory but its WAL sync failed; the
  /// engine is then halted for new commits (see Commit docs).
  std::atomic<bool> wal_failed_{false};
};

}  // namespace morph::engine
