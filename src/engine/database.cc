#include "engine/database.h"

#include <shared_mutex>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "engine/recovery.h"

namespace morph::engine {

Database::Database(DatabaseOptions options)
    : options_(options), locks_(options.lock_timeout_micros), txns_(&wal_) {}

Result<std::shared_ptr<storage::Table>> Database::CreateTable(
    const std::string& name, Schema schema) {
  return catalog_.CreateTable(name, std::move(schema), options_.table_shards,
                              options_.table_tablets);
}

Status Database::DropTable(const std::string& name) {
  return catalog_.DropTable(name);
}

TxnPtr Database::Begin() {
  MORPH_COUNTER_INC("engine.txn.begins");
  return txns_.Begin(&epoch_);
}

Status Database::Commit(const TxnPtr& t) {
  if (wal_failed_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "engine halted: a prior commit was applied in memory but its WAL "
        "sync failed, so volatile state has diverged from the durable log");
  }
  if (TransformHook* hook = hook_.load(std::memory_order_acquire)) {
    const Status gate = hook->OnCommit(t->id(), t->epoch());
    if (!gate.ok()) {
      // Doomed by the transformation (non-blocking abort switch-over):
      // roll back instead.
      MORPH_RETURN_NOT_OK(Abort(t));
      return gate;
    }
  }
  // Admission check BEFORE the in-memory apply: if the WAL is stalled on
  // ENOSPC (or its writer already died), refuse the commit here with a
  // retryable Status while the transaction is still fully abortable. The
  // halt path below exists only for the unrecoverable ordering — apply
  // succeeded, sync failed — and a full disk must not be promoted into
  // that permanent outage when we can simply not apply yet.
  const Status admit = wal_.WaitWritable();
  if (!admit.ok()) {
    MORPH_COUNTER_INC("engine.txn.commit_backpressure");
    return admit;
  }
  MORPH_RETURN_NOT_OK(txns_.Commit(t));
  // WAL-before-return: a commit is only acknowledged once its commit record
  // is durable. In-memory mode this is a no-op; with a segmented WAL the
  // caller blocks until the group-commit writer's flush horizon passes the
  // commit record (many committers share one flush).
  const Status durable = wal_.Sync(t->last_lsn());
  if (!durable.ok()) {
    // The transaction already took effect in memory (txns_.Commit above) and
    // cannot be unwound — other readers may have seen it. Returning an error
    // while the effects stay visible would make this incarnation lie to its
    // caller, so the whole engine halts instead: no further commit is
    // accepted (the durable log is behind volatile state for good).
    wal_failed_.store(true, std::memory_order_release);
    MORPH_COUNTER_INC("engine.txn.wal_failed_halt");
    return durable;
  }
  MORPH_COUNTER_INC("engine.txn.commits");
  if (TransformHook* hook = hook_.load(std::memory_order_acquire)) {
    hook->OnTxnFinished(t->id(), t->epoch());
  }
  locks_.ReleaseAll(t->id());
  return Status::OK();
}

Status Database::Abort(const TxnPtr& t) {
  MORPH_RETURN_NOT_OK(txns_.BeginAbort(t));
  // The walk starts at the ABORT record, whose prev_lsn is the last
  // operation to undo; each CLR becomes the transaction's last LSN.
  const Result<size_t> undone =
      Recovery::Undo(&wal_, &catalog_, t->id(), t->last_lsn(),
                     /*restart=*/false,
                     [&](Lsn clr_lsn) { t->set_last_lsn(clr_lsn); });
  MORPH_RETURN_NOT_OK(undone.status());
  MORPH_RETURN_NOT_OK(txns_.EndAbort(t));
  MORPH_COUNTER_INC("engine.txn.aborts");
  if (TransformHook* hook = hook_.load(std::memory_order_acquire)) {
    hook->OnTxnFinished(t->id(), t->epoch());
  }
  locks_.ReleaseAll(t->id());
  return Status::OK();
}

Status Database::OpGate(const TxnPtr& t, storage::Table* table, const Row& key,
                        txn::LockMode mode, txn::Access access) {
  if (t->state() != txn::TxnState::kActive) {
    return Status::InvalidArgument("operation on non-active transaction " +
                                   std::to_string(t->id()));
  }
  // Hook gate runs *before* lock acquisition and before the table latch:
  // a gated/blocked operation must pin no engine resources (see
  // TransformHook docs).
  if (TransformHook* hook = hook_.load(std::memory_order_acquire)) {
    MORPH_RETURN_NOT_OK(hook->OnOp(t->id(), t->epoch(), table->id(), access,
                                   key, /*may_block=*/true));
  }
  if (options_.multigranularity_locking) {
    const txn::LockMode intent = mode == txn::LockMode::kShared
                                     ? txn::LockMode::kIntentionShared
                                     : txn::LockMode::kIntentionExclusive;
    MORPH_RETURN_NOT_OK(
        locks_.Acquire(t->id(), txn::LockManager::TableLockId(table->id()),
                       intent));
  }
  txn::RecordId rid{table->id(), key};
  return locks_.Acquire(t->id(), rid, mode);
}

Status Database::LockTable(const TxnPtr& t, storage::Table* table,
                           txn::LockMode mode) {
  if (!options_.multigranularity_locking) {
    return Status::NotSupported(
        "table locks require DatabaseOptions::multigranularity_locking");
  }
  if (t->state() != txn::TxnState::kActive) {
    return Status::InvalidArgument("operation on non-active transaction");
  }
  return locks_.Acquire(t->id(), txn::LockManager::TableLockId(table->id()),
                        mode);
}

Status Database::Recheck(const TxnPtr& t, storage::Table* table, const Row& key,
                         txn::Access access) {
  if (TransformHook* hook = hook_.load(std::memory_order_acquire)) {
    return hook->OnOp(t->id(), t->epoch(), table->id(), access, key,
                      /*may_block=*/false);
  }
  return Status::OK();
}

Status Database::Insert(const TxnPtr& t, storage::Table* table, Row row) {
  MORPH_RETURN_NOT_OK(table->schema().ValidateRow(row));
  const Row key = table->schema().KeyOf(row);
  MORPH_RETURN_NOT_OK(
      OpGate(t, table, key, txn::LockMode::kExclusive, txn::Access::kWrite));
  std::shared_lock latch(table->latch_for(key));
  MORPH_RETURN_NOT_OK(Recheck(t, table, key, txn::Access::kWrite));
  if (table->Contains(key)) {
    return Status::AlreadyExists("duplicate key " + key.ToString() + " in " +
                                 table->name());
  }
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kInsert;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  rec.table_id = table->id();
  rec.key = key;
  rec.after = row;
  const Lsn lsn = wal_.Append(std::move(rec));
  t->set_last_lsn(lsn);
  // Crash window: the insert is logged but not yet applied — restart
  // recovery must redo it (or undo it if the transaction never committed).
  MORPH_FAILPOINT("engine.insert.after_log");

  storage::Record record;
  record.row = std::move(row);
  record.lsn = lsn;
  return table->Insert(std::move(record));
}

Status Database::Delete(const TxnPtr& t, storage::Table* table, const Row& key) {
  MORPH_RETURN_NOT_OK(
      OpGate(t, table, key, txn::LockMode::kExclusive, txn::Access::kWrite));
  std::shared_lock latch(table->latch_for(key));
  MORPH_RETURN_NOT_OK(Recheck(t, table, key, txn::Access::kWrite));
  auto existing = table->Get(key);
  if (!existing.ok()) return existing.status();

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kDelete;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  rec.table_id = table->id();
  rec.key = key;
  rec.before = existing->row;
  const Lsn lsn = wal_.Append(std::move(rec));
  t->set_last_lsn(lsn);
  MORPH_FAILPOINT("engine.delete.after_log");

  return table->Delete(key);
}

Status Database::Update(const TxnPtr& t, storage::Table* table, const Row& key,
                        const std::vector<ColumnUpdate>& updates) {
  MORPH_RETURN_NOT_OK(
      OpGate(t, table, key, txn::LockMode::kExclusive, txn::Access::kWrite));
  std::shared_lock latch(table->latch_for(key));
  MORPH_RETURN_NOT_OK(Recheck(t, table, key, txn::Access::kWrite));
  auto existing = table->Get(key);
  if (!existing.ok()) return existing.status();

  Row new_row = existing->row;
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kUpdate;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  rec.table_id = table->id();
  rec.key = key;
  for (const ColumnUpdate& u : updates) {
    if (u.column >= new_row.size()) {
      return Status::InvalidArgument("column index out of range");
    }
    rec.updated_columns.push_back(static_cast<uint32_t>(u.column));
    rec.before_values.push_back(new_row[u.column]);
    rec.after_values.push_back(u.value);
    new_row[u.column] = u.value;
  }
  MORPH_RETURN_NOT_OK(table->schema().ValidateRow(new_row));
  if (table->schema().KeyOf(new_row) != key) {
    return Status::InvalidArgument(
        "Update may not change the primary key; use Delete+Insert");
  }
  const Lsn lsn = wal_.Append(std::move(rec));
  t->set_last_lsn(lsn);
  MORPH_FAILPOINT("engine.update.after_log");

  storage::Record record;
  record.row = std::move(new_row);
  record.lsn = lsn;
  return table->Update(key, std::move(record));
}

Result<Row> Database::Read(const TxnPtr& t, storage::Table* table,
                           const Row& key) {
  MORPH_RETURN_NOT_OK(
      OpGate(t, table, key, txn::LockMode::kShared, txn::Access::kRead));
  std::shared_lock latch(table->latch_for(key));
  MORPH_RETURN_NOT_OK(Recheck(t, table, key, txn::Access::kRead));
  auto record = table->Get(key);
  if (!record.ok()) return record.status();
  return record->row;
}

Status Database::BulkLoad(storage::Table* table, const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    MORPH_RETURN_NOT_OK(table->schema().ValidateRow(row));
    wal::LogRecord rec;
    rec.type = wal::LogRecordType::kInsert;
    rec.txn_id = kInvalidTxnId;
    rec.table_id = table->id();
    rec.key = table->schema().KeyOf(row);
    rec.after = row;
    const Lsn lsn = wal_.Append(std::move(rec));

    storage::Record record;
    record.row = row;
    record.lsn = lsn;
    MORPH_RETURN_NOT_OK(table->Insert(std::move(record)));
  }
  return Status::OK();
}

Status Database::SetTransformHook(TransformHook* hook) {
  TransformHook* expected = nullptr;
  if (!hook_.compare_exchange_strong(expected, hook,
                                     std::memory_order_acq_rel)) {
    return Status::AlreadyExists("another transformation is already active");
  }
  return Status::OK();
}

void Database::ClearTransformHook() {
  hook_.store(nullptr, std::memory_order_release);
}

}  // namespace morph::engine
