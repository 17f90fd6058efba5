#include "engine/recovery.h"

#include <shared_mutex>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace morph::engine {

namespace {

/// The compensation (CLR) of data record `rec` of `txn`, chained after
/// `prev_lsn`; every CLR is made here. A CLR carries the inverse as a
/// forward action — its after-image is what Apply installs.
wal::LogRecord Compensation(const wal::LogRecord& rec, TxnId txn,
                            Lsn prev_lsn) {
  wal::LogRecord clr;
  clr.type = wal::LogRecordType::kClr;
  clr.txn_id = txn;
  clr.prev_lsn = prev_lsn;
  clr.table_id = rec.table_id;
  clr.key = rec.key;
  clr.undo_next_lsn = rec.prev_lsn;
  switch (rec.type) {
    case wal::LogRecordType::kInsert:
      clr.clr_action = wal::ClrAction::kUndoInsert;
      clr.before = rec.after;
      break;
    case wal::LogRecordType::kDelete:
      clr.clr_action = wal::ClrAction::kUndoDelete;
      clr.after = rec.before;
      break;
    default:
      clr.clr_action = wal::ClrAction::kUndoUpdate;
      clr.updated_columns = rec.updated_columns;
      // Swapped images: the CLR re-applies the before-values.
      clr.before_values = rec.after_values;
      clr.after_values = rec.before_values;
      break;
  }
  return clr;
}

}  // namespace

Result<bool> Recovery::Apply(const wal::LogRecord& rec, storage::Table* table,
                             Mode mode) {
  // Every data record and CLR is one of three physical actions.
  enum class Action { kPut, kErase, kSetColumns };
  Action action;
  switch (rec.type) {
    case wal::LogRecordType::kInsert:
      action = Action::kPut;
      break;
    case wal::LogRecordType::kDelete:
      action = Action::kErase;
      break;
    case wal::LogRecordType::kUpdate:
      action = Action::kSetColumns;
      break;
    case wal::LogRecordType::kClr:
      switch (rec.clr_action) {
        case wal::ClrAction::kUndoInsert:
          action = Action::kErase;
          break;
        case wal::ClrAction::kUndoDelete:
          action = Action::kPut;
          break;
        case wal::ClrAction::kUndoUpdate:
          action = Action::kSetColumns;
          break;
        default:
          return Status::Corruption("bad CLR action");
      }
      break;
    default:
      return Status::Internal("Apply on non-data log record");
  }
  const bool redo = mode == Mode::kRedo;
  switch (action) {
    case Action::kPut: {
      storage::Record record;
      record.row = rec.after;
      record.lsn = rec.lsn;
      const Status st = table->Insert(std::move(record));
      // A stored key already reflects this insert or a later one. The only
      // log that holds an INSERT of a key stored with a lower LSN is a
      // BulkLoad of a duplicate row, which logs before its Insert fails;
      // the stored row is the one memory kept.
      if (redo && st.IsAlreadyExists()) return false;
      MORPH_RETURN_NOT_OK(st);
      return true;
    }
    case Action::kErase: {
      if (redo) {
        auto cur = table->Get(rec.key);
        if (!cur.ok() || cur->lsn >= rec.lsn) return false;
      }
      MORPH_RETURN_NOT_OK(table->Delete(rec.key));
      return true;
    }
    case Action::kSetColumns: {
      bool changed = false;
      const Status st = table->Mutate(rec.key, [&](storage::Record* cur) {
        if (redo && cur->lsn >= rec.lsn) return false;
        for (size_t i = 0; i < rec.updated_columns.size(); ++i) {
          cur->row[rec.updated_columns[i]] = rec.after_values[i];
        }
        cur->lsn = rec.lsn;
        changed = true;
        return true;
      });
      if (redo && st.IsNotFound()) return false;
      MORPH_RETURN_NOT_OK(st);
      return changed;
    }
  }
  return Status::Internal("unreachable");
}

Result<size_t> Recovery::Undo(wal::Wal* wal, storage::Catalog* catalog,
                              TxnId txn, Lsn from, bool restart,
                              const std::function<void(Lsn)>& on_clr) {
  size_t undone = 0;
  Lsn head = from;
  Lsn lsn = from;
  while (lsn != kInvalidLsn) {
    MORPH_ASSIGN_OR_RETURN(const wal::LogRecord rec, wal->At(lsn));
    switch (rec.type) {
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kDelete:
      case wal::LogRecordType::kUpdate:
        break;
      case wal::LogRecordType::kClr:
        // Already-compensated suffix: skip to what is still to undo.
        lsn = rec.undo_next_lsn;
        continue;
      case wal::LogRecordType::kBegin:
        lsn = kInvalidLsn;
        continue;
      default:
        lsn = rec.prev_lsn;
        continue;
    }
    // Fires once per operation restart compensates: a crash here leaves a
    // partially rolled-back loser whose already-written CLRs the next
    // Restart must skip via undo_next_lsn.
    if (restart) MORPH_FAILPOINT("engine.recovery.undo_record");
    wal::LogRecord clr = Compensation(rec, txn, head);
    clr.lsn = wal->Append(clr);
    head = clr.lsn;
    on_clr(head);
    // A dropped table (e.g. an aborted transformation's target) has nothing
    // to compensate physically.
    if (auto table = catalog->GetById(rec.table_id)) {
      std::shared_lock latch(table->latch_for(rec.key));
      MORPH_RETURN_NOT_OK(Apply(clr, table.get(), Mode::kUndo).status());
    }
    undone++;
    lsn = rec.prev_lsn;
  }
  return undone;
}

Result<Recovery::Stats> Recovery::Recover(wal::Wal* wal,
                                          storage::Catalog* catalog, Lsn from,
                                          Att att) {
  MORPH_COUNTER_INC("engine.recovery.runs");
  Stats stats;
  MORPH_FAILPOINT("engine.recovery.redo_pass");
  // Pass 1: analysis + redo.
  Status redo_status;
  const auto redo = [&](const wal::LogRecord& rec) {
    stats.records_scanned++;
    switch (rec.type) {
      case wal::LogRecordType::kBegin:
      case wal::LogRecordType::kAbort:
        att[rec.txn_id] = rec.lsn;
        return;
      case wal::LogRecordType::kCommit:
      case wal::LogRecordType::kTxnEnd:
        att.erase(rec.txn_id);
        return;
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kDelete:
      case wal::LogRecordType::kUpdate:
      case wal::LogRecordType::kClr:
        break;
      default:
        return;
    }
    if (rec.txn_id != kInvalidTxnId) att[rec.txn_id] = rec.lsn;
    auto table = catalog->GetById(rec.table_id);
    if (table == nullptr) return;  // dropped table
    const Result<bool> applied = Apply(rec, table.get(), Mode::kRedo);
    if (!applied.ok()) {
      if (redo_status.ok()) redo_status = applied.status();  // keep first
    } else if (*applied) {
      stats.redone++;
    } else {
      stats.skipped_by_lsn++;
    }
  };
  // A gap at or after `from` means the log is damaged, or was truncated
  // past this pass's start (e.g. restoring a stale checkpoint after a
  // newer one truncated further): redo must not continue past it.
  MORPH_RETURN_NOT_OK(wal->ScanChecked(from, wal->LastLsn(), redo).status());
  MORPH_RETURN_NOT_OK(redo_status);

  // Pass 2: undo losers.
  MORPH_FAILPOINT("engine.recovery.undo_pass");
  stats.losers = att.size();
  for (const auto& [txn_id, last_lsn] : att) {
    Lsn head = last_lsn;
    MORPH_ASSIGN_OR_RETURN(
        const size_t undone,
        Undo(wal, catalog, txn_id, last_lsn, /*restart=*/true,
             [&](Lsn clr_lsn) { head = clr_lsn; }));
    stats.undone += undone;
    wal::LogRecord end;
    end.type = wal::LogRecordType::kTxnEnd;
    end.txn_id = txn_id;
    end.prev_lsn = head;
    wal->Append(std::move(end));
  }
  MORPH_COUNTER_ADD("engine.recovery.records_redone", stats.redone);
  MORPH_COUNTER_ADD("engine.recovery.records_undone", stats.undone);
  // a = records redone, b = loser operations undone.
  MORPH_TRACE("engine.recovery.restart", static_cast<int64_t>(stats.redone),
              static_cast<int64_t>(stats.undone));
  return stats;
}

Result<Recovery::Stats> Recovery::Restart(wal::Wal* wal,
                                          storage::Catalog* catalog) {
  return Recover(wal, catalog, wal->FirstLsn(), {});
}

Result<Recovery::Stats> Recovery::RestartDurable(wal::Wal* wal,
                                                 const wal::WalOptions& options,
                                                 storage::Catalog* catalog) {
  MORPH_RETURN_NOT_OK(wal->OpenDurable(options));
  MORPH_ASSIGN_OR_RETURN(Stats stats, Restart(wal, catalog));
  // The undo pass appended CLRs and TXN_ENDs; they must reach the segment
  // chain before the engine reopens for business, or a second crash would
  // replay the same losers against already-compensated state.
  MORPH_RETURN_NOT_OK(wal->Sync(wal->LastLsn()));
  return stats;
}

}  // namespace morph::engine
