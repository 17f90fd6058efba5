#include "engine/recovery.h"

#include <unordered_map>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace morph::engine {

namespace {

/// Applies one data log record forward (redo).
Status RedoOne(const wal::LogRecord& rec, storage::Table* table) {
  switch (rec.type) {
    case wal::LogRecordType::kInsert: {
      storage::Record record;
      record.row = rec.after;
      record.lsn = rec.lsn;
      return table->Insert(std::move(record));
    }
    case wal::LogRecordType::kDelete:
      return table->Delete(rec.key);
    case wal::LogRecordType::kUpdate:
      return table->Mutate(rec.key, [&](storage::Record* r) {
        for (size_t i = 0; i < rec.updated_columns.size(); ++i) {
          r->row[rec.updated_columns[i]] = rec.after_values[i];
        }
        r->lsn = rec.lsn;
        return true;
      });
    case wal::LogRecordType::kClr:
      switch (rec.clr_action) {
        case wal::ClrAction::kUndoInsert:
          return table->Delete(rec.key);
        case wal::ClrAction::kUndoDelete: {
          storage::Record record;
          record.row = rec.after;
          record.lsn = rec.lsn;
          return table->Insert(std::move(record));
        }
        case wal::ClrAction::kUndoUpdate:
          return table->Mutate(rec.key, [&](storage::Record* r) {
            for (size_t i = 0; i < rec.updated_columns.size(); ++i) {
              r->row[rec.updated_columns[i]] = rec.after_values[i];
            }
            r->lsn = rec.lsn;
            return true;
          });
      }
      return Status::Corruption("bad CLR action");
    default:
      return Status::Internal("RedoOne on non-data record");
  }
}

bool IsDataRecord(wal::LogRecordType type) {
  switch (type) {
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kDelete:
    case wal::LogRecordType::kUpdate:
    case wal::LogRecordType::kClr:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<Recovery::Stats> Recovery::Restart(wal::Wal* wal,
                                          storage::Catalog* catalog) {
  Stats stats;
  MORPH_COUNTER_INC("engine.recovery.runs");
  MORPH_FAILPOINT("engine.recovery.redo_pass");
  // Pass 1: analysis + redo.
  std::unordered_map<TxnId, Lsn> att;  // loser candidates -> last LSN
  Status redo_status;
  const auto redo = [&](const wal::LogRecord& rec) {
    stats.records_scanned++;
    switch (rec.type) {
      case wal::LogRecordType::kBegin:
        att[rec.txn_id] = rec.lsn;
        break;
      case wal::LogRecordType::kCommit:
      case wal::LogRecordType::kTxnEnd:
        att.erase(rec.txn_id);
        break;
      case wal::LogRecordType::kAbort:
        att[rec.txn_id] = rec.lsn;
        break;
      default:
        break;
    }
    if (!IsDataRecord(rec.type)) return;
    if (rec.txn_id != kInvalidTxnId) att[rec.txn_id] = rec.lsn;
    auto table = catalog->GetById(rec.table_id);
    if (table == nullptr) return;  // dropped table
    const Status st = RedoOne(rec, table.get());
    if (st.ok()) {
      stats.redone++;
    } else if (!redo_status.ok()) {
      // keep first error
    } else if (!st.IsNotFound() && !st.IsAlreadyExists()) {
      redo_status = st;
    }
  };
  // [FirstLsn, LastLsn] cannot start inside a gap; a gap here means the log
  // is damaged, and redo must not continue past it.
  MORPH_RETURN_NOT_OK(
      wal->ScanChecked(wal->FirstLsn(), wal->LastLsn(), redo).status());
  MORPH_RETURN_NOT_OK(redo_status);

  // Pass 2: undo losers.
  MORPH_FAILPOINT("engine.recovery.undo_pass");
  stats.losers = att.size();
  MORPH_ASSIGN_OR_RETURN(stats.undone, UndoLosers(wal, catalog, att));
  MORPH_COUNTER_ADD("engine.recovery.records_redone", stats.redone);
  MORPH_COUNTER_ADD("engine.recovery.records_undone", stats.undone);
  // a = records redone, b = loser operations undone.
  MORPH_TRACE("engine.recovery.restart", static_cast<int64_t>(stats.redone),
              static_cast<int64_t>(stats.undone));
  return stats;
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

Result<size_t> Recovery::UndoLosers(
    wal::Wal* wal, storage::Catalog* catalog,
    const std::unordered_map<TxnId, Lsn>& losers) {
  size_t undone = 0;
  for (const auto& [txn_id, last_lsn] : losers) {
    Lsn lsn = last_lsn;
    Lsn undo_chain_head = last_lsn;
    while (lsn != kInvalidLsn) {
      auto rec = wal->At(lsn);
      if (!rec.ok()) return rec.status();
      switch (rec->type) {
        case wal::LogRecordType::kInsert:
        case wal::LogRecordType::kDelete:
        case wal::LogRecordType::kUpdate: {
          // Fires once per compensated operation: a crash here leaves a
          // partially rolled-back loser whose already-written CLRs the next
          // Restart must skip via undo_next_lsn.
          MORPH_FAILPOINT("engine.recovery.undo_record");
          wal::LogRecord clr;
          clr.type = wal::LogRecordType::kClr;
          clr.txn_id = txn_id;
          clr.prev_lsn = undo_chain_head;
          clr.table_id = rec->table_id;
          clr.key = rec->key;
          clr.undo_next_lsn = rec->prev_lsn;
          switch (rec->type) {
            case wal::LogRecordType::kInsert:
              clr.clr_action = wal::ClrAction::kUndoInsert;
              clr.before = rec->after;
              break;
            case wal::LogRecordType::kDelete:
              clr.clr_action = wal::ClrAction::kUndoDelete;
              clr.after = rec->before;
              break;
            default:
              clr.clr_action = wal::ClrAction::kUndoUpdate;
              clr.updated_columns = rec->updated_columns;
              clr.before_values = rec->after_values;
              clr.after_values = rec->before_values;
              break;
          }
          const Lsn clr_lsn = wal->Append(clr);
          undo_chain_head = clr_lsn;
          auto table = catalog->GetById(rec->table_id);
          if (table != nullptr) {
            clr.lsn = clr_lsn;
            MORPH_RETURN_NOT_OK(RedoOne(clr, table.get()));
          }
          undone++;
          lsn = rec->prev_lsn;
          break;
        }
        case wal::LogRecordType::kClr:
          lsn = rec->undo_next_lsn;
          break;
        case wal::LogRecordType::kBegin:
          lsn = kInvalidLsn;
          break;
        default:
          lsn = rec->prev_lsn;
          break;
      }
    }
    wal::LogRecord end;
    end.type = wal::LogRecordType::kTxnEnd;
    end.txn_id = txn_id;
    end.prev_lsn = undo_chain_head;
    wal->Append(std::move(end));
  }
  return undone;
}

}  // namespace morph::engine
