#include "engine/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <unordered_map>

#include "common/codec.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/recovery.h"
#include "storage/snapshot.h"

namespace morph::engine {

namespace {

constexpr uint32_t kMetaMagic = 0x4d434b50;  // "MCKP"

std::string MetaPath(const std::string& dir) { return dir + "/checkpoint.meta"; }
std::string SnapshotPath(const std::string& dir, const std::string& table) {
  return dir + "/" + table + ".snapshot";
}

/// LSN-gated redo of one data record against a snapshot-restored table:
/// a record whose stored LSN is at or above the log record's already
/// reflects the operation (the snapshot scan ran concurrently with the
/// writers) and is left alone.
Status GatedRedo(const wal::LogRecord& rec, storage::Table* table,
                 size_t* redone, size_t* skipped) {
  auto apply_insert = [&](const Row& row, Lsn lsn) -> Status {
    storage::Record record;
    record.row = row;
    record.lsn = lsn;
    Status st = table->Insert(std::move(record));
    if (st.IsAlreadyExists()) {
      bool changed = false;
      st = table->Mutate(rec.key, [&](storage::Record* cur) {
        if (cur->lsn >= lsn) return false;
        cur->row = row;
        cur->lsn = lsn;
        changed = true;
        return true;
      });
      (changed ? *redone : *skipped)++;
      return st;
    }
    (*redone)++;
    return st;
  };
  auto apply_delete = [&](Lsn lsn) -> Status {
    auto cur = table->Get(rec.key);
    if (!cur.ok() || cur->lsn >= lsn) {
      (*skipped)++;
      return Status::OK();
    }
    (*redone)++;
    const Status st = table->Delete(rec.key);
    return st.IsNotFound() ? Status::OK() : st;
  };
  auto apply_update = [&](const std::vector<uint32_t>& cols,
                          const std::vector<Value>& values, Lsn lsn) -> Status {
    bool changed = false;
    const Status st = table->Mutate(rec.key, [&](storage::Record* cur) {
      if (cur->lsn >= lsn) return false;
      for (size_t i = 0; i < cols.size(); ++i) cur->row[cols[i]] = values[i];
      cur->lsn = lsn;
      changed = true;
      return true;
    });
    (changed ? *redone : *skipped)++;
    return st.IsNotFound() ? Status::OK() : st;
  };

  switch (rec.type) {
    case wal::LogRecordType::kInsert:
      return apply_insert(rec.after, rec.lsn);
    case wal::LogRecordType::kDelete:
      return apply_delete(rec.lsn);
    case wal::LogRecordType::kUpdate:
      return apply_update(rec.updated_columns, rec.after_values, rec.lsn);
    case wal::LogRecordType::kClr:
      switch (rec.clr_action) {
        case wal::ClrAction::kUndoInsert:
          return apply_delete(rec.lsn);
        case wal::ClrAction::kUndoDelete:
          return apply_insert(rec.after, rec.lsn);
        case wal::ClrAction::kUndoUpdate:
          return apply_update(rec.updated_columns, rec.after_values, rec.lsn);
      }
      return Status::Corruption("bad CLR action");
    default:
      return Status::Internal("GatedRedo on non-data record");
  }
}

}  // namespace

Result<CheckpointMeta> Checkpointer::Write(Database* db,
                                           const std::string& dir) {
  MORPH_FAILPOINT("engine.checkpoint.write");
  MORPH_COUNTER_INC("engine.checkpoint.writes");
  CheckpointMeta meta;
  // Order matters: the WAL guard and the active-transaction table are
  // captured before the (fuzzy) scans, so anything the scans miss is at an
  // LSN above guard_lsn and gets replayed at restore.
  meta.guard_lsn = db->wal()->LastLsn();
  const txn::ActiveSnapshot snap = db->txns()->Snapshot();
  meta.active_txns = snap.txns;
  meta.active_last_lsns = snap.last_lsns;
  meta.min_active_lsn = snap.min_first_lsn;

  std::vector<std::string> names = db->catalog()->TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    auto table = db->catalog()->GetByName(name);
    if (table == nullptr) continue;
    MORPH_RETURN_NOT_OK(
        storage::TableSnapshot::Save(*table, SnapshotPath(dir, name)));
    meta.tables.push_back(name);
  }

  std::string buf;
  codec::PutU32(&buf, kMetaMagic);
  codec::PutU64(&buf, meta.guard_lsn);
  codec::PutU64(&buf, meta.min_active_lsn);
  codec::PutU32(&buf, static_cast<uint32_t>(meta.active_txns.size()));
  for (size_t i = 0; i < meta.active_txns.size(); ++i) {
    codec::PutU64(&buf, meta.active_txns[i]);
    codec::PutU64(&buf, meta.active_last_lsns[i]);
  }
  codec::PutU32(&buf, static_cast<uint32_t>(meta.tables.size()));
  for (const std::string& name : meta.tables) codec::PutString(&buf, name);

  // Temp + rename: a crash mid-write must leave the previous checkpoint's
  // meta (and thus the previous checkpoint) usable — the same atomicity
  // discipline as the WAL manifest rewrite.
  const std::string meta_tmp = MetaPath(dir) + ".tmp";
  {
    std::ofstream out(meta_tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + meta_tmp);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) return Status::IOError("short write to " + meta_tmp);
  }
  std::error_code rename_ec;
  std::filesystem::rename(meta_tmp, MetaPath(dir), rename_ec);
  if (rename_ec) {
    return Status::IOError("rename " + meta_tmp + ": " + rename_ec.message());
  }
  // a = guard LSN, b = tables snapshotted.
  MORPH_TRACE("engine.checkpoint.write", static_cast<int64_t>(meta.guard_lsn),
              static_cast<int64_t>(meta.tables.size()));
  return meta;
}

Result<CheckpointMeta> Checkpointer::ReadMeta(const std::string& dir) {
  std::ifstream in(MetaPath(dir), std::ios::binary);
  if (!in) return Status::IOError("cannot read " + MetaPath(dir));
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  codec::Reader r{buf, 0, false};
  if (r.GetU32() != kMetaMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  CheckpointMeta meta;
  meta.guard_lsn = r.GetU64();
  meta.min_active_lsn = r.GetU64();
  const uint32_t n_txns = r.GetU32();
  for (uint32_t i = 0; i < n_txns; ++i) {
    meta.active_txns.push_back(r.GetU64());
    meta.active_last_lsns.push_back(r.GetU64());
  }
  const uint32_t n_tables = r.GetU32();
  for (uint32_t i = 0; i < n_tables; ++i) meta.tables.push_back(r.GetString());
  if (r.failed) return Status::Corruption("truncated checkpoint meta");
  return meta;
}

Result<Checkpointer::Stats> Checkpointer::Restore(const std::string& dir,
                                                  wal::Wal* wal,
                                                  storage::Catalog* catalog) {
  MORPH_FAILPOINT("engine.checkpoint.restore");
  MORPH_COUNTER_INC("engine.checkpoint.restores");
  MORPH_ASSIGN_OR_RETURN(CheckpointMeta meta, ReadMeta(dir));
  Stats stats;

  for (const std::string& name : meta.tables) {
    auto table = catalog->GetByName(name);
    if (table == nullptr) {
      return Status::InvalidArgument("table " + name +
                                     " not recreated before Restore");
    }
    MORPH_RETURN_NOT_OK(
        storage::TableSnapshot::Load(table.get(), SnapshotPath(dir, name)));
    stats.snapshot_records += table->size();
  }

  // Analysis + gated redo over the post-checkpoint suffix. The ATT is
  // seeded from the checkpoint (losers may have written nothing since).
  std::unordered_map<TxnId, Lsn> att;
  for (size_t i = 0; i < meta.active_txns.size(); ++i) {
    att[meta.active_txns[i]] = meta.active_last_lsns[i];
  }
  Status redo_status;
  // Checked scan: if the WAL has been truncated past this checkpoint's redo
  // start (e.g. restoring from a stale checkpoint directory after a newer
  // checkpoint truncated further), redo records are gone and silently
  // skipping them would restore torn state — fail loudly instead.
  auto scanned = wal->ScanChecked(
      meta.redo_start_lsn(), wal->LastLsn(), [&](const wal::LogRecord& rec) {
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
                case wal::LogRecordType::kInsert:
                case wal::LogRecordType::kDelete:
                case wal::LogRecordType::kUpdate:
                case wal::LogRecordType::kClr: {
                  if (rec.txn_id != kInvalidTxnId) att[rec.txn_id] = rec.lsn;
                  auto table = catalog->GetById(rec.table_id);
                  if (table == nullptr) break;  // dropped table
                  const Status st = GatedRedo(rec, table.get(), &stats.redone,
                                              &stats.skipped_by_lsn);
                  if (redo_status.ok() && !st.ok() && !st.IsNotFound() &&
                      !st.IsAlreadyExists()) {
                    redo_status = st;
                  }
                  break;
                }
                default:
                  break;
              }
            });
  if (!scanned.ok()) return scanned.status();
  MORPH_RETURN_NOT_OK(redo_status);

  stats.losers = att.size();
  MORPH_ASSIGN_OR_RETURN(stats.undone, Recovery::UndoLosers(wal, catalog, att));
  return stats;
}

}  // namespace morph::engine
