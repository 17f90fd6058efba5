#include "engine/checkpoint.h"

#include <algorithm>

#include "common/codec.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/snapshot.h"

namespace morph::engine {

namespace {

constexpr uint32_t kMetaMagic = 0x4d434b50;  // "MCKP"

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint";
}

/// Decodes the meta part at the head of a checkpoint file; `r` is left at
/// the first table snapshot.
Result<CheckpointMeta> DecodeMeta(codec::Reader* r) {
  if (r->GetU32() != kMetaMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  CheckpointMeta meta;
  meta.guard_lsn = r->GetU64();
  meta.min_active_lsn = r->GetU64();
  const uint32_t n_txns = r->GetU32();
  for (uint32_t i = 0; i < n_txns && !r->failed; ++i) {
    meta.active_txns.push_back(r->GetU64());
    meta.active_last_lsns.push_back(r->GetU64());
  }
  const uint32_t n_tables = r->GetU32();
  for (uint32_t i = 0; i < n_tables && !r->failed; ++i) {
    meta.tables.push_back(r->GetString());
  }
  if (r->failed) return Status::Corruption("truncated checkpoint meta");
  return meta;
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

  std::vector<std::shared_ptr<storage::Table>> tables;
  std::vector<std::string> names = db->catalog()->TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    auto table = db->catalog()->GetByName(name);
    if (table == nullptr) continue;
    meta.tables.push_back(name);
    tables.push_back(std::move(table));
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
  for (const auto& table : tables) storage::TableSnapshot::Encode(*table, &buf);

  // One file, replaced atomically and durably: until the rename the
  // previous checkpoint is untouched, and two fsyncs make the new one
  // durable however many tables it holds.
  MORPH_RETURN_NOT_OK(IoEnv::Default().WriteFileAtomic(
      CheckpointPath(dir), buf, storage::TableSnapshot::kFileSites));
  // a = guard LSN, b = tables snapshotted.
  MORPH_TRACE("engine.checkpoint.write", static_cast<int64_t>(meta.guard_lsn),
              static_cast<int64_t>(meta.tables.size()));
  return meta;
}

Result<CheckpointMeta> Checkpointer::ReadMeta(const std::string& dir) {
  MORPH_ASSIGN_OR_RETURN(
      const std::string buf,
      IoEnv::Default().ReadFile(CheckpointPath(dir),
                                storage::TableSnapshot::kReadSite));
  codec::Reader r{buf, 0, false};
  return DecodeMeta(&r);
}

Result<Recovery::Stats> Checkpointer::Restore(const std::string& dir,
                                              wal::Wal* wal,
                                              storage::Catalog* catalog) {
  MORPH_FAILPOINT("engine.checkpoint.restore");
  MORPH_COUNTER_INC("engine.checkpoint.restores");
  const std::string path = CheckpointPath(dir);
  MORPH_ASSIGN_OR_RETURN(
      const std::string buf,
      IoEnv::Default().ReadFile(path, storage::TableSnapshot::kReadSite));
  codec::Reader r{buf, 0, false};
  MORPH_ASSIGN_OR_RETURN(CheckpointMeta meta, DecodeMeta(&r));
  size_t snapshot_records = 0;
  for (const std::string& name : meta.tables) {
    auto table = catalog->GetByName(name);
    if (table == nullptr) {
      return Status::InvalidArgument("table " + name +
                                     " not recreated before Restore");
    }
    MORPH_RETURN_NOT_OK(storage::TableSnapshot::Decode(
        table.get(), &r, path + " (table " + name + ")"));
    snapshot_records += table->size();
  }
  if (r.pos != buf.size()) {
    return Status::Corruption("trailing bytes in checkpoint " + path);
  }
  // The ATT is seeded from the checkpoint: losers may have written nothing
  // since.
  Recovery::Att att;
  for (size_t i = 0; i < meta.active_txns.size(); ++i) {
    att[meta.active_txns[i]] = meta.active_last_lsns[i];
  }
  MORPH_ASSIGN_OR_RETURN(
      Recovery::Stats stats,
      Recovery::Recover(wal, catalog, meta.redo_start_lsn(), std::move(att)));
  stats.snapshot_records = snapshot_records;
  return stats;
}

}  // namespace morph::engine
