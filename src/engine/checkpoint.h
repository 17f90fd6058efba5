#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "engine/recovery.h"

namespace morph::engine {

/// \brief Fuzzy checkpoints: bound both restart-recovery work and WAL
/// retention without ever blocking user transactions.
///
/// A checkpoint captures, in order:
///
///  1. `guard_lsn`   — the WAL position *before* any table is scanned;
///  2. the active-transaction table and its oldest BEGIN LSN (losers at a
///     crash may need undo records from before the checkpoint);
///  3. a fuzzy snapshot of every table (no locks; writers keep running).
///
/// Restart from a checkpoint loads the snapshots, then runs the one
/// recovery pass (Recovery::Recover) from `redo_start_lsn()` with the
/// active-transaction table the checkpoint recorded. Its redo skips a
/// record the snapshot already reflects (stored LSN at or above the log
/// record's: the scan ran concurrently with writers) — the same
/// state-identifier discipline the paper's fuzzy copy uses (§2.2). Undo of
/// losers then proceeds exactly as in plain Restart; Restart is this
/// restore with no checkpoint.
///
/// A checkpoint is one file, `dir`/checkpoint: the meta below followed by
/// every table's snapshot. Write replaces it atomically and durably (temp,
/// fsync, rename, directory fsync; failpoint sites
/// `engine.checkpoint.file.{write,fsync,rename}` and
/// `engine.checkpoint.dirsync`), so Write returns only once the checkpoint
/// is durable, and a failed or torn Write leaves the previous checkpoint
/// whole. One file costs two fsyncs however many tables it holds.
///
/// The WAL may be truncated up to `truncate_floor()` once Write returned:
/// everything older is covered by the snapshots and is not needed by any
/// loser's undo chain.
struct CheckpointMeta {
  Lsn guard_lsn = kInvalidLsn;
  Lsn min_active_lsn = kInvalidLsn;  ///< oldest BEGIN among active txns
  std::vector<TxnId> active_txns;
  /// Undo-chain heads at checkpoint time, parallel to active_txns.
  std::vector<Lsn> active_last_lsns;
  std::vector<std::string> tables;  ///< snapshot order = catalog names

  /// First LSN the restart's redo pass must read.
  Lsn redo_start_lsn() const {
    if (min_active_lsn != kInvalidLsn && min_active_lsn <= guard_lsn) {
      return min_active_lsn;
    }
    return guard_lsn + 1;
  }
  /// Records below this can be dropped from the WAL.
  Lsn truncate_floor() const { return redo_start_lsn(); }
};

class Checkpointer {
 public:
  /// \brief Writes a fuzzy checkpoint of every table in `db` into `dir`
  /// (created by the caller). Safe to run concurrently with user transactions and
  /// with a running transformation (transformed tables are snapshotted like
  /// any other; an in-flight transformation is simply not part of the
  /// checkpoint contract and restarts as aborted, like plain recovery).
  static Result<CheckpointMeta> Write(Database* db, const std::string& dir);

  /// \brief Reads the meta of the checkpoint in `dir`.
  static Result<CheckpointMeta> ReadMeta(const std::string& dir);

  /// \brief Restores table contents from the checkpoint in `dir` and the
  /// log suffix in `wal`: load snapshots, then Recovery::Recover from
  /// redo_start_lsn with the checkpoint's ATT. Tables must exist (schemas
  /// recreated by the caller, names matching the checkpointed ones) and be
  /// empty.
  static Result<Recovery::Stats> Restore(const std::string& dir, wal::Wal* wal,
                                         storage::Catalog* catalog);
};

}  // namespace morph::engine
