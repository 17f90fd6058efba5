#pragma once

#include <functional>
#include <unordered_map>

#include "common/result.h"
#include "storage/catalog.h"
#include "wal/wal.h"

namespace morph::engine {

/// \brief ARIES-lite restart recovery.
///
/// The paper assumes an ARIES-style recovery substrate ("redo and undo log
/// records are produced, and undo operations produce Compensating Log
/// Records", §1) — this module provides it so the engine is a credible host
/// for the transformation framework.
///
/// The engine is main-memory, so restart means: recreate the table schemas
/// (caller's job — DDL is not logged, exactly like the paper's prototype),
/// then rebuild table contents from the log. There is one recovery pass,
/// Recover(), and both entry points run it: Restart from the log's first
/// record over empty tables with an empty active-transaction table (ATT);
/// Checkpointer::Restore from a checkpoint's redo start over the snapshot
/// contents with the ATT its meta file recorded.
///
///  1. **Analysis + redo** in one forward pass: every data record (INSERT /
///     DELETE / UPDATE / CLR) goes through Apply in redo mode, which skips
///     what the stored state already reflects; the ATT is maintained on the
///     side (BEGIN / ABORT / data records add, COMMIT / TXN_END remove).
///  2. **Undo**: every loser transaction's chain is walked backwards from
///     its last LSN by Undo — the same walk a user Abort runs; data
///     operations are compensated, each writing a CLR to the log;
///     already-compensated suffixes are skipped via undo_next_lsn. Each
///     loser ends with a TXN_END record.
///
/// Re-running recovery on the extended log is idempotent: the second pass
/// finds no losers.
class Recovery {
 public:
  /// What one recovery pass did.
  struct Stats {
    size_t snapshot_records = 0;  ///< loaded from checkpoint snapshots
    size_t records_scanned = 0;
    size_t redone = 0;
    /// Data records redo left alone: the stored state already reflected
    /// them (see Apply).
    size_t skipped_by_lsn = 0;
    size_t losers = 0;
    size_t undone = 0;  ///< CLRs written during the undo pass
  };

  /// Active-transaction table: loser candidate -> its undo-chain head.
  using Att = std::unordered_map<TxnId, Lsn>;

  /// \brief Rebuilds the contents of the tables in `catalog` from `wal`:
  /// Recover from FirstLsn() with an empty ATT.
  ///
  /// Tables must exist (matching the TableIds in the log — recreate them in
  /// the original creation order) and be empty. Records whose table id is
  /// unknown are skipped (dropped tables).
  static Result<Stats> Restart(wal::Wal* wal, storage::Catalog* catalog);

  /// \brief Restart against a segmented on-disk WAL: opens the chain rooted
  /// at `options.dir` into `wal` (a fresh, in-memory Wal — the replayed
  /// records become its contents), runs Restart, then makes the CLRs and
  /// TXN_END records written by the undo pass durable before returning, so
  /// a crash right after recovery cannot resurrect half-undone losers.
  static Result<Stats> RestartDurable(wal::Wal* wal,
                                      const wal::WalOptions& options,
                                      storage::Catalog* catalog);

  /// \brief The one analysis + redo + undo pass: scans `wal` from `from` to
  /// its end (a gap is Corruption, never skipped), redoing data records and
  /// tracking the ATT seeded with `att`, then undoes every loser.
  static Result<Stats> Recover(wal::Wal* wal, storage::Catalog* catalog,
                               Lsn from, Att att);

  /// How Apply treats a record.
  enum class Mode {
    /// Skip when the stored state already reflects the record: the stored
    /// LSN is at or above the record's, an INSERT's key is already stored,
    /// or a DELETE's / UPDATE's key is absent. Otherwise apply.
    kRedo,
    /// Always apply; any storage error is returned.
    kUndo,
  };

  /// \brief The one rule that applies a data record (INSERT / DELETE /
  /// UPDATE) or a CLR to `table`, stamping the touched record with the log
  /// record's LSN. Returns whether the table changed.
  static Result<bool> Apply(const wal::LogRecord& rec, storage::Table* table,
                            Mode mode);

  /// \brief The one undo-chain walk, shared by Database::Abort and the
  /// restart undo pass: walks `txn`'s chain backwards from `from` (its last
  /// LSN: an ABORT, a data record or a CLR) to its BEGIN, skipping
  /// already-compensated suffixes via CLRs' undo_next_lsn. Each data
  /// operation gets a CLR appended (its prev_lsn the chain head so far,
  /// initially `from`), reported to `on_clr`, and applied in undo mode
  /// under the key's tablet latch held shared. The CLR is written even
  /// when the table is gone, so the chain stays well-formed. With
  /// `restart` set, failpoint `engine.recovery.undo_record` fires before
  /// each compensation. Returns the number of operations compensated.
  static Result<size_t> Undo(wal::Wal* wal, storage::Catalog* catalog,
                             TxnId txn, Lsn from, bool restart,
                             const std::function<void(Lsn clr_lsn)>& on_clr);
};

}  // namespace morph::engine
