#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "common/metrics.h"
#include "common/types.h"
#include "storage/tablet.h"
#include "txn/transaction.h"
#include "wal/log_record.h"

namespace morph::transform {

/// \brief Lifecycle of one hash-range tablet within a transformation.
///
///   kPending  — not yet populated; source-table ops on its keys are
///               *skipped* by the global propagation stream (its own
///               begin-fuzzy mark + local catch-up pass will cover them).
///   kActive   — populated and caught up; the global stream applies its
///               ops from the tablet's start LSN on.
///   kMigrated — individually synchronized: its keys switched to the
///               transformed tables at its own sync LSN / epoch. The global
///               stream keeps applying its ops, but only those *after* the
///               sync pass already applied (lsn > sync_lsn) — the
///               remaining writers are pre-switch transactions still
///               draining.
enum class TabletState : uint8_t { kPending = 0, kActive = 1, kMigrated = 2 };

/// \brief Catalog-level bookkeeping for a transformation run as a sequence
/// of hash-range tablets.
///
/// Every transformation sequences T per-tablet sub-transforms, each with its
/// own fuzzy mark, shard-scoped population, local catch-up, and its own
/// tablet-wide sync latch: user transactions on the other T-1 tablets never
/// observe a latch. T = 1 is the whole table — the paper's single fuzzy
/// scan and one latch every concurrent writer sees. This class owns the
/// geometry (which keys belong to which transform tablet) and the
/// per-tablet state machine the coordinator and the transform hook consult;
/// the coordinator owns the sequencing.
///
/// Correctness rests on the operators' SupportsStaggeredTablets() contract:
/// every propagation rule is LSN-gated per target record and decomposes by
/// source primary key, so (a) the key's tablet fully determines which ops a
/// sub-transform must see, and (b) re-applying an op prefix after a crash
/// or across the local/global stream boundary is idempotent (Theorem 1).
///
/// Thread safety: per-tablet state is all relaxed-ordered-enough atomics —
/// transitions happen on the coordinator thread; readers are the
/// propagation filter (coordinator thread) and the client
/// transform hook. A tablet's sync_lsn / switch_epoch are written before
/// its state is released to kMigrated, so any reader that observes
/// kMigrated also observes them.
class TabletTransformManager {
 public:
  /// `num_shards`: the (uniform) source-table shard count. `table_tablets`:
  /// the (uniform) source-table latch granularity (Table::num_tablets()).
  /// `transform_tablets`: the requested stagger width T; clamped to a
  /// power of two in [1, table_tablets] so every transform tablet covers a
  /// whole number of table latches.
  TabletTransformManager(size_t num_shards, size_t table_tablets,
                         size_t transform_tablets);

  size_t num_tablets() const { return space_.num_tablets(); }

  /// Transform tablet owning `key` — valid for any involved table because
  /// all tables share one shard/tablet geometry (DatabaseOptions).
  size_t TabletOf(const Row& key) const { return space_.TabletOf(key); }

  /// Source shard range [begin, end) covered by transform tablet `k`
  /// (scopes the per-tablet populate scan).
  size_t ShardBegin(size_t k) const { return space_.ShardBegin(k); }
  size_t ShardEnd(size_t k) const { return space_.ShardEnd(k); }

  TabletState state(size_t k) const {
    return static_cast<TabletState>(
        slots_[k].state.load(std::memory_order_acquire));
  }
  Lsn start_lsn(size_t k) const {
    return slots_[k].start_lsn.load(std::memory_order_acquire);
  }
  Lsn sync_lsn(size_t k) const {
    return slots_[k].sync_lsn.load(std::memory_order_acquire);
  }
  txn::TxnEpoch switch_epoch(size_t k) const {
    return slots_[k].switch_epoch.load(std::memory_order_acquire);
  }

  /// kPending → kActive: tablet `k` is populated and its local catch-up
  /// pass has converged with the global cursor; from here the global
  /// stream covers it. `start_lsn` is the tablet's begin-fuzzy floor.
  void Activate(size_t k, Lsn start_lsn);

  /// kActive → kMigrated, after the tablet's latched sync pass applied
  /// everything up to `sync_lsn` and the epoch advanced to `epoch` under
  /// the latch. `latch_nanos` (the pause so far) goes to the trace event;
  /// the coordinator records the pause in `transform.sync.latch_nanos`.
  void MarkMigrated(size_t k, Lsn sync_lsn, txn::TxnEpoch epoch,
                    int64_t latch_nanos);

  bool AnyMigrated() const {
    return migrated_count_.load(std::memory_order_acquire) > 0;
  }
  bool AllActivated() const {
    return activated_count_.load(std::memory_order_acquire) ==
           space_.num_tablets();
  }
  size_t num_migrated() const {
    return migrated_count_.load(std::memory_order_acquire);
  }

  bool IsMigratedKey(const Row& key) const {
    return state(TabletOf(key)) == TabletState::kMigrated;
  }

  /// \brief Global-stream record filter: should the shared propagation
  /// cursor apply this data record?
  ///
  ///   pending  → no (the tablet's own mark + local pass will cover it);
  ///   active   → records at or past the tablet's start LSN — earlier ones
  ///              are in its populated image, exactly as a whole-table
  ///              run's propagation starts at its start LSN (the global
  ///              cursor can trail a tablet's mark when it activates);
  ///   migrated → only records *after* its latched sync pass (the pass
  ///              already applied everything up to sync_lsn; records at or
  ///              below it reappear when the global cursor started behind
  ///              the tablet's local window, and re-application — while
  ///              idempotent — must not double-fire lock mirroring).
  bool ShouldApplyGlobal(const wal::LogRecord& rec) const {
    const TabletSlot& slot = slots_[space_.TabletOf(rec.key)];
    switch (static_cast<TabletState>(
        slot.state.load(std::memory_order_acquire))) {
      case TabletState::kPending:
        return false;
      case TabletState::kActive:
        return rec.lsn >= slot.start_lsn.load(std::memory_order_acquire);
      case TabletState::kMigrated:
        return rec.lsn > slot.sync_lsn.load(std::memory_order_acquire);
    }
    return true;
  }

  /// The above as a LogPropagator record filter.
  std::function<bool(const wal::LogRecord&)> GlobalFilter() const {
    return [this](const wal::LogRecord& rec) { return ShouldApplyGlobal(rec); };
  }

  /// Record filter for tablet `k`'s local passes (catch-up and sync):
  /// apply only its own keys' records.
  std::function<bool(const wal::LogRecord&)> LocalFilter(size_t k) const {
    return [this, k](const wal::LogRecord& rec) {
      return space_.TabletOf(rec.key) == k;
    };
  }

 private:
  struct TabletSlot {
    std::atomic<uint8_t> state{static_cast<uint8_t>(TabletState::kPending)};
    std::atomic<Lsn> start_lsn{kInvalidLsn};
    std::atomic<Lsn> sync_lsn{kInvalidLsn};
    std::atomic<txn::TxnEpoch> switch_epoch{0};
  };

  const storage::TabletSpace space_;
  std::unique_ptr<TabletSlot[]> slots_;
  std::atomic<size_t> activated_count_{0};
  std::atomic<size_t> migrated_count_{0};
};

}  // namespace morph::transform
