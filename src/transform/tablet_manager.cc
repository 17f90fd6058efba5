#include "transform/tablet_manager.h"

#include "common/trace.h"

namespace morph::transform {

namespace {

/// Transform granularity must divide the table-latch granularity so a
/// transform tablet covers whole latches. Both counts are powers of two
/// (TabletSpace clamps), so dividing is the same as not exceeding.
size_t ClampToTableTablets(size_t transform_tablets, size_t table_tablets) {
  return transform_tablets < table_tablets ? transform_tablets
                                           : table_tablets;
}

}  // namespace

TabletTransformManager::TabletTransformManager(size_t num_shards,
                                               size_t table_tablets,
                                               size_t transform_tablets)
    : space_(num_shards,
             ClampToTableTablets(transform_tablets, table_tablets)),
      slots_(new TabletSlot[space_.num_tablets()]) {
  MORPH_GAUGE_SET("transform.tablet.total",
                  static_cast<int64_t>(space_.num_tablets()));
  MORPH_GAUGE_SET("transform.tablet.active", 0);
  MORPH_GAUGE_SET("transform.tablet.migrated", 0);
}

void TabletTransformManager::Activate(size_t k, Lsn start_lsn) {
  TabletSlot& slot = slots_[k];
  slot.start_lsn.store(start_lsn, std::memory_order_relaxed);
  slot.state.store(static_cast<uint8_t>(TabletState::kActive),
                   std::memory_order_release);
  const size_t active =
      activated_count_.fetch_add(1, std::memory_order_acq_rel) + 1 -
      migrated_count_.load(std::memory_order_acquire);
  MORPH_GAUGE_SET("transform.tablet.active", static_cast<int64_t>(active));
  // a = tablet index, b = the tablet's begin-fuzzy floor LSN.
  MORPH_TRACE("transform.tablet.activate", static_cast<int64_t>(k),
              static_cast<int64_t>(start_lsn));
}

void TabletTransformManager::MarkMigrated(size_t k, Lsn sync_lsn,
                                          txn::TxnEpoch epoch,
                                          int64_t latch_nanos) {
  TabletSlot& slot = slots_[k];
  // sync_lsn / switch_epoch must be visible to anyone who observes
  // kMigrated: store them first, release the state last.
  slot.sync_lsn.store(sync_lsn, std::memory_order_relaxed);
  slot.switch_epoch.store(epoch, std::memory_order_relaxed);
  slot.state.store(static_cast<uint8_t>(TabletState::kMigrated),
                   std::memory_order_release);
  const size_t migrated =
      migrated_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
  MORPH_GAUGE_SET("transform.tablet.migrated",
                  static_cast<int64_t>(migrated));
  MORPH_GAUGE_SET(
      "transform.tablet.active",
      static_cast<int64_t>(activated_count_.load(std::memory_order_acquire) -
                           migrated));
  // a = tablet index, b = this tablet's latched pause in nanoseconds.
  MORPH_TRACE("transform.tablet.migrate", static_cast<int64_t>(k),
              latch_nanos);
}

}  // namespace morph::transform
