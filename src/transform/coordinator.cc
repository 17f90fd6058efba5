#include "transform/coordinator.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace morph::transform {

std::string_view SyncStrategyToString(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kBlockingCommit:
      return "blocking-commit";
    case SyncStrategy::kNonBlockingAbort:
      return "non-blocking-abort";
    case SyncStrategy::kNonBlockingCommit:
      return "non-blocking-commit";
  }
  return "unknown";
}

TransformCoordinator::TransformCoordinator(engine::Database* db,
                                           std::shared_ptr<OperatorRules> rules,
                                           TransformConfig config)
    : db_(db),
      rules_(std::move(rules)),
      config_(config),
      priority_(config.priority),
      tlocks_(config.target_lock_wait_micros) {
  PropagatorConfig pc;
  pc.batch_size = config_.batch_size;
  // A continuous run never switches over, so nothing consults mirrored
  // source locks: its propagator mirrors none.
  propagator_ = std::make_unique<LogPropagator>(
      db_->wal(), rules_.get(), config_.continuous ? nullptr : &tlocks_,
      &priority_, pc);

  // Tablet resolution. Everything it depends on is known here (sources
  // exist before Prepare; targets are created with the same DatabaseOptions
  // geometry), and creating the manager in the constructor means the
  // hook/housekeeping threads never race its publication. Every
  // precondition that fails picks T = 1, the whole table as one tablet —
  // see TransformConfig::tablets for the list.
  const auto sources = rules_->Sources();
  bool staggered = config_.tablets > 1 && rules_->SupportsStaggeredTablets() &&
                   config_.strategy == SyncStrategy::kNonBlockingAbort &&
                   !config_.continuous;
  for (const auto& src : sources) {
    staggered = staggered && !rules_->KeepSource(src->id()) &&
                src->num_shards() == sources[0]->num_shards() &&
                src->num_tablets() == sources[0]->num_tablets();
  }
  stagger_ = std::make_unique<TabletTransformManager>(
      sources[0]->num_shards(), sources[0]->num_tablets(),
      staggered ? config_.tablets : 1);
}

TransformCoordinator::~TransformCoordinator() {
  if (hook_registered_.load(std::memory_order_acquire)) {
    db_->ClearTransformHook();
  }
}

bool TransformCoordinator::IsSourceTable(TableId id) const {
  return source_set_.contains(id);
}

bool TransformCoordinator::IsTargetTable(TableId id) const {
  return target_set_.contains(id);
}

txn::LockOrigin TransformCoordinator::OriginOf(TableId source_table) const {
  if (!source_ids_.empty() && source_table == source_ids_[0]) {
    return txn::LockOrigin::kSource0;
  }
  return txn::LockOrigin::kSource1;
}

size_t TransformCoordinator::SourceLockHolders(txn::TxnEpoch before,
                                               size_t k) const {
  size_t holders = 0;
  for (const auto& t : db_->txns()->ActiveBefore(before)) {
    for (const txn::RecordId& rid : db_->locks()->LocksOf(t->id())) {
      if (IsSourceTable(rid.table) && stagger_->TabletOf(rid.key) == k) {
        holders++;
        break;
      }
    }
  }
  return holders;
}

Status TransformCoordinator::Interrupted(
    const Clock::TimePoint& run_start) const {
  if (abort_requested_.load(std::memory_order_acquire)) {
    return Status::Aborted("abort requested");
  }
  // The duration backstop guards a transformation that should be
  // converging; a continuous (materialized-view) run is *meant* to live
  // indefinitely, so only RequestAbort/RequestFinish end it.
  if (!config_.continuous &&
      Clock::MicrosSince(run_start) > config_.max_duration_micros) {
    return Status::Aborted("transformation exceeded max duration");
  }
  return Status::OK();
}

Lsn TransformCoordinator::AppendFuzzyMark(bool begin, int64_t populate_micros) {
  // `guard` is read before the snapshot so a transaction beginning
  // concurrently (and thus missing from the snapshot) still has all its
  // records at LSN > guard covered.
  const Lsn guard = db_->wal()->LastLsn();
  const txn::ActiveSnapshot snap = db_->txns()->Snapshot();
  wal::LogRecord mark;
  mark.type = wal::LogRecordType::kFuzzyMark;
  mark.active_txns = snap.txns;
  mark.min_active_lsn = snap.min_first_lsn;
  const Lsn mark_lsn = db_->wal()->Append(std::move(mark));
  if (begin) {
    // a = mark LSN, b = active transactions captured in it.
    MORPH_TRACE("transform.fuzzy.begin_mark", static_cast<int64_t>(mark_lsn),
                static_cast<int64_t>(snap.txns.size()));
  } else {
    MORPH_TRACE("transform.fuzzy.end_mark", static_cast<int64_t>(mark_lsn),
                populate_micros);
  }
  Lsn start = guard + 1;
  if (snap.min_first_lsn != kInvalidLsn && snap.min_first_lsn < start) {
    start = snap.min_first_lsn;
  }
  return start;
}

// --- propagation -------------------------------------------------------------

Status TransformCoordinator::PropagateTo(Lsn end, bool throttled,
                                         TransformStats* stats) {
  // Record handling lives in LogPropagator (transform/propagator.h), a
  // serial loop on this thread.
  const Lsn from = next_lsn_.load(std::memory_order_acquire);
  if (end < from) return Status::OK();
  std::function<bool()> cancel;
  if (throttled) {
    cancel = [this] {
      // The Run loop will handle the abort; a post-switch drain must keep
      // going regardless.
      return abort_requested_.load(std::memory_order_acquire) &&
             !switched_.load(std::memory_order_acquire);
    };
  }
  auto n = propagator_->PropagateRange(from, end, throttled, &next_lsn_,
                                       cancel);
  if (!n.ok()) return n.status();
  stats->log_records_processed += *n;
  return Status::OK();
}

Status TransformCoordinator::PropagateTabletPass(size_t k, Lsn from, Lsn to,
                                                 TransformStats* stats) {
  if (to < from) return Status::OK();
  propagator_->SetRecordFilter(stagger_->LocalFilter(k));
  // Local cursor: a tablet pass re-reads a window the global stream owns
  // (or will own); it must not move the shared cursor.
  std::atomic<Lsn> cursor{from};
  auto n = propagator_->PropagateRange(from, to, /*throttled=*/true, &cursor,
                                       std::function<bool()>());
  propagator_->SetRecordFilter(stagger_->GlobalFilter());
  if (!n.ok()) return n.status();
  stats->log_records_processed += *n;
  return Status::OK();
}

void TransformCoordinator::FillPropagationStats(TransformStats* stats) const {
  // Pure snapshot of the propagator's atomic instruments — safe on every
  // Run() exit path including abort.
  stats->ops_propagated = propagator_->ops_applied();
  if (stats->propagate_micros > 0) {
    stats->propagate_records_per_sec =
        static_cast<double>(stats->log_records_processed) /
        (static_cast<double>(stats->propagate_micros) * 1e-6);
  }
  stats->achieved_duty = priority_.totals().achieved();
}

// --- the four steps ------------------------------------------------------------

Result<TransformStats> TransformCoordinator::Run() {
  TransformStats stats;
  const auto run_start = Clock::Now();
  MORPH_COUNTER_INC("transform.runs_started");

  // Pin the WAL before anything else: log-archiving housekeeping (a
  // checkpointer's TruncateBefore, a bench janitor) runs concurrently and
  // knows nothing about this transformation. Until the fuzzy mark fixes the
  // propagation start the pin conservatively holds the whole retained log;
  // it then tracks start_lsn and finally the live propagation watermark.
  // Without the pin, a checkpoint whose truncate_floor lies past
  // un-propagated records would discard them before the propagator reads
  // them — the propagator's checked scans would fail the transformation
  // loudly, but the pin is what prevents the loss in the first place. In
  // durable mode the same pin gates segment recycling: TruncateBefore
  // clamps at this floor before persisting a new chain base, so no segment
  // holding un-propagated records is ever recycled.
  retention_floor_.store(db_->wal()->FirstLsn(), std::memory_order_release);
  const uint64_t pin_id = db_->wal()->AddRetentionPin([this]() -> Lsn {
    const Lsn watermark = propagated_lsn();
    if (watermark != kInvalidLsn) return watermark;
    return retention_floor_.load(std::memory_order_acquire);
  });
  struct PinGuard {
    wal::Wal* wal;
    uint64_t id;
    ~PinGuard() { wal->RemoveRetentionPin(id); }
  } pin_guard{db_->wal(), pin_id};

  // Steps 2–4 run as one per-tablet sequence; the whole table is the T = 1
  // run.
  stats.tablets = stagger_->num_tablets();
  stats.tablet_latch_nanos.assign(stats.tablets, 0);
  Status st = Prepare(&stats);
  if (st.ok()) st = PopulateTablets(run_start, &stats);
  if (st.ok()) {
    const auto t0 = Clock::Now();
    st = PropagateUntilSync(run_start, &stats);
    stats.propagate_micros = Clock::MicrosSince(t0);
  }
  if (st.ok()) {
    const auto t0 = Clock::Now();
    st = Synchronize(run_start, &stats);
    stats.sync_micros = Clock::MicrosSince(t0);
  }
  // Continuous (materialized-view) mode ends at its final latched pass:
  // the view and the sources both stay in place.
  if (!st.ok() || config_.continuous) return Finish(run_start, st, &stats);

  // Post-switch drain: finish propagating old transactions' records so
  // their mirrored locks get released, then drop the sources.
  const auto drain_start = Clock::Now();
  st = Drain(&stats);
  stats.drain_micros = Clock::MicrosSince(drain_start);
  if (!st.ok()) {
    return Finish(run_start, Status::Aborted("drain failed: " + st.ToString()),
                  &stats);
  }
  MORPH_FAILPOINT("transform.finalize.before_drop");
  st = rules_->FinalizeTargets();
  if (!st.ok()) {
    stats.abort_reason = "warning: finalization failed: " + st.ToString();
  }
  if (config_.drop_sources) {
    for (const auto& src : rules_->Sources()) {
      if (rules_->KeepSource(src->id())) continue;
      st = db_->DropTable(src->name());
      if (!st.ok() && !st.IsNotFound()) {
        // Non-fatal: the transformation itself is complete.
        stats.abort_reason = "warning: dropping source failed: " + st.ToString();
      }
    }
  }
  return Finish(run_start, Status::OK(), &stats);
}

Status TransformCoordinator::Prepare(TransformStats* stats) {
  // Step 1: preparation (§3.1).
  MORPH_FAILPOINT("transform.prepare.before");
  phase_.store(Phase::kPreparing, std::memory_order_release);
  const auto t0 = Clock::Now();
  Status st = rules_->Prepare();
  stats->prepare_micros = Clock::MicrosSince(t0);
  if (!st.ok()) return Status::Aborted("prepare failed: " + st.ToString());
  for (const auto& t : rules_->Sources()) source_ids_.push_back(t->id());
  for (const auto& t : rules_->Targets()) target_ids_.push_back(t->id());
  source_set_ = TableIdSet(source_ids_);
  target_set_ = TableIdSet(target_ids_);
  propagator_->SetSources(source_ids_);
  // Targets exist in the catalog from here on; a crash leaves them half-built
  // but unlogged, so restart recovery makes them vanish with the incarnation.
  MORPH_FAILPOINT("transform.prepare.after");

  if (config_.strategy == SyncStrategy::kNonBlockingCommit) {
    for (TableId id : source_ids_) {
      if (rules_->KeepSource(id)) {
        return Status::Aborted(
            "non-blocking commit is not supported with source-reusing "
            "transformations (old and new transactions would need "
            "distinguishable lock origins on the same table)");
      }
    }
  }
  st = db_->SetTransformHook(this);
  if (!st.ok()) {
    return Status::Aborted("hook registration failed: " + st.ToString());
  }
  hook_registered_.store(true, std::memory_order_release);
  return Status::OK();
}

Status TransformCoordinator::PopulateTablets(const Clock::TimePoint& run_start,
                                             TransformStats* stats) {
  // Step 2 (§3.2), one tablet at a time: begin-fuzzy mark, populate, end
  // mark, local catch-up to the global cursor, activate, then a bounded
  // global slice so later catch-up windows stay small.
  const size_t T = stagger_->num_tablets();
  if (T > 1) {
    // With one tablet there is nothing to skip: it is active before the
    // global cursor first moves.
    propagator_->SetRecordFilter(stagger_->GlobalFilter());
  }
  rules_->set_throttle(&priority_);
  for (size_t k = 0; k < T; ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    MORPH_RETURN_NOT_OK(Interrupted(run_start));
    // The mark carries the active-transaction table; the tablet's
    // propagation starts at the oldest log record any of those
    // transactions wrote.
    const Lsn start_k = AppendFuzzyMark(/*begin=*/true, 0);
    if (k == 0) {
      // The propagation start is fixed now. Later tablets' floors can only
      // be higher (min-active and the log tail both advance), so the first
      // floor covers every local catch-up window (see propagated_lsn()).
      retention_floor_.store(start_k, std::memory_order_release);
    }
    MORPH_FAILPOINT("transform.fuzzy.begin");
    phase_.store(Phase::kPopulating, std::memory_order_release);
    PopulateConfig populate_config = rules_->populate_config();
    if (T > 1) {
      populate_config.shard_begin = stagger_->ShardBegin(k);
      populate_config.shard_end = stagger_->ShardEnd(k);
    }
    rules_->set_populate_config(populate_config);
    const auto t0 = Clock::Now();
    const Status populated = rules_->InitialPopulate();
    stats->populate_micros += Clock::MicrosSince(t0);
    if (!populated.ok()) {
      return Status::Aborted("initial population failed: " +
                             populated.ToString());
    }
    MORPH_FAILPOINT("transform.fuzzy.end");
    // End-of-fuzzy-read mark, beginning the tablet's first propagation
    // cycle (§3.3).
    AppendFuzzyMark(/*begin=*/false, stats->populate_micros);

    if (k == 0) {
      // The global cursor starts at the first tablet's floor — there is
      // nothing behind it to catch up on.
      next_lsn_ = start_k;
    } else {
      // Local catch-up: the global stream already passed over [start_k, G)
      // with this tablet pending (its records were skipped); re-read the
      // window applying only tablet k. Completion records are processed —
      // releasing a transaction the global stream already released is a
      // no-op, and one whose ops this pass just mirrored must be released
      // if its completion falls inside the window.
      const Lsn g = next_lsn_.load(std::memory_order_acquire);
      if (Status st = PropagateTabletPass(k, start_k, g - 1, stats); !st.ok()) {
        return Status::Aborted("tablet catch-up failed: " + st.ToString());
      }
    }
    stagger_->Activate(k, start_k);

    if (k + 1 < T) {
      // Bounded global slice between tablets: keep the shared cursor near
      // the log tail so the next tablet's catch-up window stays small.
      const Lsn end = std::min(db_->wal()->LastLsn(),
                               next_lsn_.load() + config_.batch_size * 16 - 1);
      if (Status st = PropagateTo(end, /*throttled=*/true, stats); !st.ok()) {
        return Status::Aborted("propagation failed: " + st.ToString());
      }
    }
  }
  return Status::OK();
}

Status TransformCoordinator::PropagateUntilSync(
    const Clock::TimePoint& run_start, TransformStats* stats) {
  // Step 3: log propagation iterations (§3.3).
  phase_.store(Phase::kPropagating, std::memory_order_release);
  size_t lag_count = 0;
  size_t last_backlog = std::numeric_limits<size_t>::max();
  while (true) {
    MORPH_FAILPOINT("transform.propagate.iteration");
    MORPH_RETURN_NOT_OK(Interrupted(run_start));
    if (paused_.load(std::memory_order_acquire)) {
      // Suspended by the DBA: no work, no lag analysis, stay responsive to
      // abort requests.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lag_count = 0;
      last_backlog = std::numeric_limits<size_t>::max();
      continue;
    }
    // Cap the slice so the end-of-iteration analysis below runs regularly
    // even when a fast writer keeps extending the log. At a low duty cycle
    // the same record count takes proportionally longer wall-time, so the
    // cap scales with the priority — otherwise a 0.1%-duty iteration could
    // run for many seconds and the lag detector would react far too late.
    size_t iteration_cap = config_.max_records_per_iteration
                               ? config_.max_records_per_iteration
                               : config_.batch_size * 16;
    iteration_cap = std::max(
        config_.batch_size,
        static_cast<size_t>(static_cast<double>(iteration_cap) *
                            priority_.priority()));
    const Lsn end = std::min(db_->wal()->LastLsn(),
                             next_lsn_.load() + iteration_cap - 1);
    if (Status st = PropagateTo(end, /*throttled=*/true, stats); !st.ok()) {
      return Status::Aborted("propagation failed: " + st.ToString());
    }
    stats->iterations++;
    MORPH_COUNTER_INC("transform.propagate.iterations");

    // The check appends its own CC brackets. An iteration that found the
    // log drained before the check is idle even though those brackets make
    // the backlog nonzero: otherwise a §5.3 split waiting for a repair
    // would rescan and re-bracket its U buckets without pause.
    const bool drained = db_->wal()->LastLsn() < next_lsn_.load();
    auto cc = rules_->RunConsistencyCheck(config_.cc_batch);
    if (!cc.ok()) {
      return Status::Aborted("consistency check failed: " +
                             cc.status().ToString());
    }

    const Lsn tail = db_->wal()->LastLsn();
    const size_t backlog = tail >= next_lsn_ ? tail - next_lsn_ + 1 : 0;
    MORPH_GAUGE_SET("transform.backlog", static_cast<int64_t>(backlog));
    MORPH_GAUGE_SET("transform.priority.requested_ppm",
                    static_cast<int64_t>(priority_.priority() * 1e6));
    MORPH_GAUGE_SET(
        "transform.priority.achieved_ppm",
        static_cast<int64_t>(priority_.totals().achieved() * 1e6));
    const bool ready = rules_->ReadyForSync();
    if (config_.continuous) {
      // Materialized-view mode: maintain forever; only RequestFinish (or
      // abort/lag above) leaves the loop.
      if (finish_requested_.load(std::memory_order_acquire)) break;
    } else if (backlog <= config_.sync_threshold && ready &&
               !sync_hold_.load(std::memory_order_acquire)) {
      break;
    }

    // §3.3: if more log is produced than the propagator processes,
    // synchronization never starts — abort or raise the priority.
    if (backlog > config_.sync_threshold && backlog >= last_backlog) {
      lag_count++;
    } else {
      lag_count = 0;
    }
    last_backlog = backlog;
    if (lag_count >= config_.lag_iterations) {
      if (config_.on_lag == OnLag::kBoostPriority &&
          priority_.priority() < 1.0) {
        priority_.set_priority(priority_.priority() * 2.0);
        lag_count = 0;
      } else {
        return Status::Aborted("propagator cannot keep up with log generation");
      }
    }
    if (drained) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  return Status::OK();
}

Status TransformCoordinator::Synchronize(const Clock::TimePoint& run_start,
                                         TransformStats* stats) {
  // Step 4 (§3.4): one latched pass per tablet, in tablet order. Writers on
  // the other T-1 tablets never see a latch; the per-key pause is one
  // tablet's window instead of the whole catch-up.
  phase_.store(Phase::kSynchronizing, std::memory_order_release);
  MORPH_FAILPOINT("transform.sync.before_latch");
  const size_t T = stagger_->num_tablets();
  std::vector<std::shared_ptr<storage::Table>> sources = rules_->Sources();
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  // With T > 1, converge to the log tail before each latch — all the way,
  // not merely to the sync threshold. Every record applied here (no latch
  // held) is one no latched pass will have to scan, so each tablet's
  // user-visible pause is O(records landed since the previous tablet), not
  // O(standing backlog). Pass count bounded so a firehose writer cannot
  // livelock the switch: past the bound, the latches absorb whatever tail
  // remains — correct, just longer pauses. A single tablet takes its one
  // latch with the backlog still standing, as the paper's sync step does.
  auto converge_unlatched = [&](size_t max_passes, size_t floor) -> Status {
    for (size_t pass = 0; T > 1 && pass < max_passes; ++pass) {
      const Lsn from = next_lsn_.load(std::memory_order_acquire);
      const Lsn tail = db_->wal()->LastLsn();
      if (tail < from || tail - from + 1 <= floor) break;
      if (Status st = PropagateTo(tail, /*throttled=*/false, stats);
          !st.ok()) {
        return Status::Aborted("pre-sync convergence failed: " +
                               st.ToString());
      }
      if (Clock::MicrosSince(run_start) > config_.max_duration_micros) {
        return Status::Aborted("transformation exceeded max duration");
      }
    }
    return Status::OK();
  };
  MORPH_RETURN_NOT_OK(converge_unlatched(64, config_.batch_size));
  for (size_t k = 0; k < T; ++k) {
    MORPH_FAILPOINT("transform.tablet.boundary");
    if (abort_requested_.load(std::memory_order_acquire) &&
        !stagger_->AnyMigrated()) {
      return Status::Aborted("abort requested");
    }
    // Light re-converge: the cursor is already near the tail, only the
    // records landed since the previous tablet's latch are behind it. The
    // tighter floor shrinks the window the latched pass has to replay —
    // and with it the chance of that pass conflicting with a live writer
    // while holding the latch.
    MORPH_RETURN_NOT_OK(converge_unlatched(8, config_.batch_size / 8));
    if (Status st = LatchedPass(k, sources, stats); !st.ok()) {
      return Status::Aborted("synchronization failed: " + st.ToString());
    }
  }
  MORPH_COUNTER_ADD("transform.txns_doomed", stats->txns_doomed);
  // After the epoch flip and (for blocking commit) the gate release: the
  // switch is visible to clients but the drain has not started.
  MORPH_FAILPOINT("transform.sync.after_switch");
  return Status::OK();
}

Status TransformCoordinator::LatchedPass(
    size_t k, const std::vector<std::shared_ptr<storage::Table>>& sources,
    TransformStats* stats) {
  const size_t T = stagger_->num_tablets();
  if (config_.strategy == SyncStrategy::kBlockingCommit) {
    // Blocking commit: gate new transactions off the involved tables and
    // wait for transactions holding source-table locks to finish, still
    // propagating so the latched pass stays short.
    {
      std::unique_lock lock(gate_mu_);
      gate_on_ = true;
      gate_epoch_ = db_->AdvanceEpoch();
    }
    const auto wait_start = Clock::Now();
    while (true) {
      MORPH_FAILPOINT("transform.sync.gate_wait");
      MORPH_RETURN_NOT_OK(
          PropagateTo(db_->wal()->LastLsn(), /*throttled=*/false, stats));
      if (SourceLockHolders(gate_epoch_, k) == 0) break;
      if (Clock::MicrosSince(wait_start) > config_.max_duration_micros) {
        return Status::Aborted("old transactions did not release source locks");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Latch tablet k of every source exclusively (id order, then latch-index
  // order), propagate to the log end, and switch. The latch hold time is the
  // user-visible pause the paper reports as < 1 ms.
  const auto latch_start = Clock::Now();
  int64_t latch_nanos = 0;
  {
    std::vector<std::unique_lock<std::shared_mutex>> latches;
    for (const auto& src : sources) {
      const size_t per_tablet = src->num_tablets() / T;
      for (size_t t = k * per_tablet; t < (k + 1) * per_tablet; ++t) {
        latches.emplace_back(src->tablet_latch(t));
      }
    }
    // a = tables latched, b = tablet index (acquire) / nanos (release).
    MORPH_TRACE("transform.sync.latch_acquire",
                static_cast<int64_t>(sources.size()), static_cast<int64_t>(k));
    // Latches are RAII: a crash thrown here releases them on unwind, which
    // is exactly the guarantee a real process kill gives (latches are not
    // durable state).
    MORPH_FAILPOINT("transform.tablet.sync");
    // A *global* pass with completions on: every tablet is active by now,
    // so the stream has nothing to skip, and processing completions in
    // order is what keeps this pass from blocking on a stale mirrored lock
    // (a later record conflicting with the mirror of an earlier-committed
    // transaction whose completion was skipped).
    const Lsn end = db_->wal()->LastLsn();
    MORPH_RETURN_NOT_OK(PropagateTo(end, /*throttled=*/false, stats));
    MORPH_FAILPOINT("transform.sync.latched");
    if (!config_.continuous) {
      const txn::TxnEpoch sw = db_->AdvanceEpoch();
      // Non-blocking abort dooms the old transactions holding source locks
      // on this tablet's keys.
      if (config_.strategy == SyncStrategy::kNonBlockingAbort) {
        stats->txns_doomed += SourceLockHolders(sw, k);
      }
      if (k + 1 == T) {
        // The last tablet completes the switch. Published before the
        // tablet migrates, so the hook never sees a partial-migration
        // window at T = 1.
        switch_epoch_.store(sw, std::memory_order_release);
        switched_.store(true, std::memory_order_release);
      }
      stagger_->MarkMigrated(k, end, sw, Clock::NanosSince(latch_start));
    }
    latch_nanos = Clock::NanosSince(latch_start);
  }
  stats->tablet_latch_nanos[k] = latch_nanos;
  // The worst pause any single key's writer could have observed.
  stats->sync_latch_nanos = std::max(stats->sync_latch_nanos, latch_nanos);
  stats->sync_latch_micros = stats->sync_latch_nanos / 1000;
  MORPH_HISTOGRAM_NANOS("transform.sync.latch_nanos", latch_nanos);
  MORPH_TRACE("transform.sync.latch_release",
              static_cast<int64_t>(sources.size()), latch_nanos);
  if (config_.strategy == SyncStrategy::kBlockingCommit) {
    std::unique_lock lock(gate_mu_);
    gate_on_ = false;
    gate_cv_.notify_all();
  }
  return Status::OK();
}

Status TransformCoordinator::Drain(TransformStats* stats) {
  phase_.store(Phase::kDraining, std::memory_order_release);
  const auto drain_start = Clock::Now();
  const txn::TxnEpoch sw = switch_epoch_.load(std::memory_order_acquire);
  while (true) {
    MORPH_FAILPOINT("transform.drain.iteration");
    const Lsn end = db_->wal()->LastLsn();
    if (end >= next_lsn_) {
      MORPH_RETURN_NOT_OK(PropagateTo(end, /*throttled=*/true, stats));
      continue;
    }
    if (db_->txns()->ActiveBefore(sw).empty() && db_->wal()->LastLsn() < next_lsn_) {
      return Status::OK();
    }
    if (Clock::MicrosSince(drain_start) > config_.max_duration_micros) {
      return Status::Aborted(
          "pre-switch transactions did not finish during drain");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TransformStats TransformCoordinator::Finish(const Clock::TimePoint& run_start,
                                            const Status& outcome,
                                            TransformStats* stats) {
  if (hook_registered_.load(std::memory_order_acquire)) {
    db_->ClearTransformHook();
    hook_registered_.store(false, std::memory_order_release);
  }
  {
    std::unique_lock lock(gate_mu_);
    gate_on_ = false;
  }
  gate_cv_.notify_all();
  tlocks_.Clear();
  if (outcome.ok()) {
    phase_.store(Phase::kCompleted, std::memory_order_release);
    MORPH_COUNTER_INC("transform.runs_completed");
  } else {
    // Before the first tablet migrates, deleting the transformed tables is
    // all an abort takes (§6). Past that point of no return the migrated
    // keys already live on them and clients were switched to them, so the
    // failure is reported and the (live) targets stay in place.
    if (!stagger_->AnyMigrated()) rules_->DropTargets();
    phase_.store(Phase::kAborted, std::memory_order_release);
    stats->abort_reason = outcome.message();
    MORPH_COUNTER_INC("transform.runs_aborted");
  }
  stats->completed = outcome.ok();
  stats->final_priority = priority_.priority();
  FillPropagationStats(stats);
  stats->total_micros = Clock::MicrosSince(run_start);
  return *stats;
}

// --- TransformHook -------------------------------------------------------------

Status TransformCoordinator::OnOp(TxnId txn, txn::TxnEpoch epoch, TableId table,
                                  txn::Access access, const Row& pk,
                                  bool may_block) {
  const bool is_source = IsSourceTable(table);
  const bool is_target = IsTargetTable(table);
  if (!is_source && !is_target) return Status::OK();

  // Blocking-commit gate: park new transactions off the involved tables.
  // Fast path: one atomic load when the gate is off (the common case — this
  // runs twice per client operation for the whole transformation).
  if (gate_on_.load(std::memory_order_acquire)) {
    std::unique_lock lock(gate_mu_);
    if (gate_on_.load(std::memory_order_relaxed) && epoch >= gate_epoch_) {
      if (!may_block) {
        return Status::Busy("schema transformation switch-over in progress");
      }
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.max_duration_micros);
      while (gate_on_.load(std::memory_order_relaxed) && epoch >= gate_epoch_) {
        if (gate_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
          return Status::Busy("timed out waiting for switch-over");
        }
      }
    }
  }

  // The switch governing this access: the table-wide one once the last
  // tablet has migrated; before that, the key's own tablet's, if it
  // migrated. Target access is admitted per tablet only where the target's
  // keys partition the same way as the source's (otherwise a record on this
  // table may still be mid-migration even though the key's source tablet
  // migrated).
  bool switched = switched_.load(std::memory_order_acquire);
  txn::TxnEpoch sw = switch_epoch_.load(std::memory_order_acquire);
  if (!switched && stagger_->AnyMigrated()) {
    const size_t k = stagger_->TabletOf(pk);
    switched = stagger_->state(k) == TabletState::kMigrated &&
               (is_source || rules_->TargetTabletAligned(table));
    sw = stagger_->switch_epoch(k);
  }
  if (!switched) {
    // A maintained materialized view is readable while it converges; other
    // targets are still being built.
    if (is_target && !(config_.continuous && access == txn::Access::kRead)) {
      return Status::InvalidArgument(
          "table is still being built by a schema transformation");
    }
    // Pre-switch source access flows freely; write locks are mirrored onto
    // the transformed tables by the log propagator.
    return Status::OK();
  }

  if (is_source) {
    if (epoch >= sw) {
      if (rules_->KeepSource(table)) {
        // §5.2 alternative strategy: the source table is about to be
        // renamed into the transformed R — new transactions access it under
        // target-origin locks (Figure 2) like any transformed table.
        return tlocks_.AcquireTarget(txn, txn::RecordId{table, pk}, access,
                                     may_block);
      }
      return Status::Aborted(
          "table was transformed; access the transformed tables instead");
    }
    switch (config_.strategy) {
      case SyncStrategy::kBlockingCommit:
      case SyncStrategy::kNonBlockingAbort:
        // §3.4: transactions that were active on the source tables are
        // forced to abort.
        return Status::Aborted(
            "transaction doomed by schema transformation switch-over");
      case SyncStrategy::kNonBlockingCommit: {
        // §4.3: the operation must first get the corresponding locks on the
        // transformed-table records; "if a transaction cannot get a lock on
        // all implicated records in all tables, it is not allowed to go
        // forward with the operation."
        const std::vector<txn::RecordId> rids =
            rules_->AffectedTargets(table, pk);
        for (const txn::RecordId& rid : rids) {
          if (tlocks_.WouldBlockSource(rid, access, txn)) {
            return Status::Busy(
                "conflicting lock held on the transformed table");
          }
        }
        const txn::LockOrigin origin = OriginOf(table);
        for (const txn::RecordId& rid : rids) {
          tlocks_.AddTransferred(txn, rid, origin, access);
        }
        return Status::OK();
      }
    }
    return Status::Internal("unreachable");
  }

  // Post-switch access to a transformed table: acquire a target-origin lock
  // under the Figure 2 matrix; it waits for transferred source locks to be
  // released by the propagator.
  return tlocks_.AcquireTarget(txn, txn::RecordId{table, pk}, access, may_block);
}

Status TransformCoordinator::OnCommit(TxnId txn, txn::TxnEpoch epoch) {
  const bool switched = switched_.load(std::memory_order_acquire);
  if (switched ? epoch >= switch_epoch_.load(std::memory_order_acquire)
               : !stagger_->AnyMigrated()) {
    return Status::OK();
  }
  if (config_.strategy == SyncStrategy::kNonBlockingCommit) return Status::OK();
  // Blocking commit / non-blocking abort: an old transaction still holding
  // source-table locks at commit time must abort instead. During a partial
  // migration that is a lock on a tablet that switched after it began: its
  // writes there can no longer be propagated consistently.
  for (const txn::RecordId& rid : db_->locks()->LocksOf(txn)) {
    if (!IsSourceTable(rid.table)) continue;
    const size_t k = stagger_->TabletOf(rid.key);
    if (switched || (stagger_->state(k) == TabletState::kMigrated &&
                     epoch < stagger_->switch_epoch(k))) {
      return Status::Aborted(
          "transaction doomed by schema transformation switch-over");
    }
  }
  return Status::OK();
}

void TransformCoordinator::OnTxnFinished(TxnId txn, txn::TxnEpoch epoch) {
  const bool switched = switched_.load(std::memory_order_acquire);
  if (switched && epoch >= switch_epoch_.load(std::memory_order_acquire)) {
    // Post-switch transactions release their target locks directly; old
    // transactions' transferred locks are released by the propagator when
    // it processes their completion record (§3.4).
    tlocks_.ReleaseTxn(txn);
  } else if (switched || stagger_->AnyMigrated()) {
    // A pre-switch transaction may nonetheless hold target locks taken on
    // tablets that migrated before it finished. Release only those — its
    // mirrored source locks must stay until the propagator has applied its
    // remaining ops (completion record, §3.4).
    tlocks_.ReleaseTxnTargetLocks(txn);
  }
}

}  // namespace morph::transform
