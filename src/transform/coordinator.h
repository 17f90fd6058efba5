#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/clock.h"
#include "engine/database.h"
#include "engine/transform_hook.h"
#include "transform/operator_rules.h"
#include "transform/priority.h"
#include "transform/propagator.h"
#include "transform/table_id_set.h"
#include "transform/tablet_manager.h"
#include "txn/transform_locks.h"

namespace morph::transform {

/// \brief How user transactions are switched from the source tables to the
/// transformed tables at the end of the transformation (paper §3.4).
enum class SyncStrategy {
  /// Block new transactions on all involved tables, let old ones finish,
  /// then do the final propagation. Simple, but violates the non-blocking
  /// requirement — kept as the paper's strawman.
  kBlockingCommit,
  /// Latch the sources for one final propagation pass (< 1 ms), admit new
  /// transactions to the transformed tables immediately, and force
  /// transactions that were active on the source tables to abort. Locks
  /// they held are mirrored in the transformed tables and released as the
  /// propagator processes their rollback records.
  kNonBlockingAbort,
  /// Like non-blocking abort, but old transactions continue running against
  /// the source tables; their operations keep being propagated and their
  /// locks are acquired synchronously on the transformed tables (Figure 2
  /// compatibility), so non-conflicting old transactions are never aborted.
  kNonBlockingCommit,
};

std::string_view SyncStrategyToString(SyncStrategy s);

/// \brief What to do when the propagator cannot keep up with log generation
/// ("If more log records are produced than the propagator is able to
/// process, the synchronization is never started... the transformation
/// should either be aborted or get higher priority", paper §3.3).
enum class OnLag { kAbort, kBoostPriority };

struct TransformConfig {
  SyncStrategy strategy = SyncStrategy::kNonBlockingAbort;
  /// Initial duty cycle of the background propagator (0, 1].
  double priority = 1.0;
  /// Log records propagated per work slice between priority throttles.
  size_t batch_size = 512;
  /// Upper bound on records propagated per iteration, so the end-of-
  /// iteration analysis (paper §3.3) runs regularly even against a firehose
  /// writer. 0 = batch_size * 16.
  size_t max_records_per_iteration = 0;
  /// Start synchronization when the backlog drops below this many records.
  size_t sync_threshold = 512;
  /// Overall wall-clock guard for the whole transformation.
  int64_t max_duration_micros = 600'000'000;
  /// Records per pass of the operator's background check between
  /// propagation iterations (the §5.3 consistency checker of a split with
  /// assume_consistent = false; a no-op for every other operator).
  size_t cc_batch = 32;
  /// Consecutive non-shrinking-backlog iterations before OnLag triggers.
  size_t lag_iterations = 16;
  OnLag on_lag = OnLag::kAbort;
  /// Drop the source tables once the transformation completes (§3.4:
  /// "Finally, the source tables are dropped from the schema").
  bool drop_sources = true;
  /// Materialized-view maintenance mode (the paper's §7: "using the
  /// technique to create other types of derived tables like Materialized
  /// Views is an obvious example"): there is no synchronization step or
  /// switch-over — the targets live alongside the sources and the
  /// propagator keeps them converging until RequestFinish(), which performs
  /// one final latched catch-up pass (delivering an action-consistent view)
  /// and completes without dooming transactions or dropping anything.
  /// Target tables are readable (but not writable) while maintained. With
  /// no switch-over to protect, source locks are not mirrored onto the
  /// targets; every other run mirrors them (§3.3).
  bool continuous = false;
  /// How long a post-switch transaction waits for a mirrored source lock.
  int64_t target_lock_wait_micros = 2'000'000;
  /// Hash-range tablets to run the transformation as (see
  /// transform/tablet_manager.h): each tablet gets its own fuzzy scan,
  /// catch-up, and tablet-wide sync latch, so a concurrent writer only ever
  /// sees a latch covering 1/T of the key space. Every run goes through the
  /// same per-tablet sequence; 1 = the whole table as one tablet, the
  /// paper's single fuzzy scan and single sync latch. Values > 1 are
  /// clamped back to 1 when staggering cannot apply: the operator does not
  /// decompose by tablet (FOJ, or a split running the §5.3 consistency
  /// checker, which verifies against whole-table scans), the strategy is
  /// not non-blocking abort, continuous mode, a source is kept (§5.2
  /// reuse), or the involved tables do not share a multi-tablet latch
  /// geometry (DatabaseOptions::table_tablets).
  size_t tablets = 1;
};

/// \brief Per-run statistics returned by TransformCoordinator::Run().
///
/// A *view over the transform's atomic instruments*: every counter here is a
/// snapshot of the same relaxed atomics that feed the process-wide metrics
/// registry (`transform.propagate.*` counters, `transform.backlog` /
/// `transform.priority.*` gauges — see docs/ARCHITECTURE.md "Observability"),
/// so the registry's process-cumulative counters can be reconciled against
/// per-run stats by delta.
struct TransformStats {
  bool completed = false;
  /// Why the transformation aborted (empty when completed).
  std::string abort_reason;

  int64_t prepare_micros = 0;
  int64_t populate_micros = 0;
  int64_t propagate_micros = 0;
  int64_t sync_micros = 0;
  /// The user-visible pause: wall time the source tables were latched
  /// exclusively for the final propagation pass (paper: "< 1 ms in our
  /// current implementation"). Nanosecond resolution; the _micros alias is
  /// derived.
  int64_t sync_latch_nanos = 0;
  int64_t sync_latch_micros = 0;
  int64_t drain_micros = 0;
  int64_t total_micros = 0;

  size_t log_records_processed = 0;
  size_t ops_propagated = 0;
  size_t iterations = 0;
  size_t txns_doomed = 0;  ///< non-blocking abort: old txns forced to abort
  double final_priority = 1.0;
  /// Realized duty cycle of the throttled propagation stages over the whole
  /// run (work / (work + sleep), from PriorityController::totals()); 1.0
  /// when nothing was throttled. Compare against final_priority to judge
  /// throttle fidelity; also exported live as the
  /// `transform.priority.achieved_ppm` gauge.
  double achieved_duty = 1.0;

  /// Log records processed per second of wall-clock propagation time.
  double propagate_records_per_sec = 0.0;

  /// Tablet shape: resolved tablet count (1 = the whole table; the
  /// configured value may have been clamped, see TransformConfig) and each
  /// tablet's individual latched pause. sync_latch_nanos above reports the
  /// *maximum* per-tablet pause — the worst any single key's writer could
  /// have observed — not the sum.
  size_t tablets = 1;
  std::vector<int64_t> tablet_latch_nanos;
};

/// \brief Drives a transformation through the paper's four steps:
/// preparation → initial population → log propagation → synchronization
/// (§3), delegating operator specifics to an OperatorRules implementation
/// and registering itself as the engine's TransformHook for access gating
/// and lock mirroring.
///
/// Run() executes the whole transformation on the calling thread; callers
/// normally run it on a dedicated background thread while user transactions
/// keep executing. RequestAbort() (honoured until switch-over) stops
/// propagation and deletes the transformed tables, which is all an abort
/// takes (§6).
///
/// Client-cooperation contract: transactions doomed at switch-over learn
/// about it through Status::Aborted returned from their next operation or
/// commit; the client must then call Database::Abort (commit attempts do so
/// automatically). The drain phase waits for all pre-switch transactions to
/// finish.
class TransformCoordinator : public engine::TransformHook {
 public:
  TransformCoordinator(engine::Database* db,
                       std::shared_ptr<OperatorRules> rules,
                       TransformConfig config);
  ~TransformCoordinator() override;

  TransformCoordinator(const TransformCoordinator&) = delete;
  TransformCoordinator& operator=(const TransformCoordinator&) = delete;

  /// \brief Runs the transformation to completion (or abort). Returns the
  /// run's statistics; stats.completed / stats.abort_reason describe the
  /// outcome. A non-OK Result means an internal error, not a clean abort.
  Result<TransformStats> Run();

  /// \brief Asks the transformation to abort. Ignored after switch-over
  /// (the transformed tables are live by then).
  void RequestAbort() { abort_requested_.store(true, std::memory_order_release); }

  /// \brief Continuous (materialized-view) mode only: stop maintaining the
  /// view after one final latched catch-up pass. The view and the sources
  /// both survive.
  void RequestFinish() {
    finish_requested_.store(true, std::memory_order_release);
  }

  /// \brief Adjusts the propagator's priority while running.
  void set_priority(double p) { priority_.set_priority(p); }
  double priority() const { return priority_.priority(); }

  /// \brief Cumulative work/sleep accounting of the throttled stages (see
  /// PriorityController::DutyTotals). Sample a delta around a measurement
  /// window to get the duty cycle actually realized within it.
  PriorityController::DutyTotals duty_totals() const {
    return priority_.totals();
  }

  /// \brief While held, the coordinator keeps iterating log propagation and
  /// never enters synchronization, even with an empty backlog. Lets the DBA
  /// (or a test) choose the cut-over moment — e.g. wait for off-hours, as
  /// §6 recommends. Releasing the hold lets the normal backlog analysis
  /// decide again. A hold is bounded only by
  /// TransformConfig::max_duration_micros, the run's one time guard.
  void SetSyncHold(bool hold) {
    sync_hold_.store(hold, std::memory_order_release);
  }

  /// \brief Pauses/resumes log propagation (pre-synchronization only). A
  /// paused transformation consumes no CPU and performs no lag analysis —
  /// the DBA's "suspend during a traffic spike" control, and what the
  /// interference benchmarks use to interleave on/off measurement windows.
  void SetPaused(bool paused) {
    paused_.store(paused, std::memory_order_release);
  }

  enum class Phase {
    kIdle,
    kPreparing,
    kPopulating,
    kPropagating,
    kSynchronizing,
    kDraining,
    kCompleted,
    kAborted,
  };
  Phase phase() const { return phase_.load(std::memory_order_acquire); }

  /// \brief The transformed-table lock table (Figure 2 matrix) — exposed
  /// for tests and post-switch diagnostics.
  txn::TransformLockTable* transform_locks() { return &tlocks_; }

  /// \brief Everything below this LSN has been propagated (or predates the
  /// transformation). Log-archiving housekeeping must not truncate at or
  /// beyond the returned LSN. kInvalidLsn until propagation has started.
  /// The propagator applies each batch before it advances the cursor, so
  /// the cursor itself is the watermark.
  Lsn propagated_lsn() const {
    const Lsn next = next_lsn_.load(std::memory_order_acquire);
    if (next == kInvalidLsn || stagger_->AllActivated()) return next;
    // The global cursor races ahead of tablets that have not been
    // populated yet; their local catch-up passes re-read the log from
    // their own begin-fuzzy floors, none below the first tablet's
    // (retention_floor_), so truncation must hold there until every
    // tablet is active. The floor is fixed once and only ever replaced by
    // the larger live watermark, so the pin stays monotone.
    return std::min(next, retention_floor_.load(std::memory_order_acquire));
  }

  /// The tablet state (never null; one tablet when the run covers the whole
  /// table) — exposed for tests and observability.
  const TabletTransformManager* tablet_manager() const {
    return stagger_.get();
  }

  const OperatorRules* rules() const { return rules_.get(); }

  // --- engine::TransformHook -------------------------------------------
  Status OnOp(TxnId txn, txn::TxnEpoch epoch, TableId table, txn::Access access,
              const Row& pk, bool may_block) override;
  Status OnCommit(TxnId txn, txn::TxnEpoch epoch) override;
  void OnTxnFinished(TxnId txn, txn::TxnEpoch epoch) override;

 private:
  /// Propagates log records [next_lsn_, end] through the propagator, adding
  /// the count to `stats`; a no-op when the cursor is already past `end`.
  /// `throttled` applies the priority duty cycle between batches.
  Status PropagateTo(Lsn end, bool throttled, TransformStats* stats);
  /// One local catch-up pass for tablet `k`: processes [from, to] applying
  /// only tablet k's data records, without moving the global cursor, then
  /// restores the global filter. A no-op when `to` < `from`.
  Status PropagateTabletPass(size_t k, Lsn from, Lsn to,
                             TransformStats* stats);
  /// Copies propagation counters (ops, throughput, achieved duty) into
  /// `stats` on every Run() exit path.
  void FillPropagationStats(TransformStats* stats) const;
  /// Appends a fuzzy mark carrying the active-transaction table (§3.2) and
  /// returns the oldest LSN propagation must start at to cover every
  /// transaction active at the mark. `populate_micros` goes to the
  /// end-of-read mark's trace event.
  Lsn AppendFuzzyMark(bool begin, int64_t populate_micros);
  /// Aborted when an abort was requested or the run exceeded its duration.
  Status Interrupted(const Clock::TimePoint& run_start) const;
  /// Old transactions (epoch < `before`) holding a source lock on tablet k.
  size_t SourceLockHolders(txn::TxnEpoch before, size_t k) const;

  /// The four steps; each returns Aborted with the reason the run ends on.
  /// Step 1: the operator's Prepare, table-id caches, hook registration.
  Status Prepare(TransformStats* stats);
  /// Step 2: per tablet, fuzzy mark, populate, local catch-up, activate.
  Status PopulateTablets(const Clock::TimePoint& run_start,
                         TransformStats* stats);
  /// Step 3: the §3.3 propagation loop, until the backlog allows sync (or,
  /// continuous mode, until RequestFinish).
  Status PropagateUntilSync(const Clock::TimePoint& run_start,
                            TransformStats* stats);
  /// Step 4: one LatchedPass per tablet.
  Status Synchronize(const Clock::TimePoint& run_start, TransformStats* stats);
  /// Latch tablet `k` of every source, propagate to the log end, and switch
  /// the tablet (no switch in continuous mode). The only place the
  /// user-visible pause is measured.
  Status LatchedPass(
      size_t k, const std::vector<std::shared_ptr<storage::Table>>& sources,
      TransformStats* stats);
  /// Post-switch drain: keep propagating until every pre-switch transaction
  /// has finished and the propagator has caught up.
  Status Drain(TransformStats* stats);
  /// The one exit of Run(): unregister, release the transform locks, and
  /// record `outcome` in `stats`. A failure before any tablet migrated
  /// drops the targets; past that the targets are live and stay.
  TransformStats Finish(const Clock::TimePoint& run_start,
                        const Status& outcome, TransformStats* stats);

  bool IsSourceTable(TableId id) const;
  bool IsTargetTable(TableId id) const;
  txn::LockOrigin OriginOf(TableId source_table) const;

  engine::Database* db_;
  std::shared_ptr<OperatorRules> rules_;
  TransformConfig config_;
  PriorityController priority_;
  txn::TransformLockTable tlocks_;

  std::atomic<Phase> phase_{Phase::kIdle};
  std::atomic<bool> abort_requested_{false};
  std::atomic<bool> sync_hold_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> finish_requested_{false};
  std::atomic<bool> hook_registered_{false};

  /// Next log record the propagation reader will read. Written only by the
  /// coordinator thread (via LogPropagator::PropagateRange); read
  /// concurrently (e.g. by log-truncation housekeeping via
  /// propagated_lsn()).
  std::atomic<Lsn> next_lsn_{kInvalidLsn};

  /// Floor backing the WAL retention pin Run() registers: the oldest log
  /// record this transformation may still need. Starts at the log's first
  /// retained LSN (conservative — propagation start is not known yet),
  /// advances to the first tablet's start LSN once its fuzzy mark fixes it,
  /// and holds there until every tablet is active; the live propagation
  /// watermark (propagated_lsn()) supersedes it from then on. Never
  /// retreats, which is what makes the pin's pre-truncate evaluation safe
  /// (see Wal::AddRetentionPin).
  std::atomic<Lsn> retention_floor_{kInvalidLsn};

  /// Blocking-commit gate: when on, operations of transactions with epoch
  /// >= gate_epoch_ on involved tables park here. gate_on_ is an atomic so
  /// the overwhelmingly common "gate off" case costs one relaxed load on
  /// the client op path instead of a contended mutex acquisition.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::atomic<bool> gate_on_{false};
  txn::TxnEpoch gate_epoch_ = 0;  ///< guarded by gate_mu_

  /// Set at switch-over. Transactions with epoch < switch_epoch_ are "old".
  /// These flip when the *last* tablet migrates; with T > 1 the
  /// partial-migration window before that is governed per tablet by
  /// stagger_'s state (see OnOp / OnCommit / OnTxnFinished).
  std::atomic<bool> switched_{false};
  std::atomic<txn::TxnEpoch> switch_epoch_{0};

  /// Tablet state. Created in the constructor (never mutated afterwards),
  /// so hook and housekeeping threads may read the pointer without
  /// synchronization.
  std::unique_ptr<TabletTransformManager> stagger_;

  /// Source/target table id caches (valid after Prepare). The vectors keep
  /// OperatorRules order (source_ids_[0] owns LockOrigin::kSource0); the
  /// sets serve the membership tests on the hook and propagation hot paths.
  std::vector<TableId> source_ids_;
  std::vector<TableId> target_ids_;
  TableIdSet source_set_;
  TableIdSet target_set_;

  /// The §3.3 log propagator; holds pointers to rules_/tlocks_/priority_.
  std::unique_ptr<LogPropagator> propagator_;
};

}  // namespace morph::transform
