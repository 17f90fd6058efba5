#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "transform/adaptive.h"
#include "transform/handoff.h"
#include "transform/op.h"
#include "transform/operator_rules.h"
#include "transform/priority.h"
#include "transform/table_id_set.h"
#include "txn/transform_locks.h"
#include "wal/wal.h"

namespace morph::transform {

/// How ops travel from the reader to the apply workers.
enum class PropagatorHandoff : uint8_t {
  /// Mutex-guarded bounded deques with condvars — the original PR 2
  /// pipeline, kept as the differential-test reference and the bench
  /// baseline.
  kMutex,
  /// Lock-free cache-line-aligned SPSC rings with batched publication and
  /// counter-based joins (transform/handoff.h). The default.
  kRing,
};

struct PropagatorConfig {
  /// Number of parallel apply workers. 0 = serial: the identical pipeline
  /// code runs with one *inline* worker on the reader (coordinator) thread —
  /// there is no separate serial implementation to drift out of sync.
  size_t workers = 0;
  /// Log records copied out of the WAL per reader batch.
  size_t batch_size = 512;
  /// Bounded per-worker queue capacity, in records.
  size_t queue_capacity = 1024;
  /// Mirror source-table locks onto the transformed tables (§3.3).
  bool maintain_locks = true;
  /// Reader→worker handoff mechanism (ignored when workers == 0).
  PropagatorHandoff handoff = PropagatorHandoff::kRing;
  /// Adaptive mode (`propagate_workers = auto`): sample records/sec per
  /// batch and collapse to the serial inline path whenever parallelism
  /// loses, re-probing periodically (transform/adaptive.h). `workers` is
  /// then the parallel mode's worker count.
  bool adaptive = false;
  /// Probe/exploit window shape for adaptive mode; parallel_workers is
  /// overwritten from `workers`.
  AdaptiveController::Options adaptive_options;
};

/// \brief Per-worker diagnostics, snapshotted into TransformStats.
///
/// A *snapshot*: the live values are relaxed atomics inside the pipeline
/// (see LogPropagator::worker_stats), so snapshotting is safe from any
/// thread at any time — including a metrics/monitoring thread sampling
/// while workers are still applying ops.
struct PropagatorWorkerStats {
  size_t ops_applied = 0;
  size_t max_queue_depth = 0;
};

/// \brief The log-propagation pipeline (paper §3.3), factored out of
/// TransformCoordinator so the propagation path scales with cores.
///
/// Three stages:
///
///  1. **Reader** (the calling thread): scans the WAL in bounded LSN batches
///     (Wal::ScanInto — one shared-lock acquisition per batch, so workers
///     never touch the log's lock), filters for source-table records, and
///     normalizes them into Ops. Priority duty-cycle throttling gates this
///     stage only; workers simply drain what the reader admits.
///  2. **Partitioner** (inline in the reader): routes each data record to
///     one of N workers by hashing the operator-chosen
///     OperatorRules::RoutingKey. Ops whose keys are equal hash to the same
///     worker and therefore apply in LSN order — the per-record order that
///     rules 1–11 and Theorem 1 assume. Barrier-keyed ops drain every
///     worker, then apply inline on the reader thread. With the ring
///     handoff the whole scan block is *staged* per worker and published
///     with one release-store per worker (WorkerHandoff::FlushStaged);
///     with the mutex handoff each op takes the worker's queue lock.
///  3. **Workers**: N threads applying ops via OperatorRules::Apply and
///     mirroring locks via TransformLockTable::AddTransferred — popping
///     bounded mutex deques (kMutex) or SPSC rings in batches (kRing).
///
/// **Watermark.** Each worker publishes a floor: no op below it is still
/// queued or in flight (LSN-max when idle). FloorLsn() is the minimum
/// across workers; everything below min(reader position, FloorLsn()) has
/// been fully applied, which is what keeps Wal::TruncateBefore safe. The
/// mutex path tracks the oldest queued LSN under the queue lock; the ring
/// path derives the floor from monotone pushed/applied counters (see
/// transform/handoff.h for the memory-order argument).
///
/// **Completion barrier.** kCommit/kTxnEnd must not release a transaction's
/// mirrored locks until every one of its ops has been applied (they all
/// have lower LSNs). Instead of a full drain per completion record — which
/// would serialize the pipeline on every commit — releases are *deferred*:
/// queued as (lsn, txn) and flushed once FloorLsn() has passed their LSN
/// (checked per batch, and unconditionally after the end-of-range drain).
/// kCcBegin/kCcOk genuinely drain all workers and then run
/// OnControlRecord inline: the CC verdict must observe every lower-LSN op,
/// or a late-arriving disturbance would be missed (§5.3).
///
/// **Adaptive mode.** With config.adaptive, an AdaptiveController picks 0
/// or N workers per batch; a parallel→serial transition drains the workers
/// and flushes every deferred release first, so the serial path always
/// starts from the fully-applied state it assumes. `propagate_workers =
/// auto` therefore tracks max(serial, parallel) minus a few percent of
/// probing.
///
/// **Failure.** A worker that gets a non-OK Status (or an exception — the
/// deterministic failpoint "transform.propagate.worker" throws
/// CrashException in crash tests) records it, flips the pipeline into a
/// drain-and-discard mode, and the reader rethrows/returns it from
/// PropagateRange on its own thread — exceptions never cross a std::thread
/// boundary. The ring path adds the reader-side site
/// "transform.handoff.push", firing whenever staged records are published.
///
/// Thread safety: PropagateRange must be called from one thread at a time
/// (the coordinator thread). FloorLsn() and stats accessors are safe from
/// any thread.
class LogPropagator {
 public:
  LogPropagator(wal::Wal* wal, OperatorRules* rules,
                txn::TransformLockTable* tlocks, PriorityController* priority,
                PropagatorConfig config);
  ~LogPropagator();

  LogPropagator(const LogPropagator&) = delete;
  LogPropagator& operator=(const LogPropagator&) = delete;

  /// \brief Installs the source-table filter. Must be called after the
  /// operator's Prepare(), before the first PropagateRange(). `source_ids`
  /// is in OperatorRules::Sources() order: the first entry gets
  /// LockOrigin::kSource0, any other kSource1.
  void SetSources(const std::vector<TableId>& source_ids);

  /// \brief Installs (or clears, with nullptr) a per-record data filter for
  /// staggered tablet propagation: a source-table data record for which the
  /// predicate returns false is skipped (counted in
  /// `transform.tablet.ops_skipped`), exactly as if it belonged to a
  /// non-source table. Completion/CC records are unaffected. Reader-thread
  /// only; must not be changed while a PropagateRange is in flight.
  void SetRecordFilter(std::function<bool(const wal::LogRecord&)> filter) {
    record_filter_ = std::move(filter);
  }

  /// \brief Processes log records [from, to]; returns the count processed.
  /// On return every processed op has been fully applied (workers drained)
  /// and every deferred lock release flushed. `next_lsn` is kept at the
  /// reader's position (the next LSN to read) throughout. `throttled`
  /// applies the priority duty cycle to the reader between batches.
  /// `cancel` (optional) is polled between batches; returning true stops
  /// early after a drain.
  Result<size_t> PropagateRange(Lsn from, Lsn to, bool throttled,
                                std::atomic<Lsn>* next_lsn,
                                const std::function<bool()>& cancel);

  /// \brief Min-across-workers watermark: no op with an LSN below this is
  /// still queued or in flight. LSN-max when all workers are idle.
  Lsn FloorLsn() const;

  /// Apply worker threads this pipeline owns (0 when serial).
  size_t num_workers() const {
    return handoff_ ? handoff_->num_workers() : workers_.size();
  }

  /// The handoff mechanism in use (meaningful when num_workers() > 0).
  PropagatorHandoff handoff_kind() const { return config_.handoff; }

  /// The adaptive controller, or nullptr when not in adaptive mode.
  const AdaptiveController* adaptive() const { return adaptive_.get(); }

  /// \brief Total ops applied (all workers + inline).
  size_t ops_applied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }

  /// \brief Per-worker diagnostics. Entry 0 is the reader's inline worker
  /// (all ops when serial, barrier ops when parallel), followed by one
  /// entry per queue worker. Safe from any thread while the pipeline is
  /// running: every field is read from a relaxed atomic, never from state a
  /// worker mutates under its queue lock. (An earlier revision kept the
  /// inline counters as plain fields "owned by the reader thread", which
  /// made any cross-thread snapshot — a monitoring thread, a stats dump
  /// racing an abort — a data race under TSan.)
  std::vector<PropagatorWorkerStats> worker_stats() const;

 private:
  using Item = HandoffItem;

  struct Worker {
    mutable std::mutex mu;
    std::condition_variable cv_nonempty;  ///< wakes the worker
    std::condition_variable cv_space;     ///< wakes the reader (space/drained)
    std::deque<Item> queue;               ///< FIFO, pushed in LSN order
    bool busy = false;                    ///< an op is being applied
    /// LSN of the oldest queued/in-flight op; LSN-max when idle. Updated
    /// under mu, stored atomically so FloorLsn() never takes queue locks.
    std::atomic<Lsn> floor{std::numeric_limits<Lsn>::max()};
    /// Diagnostics, relaxed atomics so worker_stats() is lock- and
    /// race-free from any thread. ops_applied is written by the worker
    /// thread; max_queue_depth only by the reader (single writer each).
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> max_queue_depth{0};
    std::thread thread;
  };

  void WorkerLoop(Worker* w);
  /// Handles one log record (data op / txn completion / CC bracket).
  Status ProcessRecord(const wal::LogRecord& rec);
  /// The apply step shared by workers and the serial inline path.
  Status ApplyOp(const Op& op, txn::LockOrigin origin);
  /// Routes one data op: hash-partition to a worker (stage or enqueue), or
  /// (barrier / serial) drain + apply inline. Inline application propagates
  /// exceptions on the reader thread.
  Status DispatchData(Op op, txn::LockOrigin origin);
  void Enqueue(size_t worker, Item item);
  /// Blocks until every mutex-path worker queue is empty and no op is in
  /// flight (kMutex only).
  void WaitDrained();
  /// Handoff-agnostic barrier: flush anything staged, then wait until every
  /// worker has applied everything handed to it. Returns the ring flush
  /// status (a "transform.handoff.push" injected error surfaces here).
  Status DrainWorkers();
  /// Applies deferred lock releases whose LSN the floor has passed
  /// (`all` forces everything — only valid after DrainWorkers()).
  void FlushReleases(bool all);
  void RecordFailure(const Status& st);
  void RecordException(std::exception_ptr e);
  /// Rethrows/returns a worker-recorded failure, if any (reader thread).
  Status TakeFailure();

  wal::Wal* wal_;
  OperatorRules* rules_;
  txn::TransformLockTable* tlocks_;
  PriorityController* priority_;
  const PropagatorConfig config_;

  TableIdSet sources_;
  TableId primary_source_ = 0;  ///< LockOrigin::kSource0

  /// Staggered-tablet record filter (null = pass everything). Reader-thread
  /// only.
  std::function<bool(const wal::LogRecord&)> record_filter_;

  /// kMutex path workers (empty when serial or kRing).
  std::vector<std::unique_ptr<Worker>> workers_;
  /// kRing path (null when serial or kMutex).
  std::unique_ptr<WorkerHandoff> handoff_;
  /// Adaptive mode controller (null unless config.adaptive).
  std::unique_ptr<AdaptiveController> adaptive_;
  /// Workers the *current batch* dispatches to: 0 (inline) or
  /// num_workers(). Reader-thread only; fixed for a whole batch, changed
  /// only at batch boundaries (after a drain when collapsing to serial).
  size_t cur_workers_ = 0;

  std::atomic<bool> stop_{false};
  /// Set on the first worker failure: workers drain-and-discard from then
  /// on so the reader can never block against a dead pipeline.
  std::atomic<bool> failed_{false};

  std::mutex err_mu_;
  Status first_error_;            ///< guarded by err_mu_
  std::exception_ptr exception_;  ///< guarded by err_mu_

  /// Deferred (lsn, txn) lock releases, reader-thread only; LSN-ascending.
  std::deque<std::pair<Lsn, TxnId>> pending_releases_;

  std::atomic<size_t> ops_applied_{0};
  /// Ops applied inline on the reader thread (all of them when serial,
  /// barrier ops when parallel). Atomic for the same reason as the worker
  /// counters: worker_stats() may sample from another thread mid-run.
  std::atomic<size_t> inline_ops_applied_{0};
};

}  // namespace morph::transform
