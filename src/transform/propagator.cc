#include "transform/propagator.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "wal/log_record.h"

namespace morph::transform {

namespace {
constexpr Lsn kLsnMax = std::numeric_limits<Lsn>::max();
}

LogPropagator::LogPropagator(wal::Wal* wal, OperatorRules* rules,
                             txn::TransformLockTable* tlocks,
                             PriorityController* priority,
                             PropagatorConfig config)
    : wal_(wal),
      rules_(rules),
      tlocks_(tlocks),
      priority_(priority),
      config_(config) {
  if (config_.workers > 0) {
    if (config_.handoff == PropagatorHandoff::kRing) {
      HandoffOptions opts;
      opts.workers = config_.workers;
      opts.ring_capacity = config_.queue_capacity;
      handoff_ = std::make_unique<WorkerHandoff>(
          opts, [this](const HandoffItem& item) {
            return ApplyOp(item.op, item.origin);
          },
          [this](const Status& st) { RecordFailure(st); },
          [this](std::exception_ptr e) { RecordException(std::move(e)); },
          &failed_);
    } else {
      workers_.reserve(config_.workers);
      for (size_t i = 0; i < config_.workers; ++i) {
        workers_.push_back(std::make_unique<Worker>());
      }
      // Spawn after the vector is fully built: a worker thread must never
      // see workers_ resize under it.
      for (auto& w : workers_) {
        Worker* raw = w.get();
        raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
      }
    }
    if (config_.adaptive) {
      AdaptiveController::Options aopts = config_.adaptive_options;
      aopts.parallel_workers = num_workers();
      adaptive_ = std::make_unique<AdaptiveController>(aopts);
    }
  }
}

LogPropagator::~LogPropagator() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    std::unique_lock lock(w->mu);
    w->cv_nonempty.notify_all();
    w->cv_space.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // handoff_ (if any) stops and joins its own workers in its destructor.
}

void LogPropagator::SetSources(const std::vector<TableId>& source_ids) {
  sources_ = TableIdSet(source_ids);
  primary_source_ = source_ids.empty() ? 0 : source_ids[0];
}

Lsn LogPropagator::FloorLsn() const {
  if (handoff_) return handoff_->FloorLsn();
  Lsn floor = kLsnMax;
  for (const auto& w : workers_) {
    floor = std::min(floor, w->floor.load(std::memory_order_acquire));
  }
  return floor;
}

std::vector<PropagatorWorkerStats> LogPropagator::worker_stats() const {
  std::vector<PropagatorWorkerStats> out;
  out.reserve(num_workers() + 1);
  out.push_back(
      {inline_ops_applied_.load(std::memory_order_relaxed), /*depth=*/0});
  if (handoff_) {
    for (const HandoffWorkerStats& s : handoff_->worker_stats()) {
      out.push_back({s.ops_applied, s.max_queue_depth});
    }
    return out;
  }
  for (const auto& w : workers_) {
    out.push_back({w->ops_applied.load(std::memory_order_relaxed),
                   w->max_queue_depth.load(std::memory_order_relaxed)});
  }
  return out;
}

Status LogPropagator::ApplyOp(const Op& op, txn::LockOrigin origin) {
  MORPH_FAILPOINT("transform.propagate.worker");
  std::vector<txn::RecordId> affected;
  MORPH_RETURN_NOT_OK(
      rules_->Apply(op, config_.maintain_locks ? &affected : nullptr));
  if (config_.maintain_locks && op.txn_id != kInvalidTxnId) {
    // §3.3: locks are maintained on the transformed-table records for the
    // whole transformation; conflicts among transferred locks are
    // impossible by Figure 2, so this never blocks.
    for (const txn::RecordId& rid : affected) {
      tlocks_->AddTransferred(op.txn_id, rid, origin, txn::Access::kWrite);
    }
  }
  ops_applied_.fetch_add(1, std::memory_order_relaxed);
  MORPH_COUNTER_INC("transform.propagate.ops");
  return Status::OK();
}

void LogPropagator::RecordFailure(const Status& st) {
  {
    std::unique_lock lock(err_mu_);
    if (first_error_.ok()) first_error_ = st;
  }
  failed_.store(true, std::memory_order_release);
  // A reader blocked on a full mutex queue must re-check the failed_ flag
  // (the ring path's full-ring spin polls it directly).
  for (auto& w : workers_) {
    std::unique_lock lock(w->mu);
    w->cv_space.notify_all();
  }
}

void LogPropagator::RecordException(std::exception_ptr e) {
  {
    std::unique_lock lock(err_mu_);
    if (!exception_) exception_ = std::move(e);
  }
  failed_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    std::unique_lock lock(w->mu);
    w->cv_space.notify_all();
  }
}

Status LogPropagator::TakeFailure() {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  // Workers are in drain-and-discard mode; wait until nothing is in flight,
  // then surface the failure on this (the coordinator) thread — exceptions
  // (CrashException from a crash failpoint) must not escape a std::thread.
  // With failed_ set the ring flush inside discards instead of pushing, so
  // no failpoint re-fires here.
  if (handoff_) {
    (void)handoff_->JoinPhase();
  } else {
    WaitDrained();
  }
  std::unique_lock lock(err_mu_);
  if (exception_) std::rethrow_exception(exception_);
  return first_error_;
}

void LogPropagator::WorkerLoop(Worker* w) {
  for (;;) {
    Item item;
    {
      std::unique_lock lock(w->mu);
      w->cv_nonempty.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || !w->queue.empty();
      });
      if (w->queue.empty()) return;  // stopped and drained
      item = std::move(w->queue.front());
      w->queue.pop_front();
      w->busy = true;
      // The floor stays at the in-flight op's LSN until the apply finishes:
      // FloorLsn() must never pass an op that has not fully landed.
      w->floor.store(item.op.lsn, std::memory_order_release);
      w->cv_space.notify_all();
    }
    bool applied = false;
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        const Status st = ApplyOp(item.op, item.origin);
        if (st.ok()) {
          applied = true;
        } else {
          RecordFailure(st);
        }
      } catch (...) {
        RecordException(std::current_exception());
      }
    }
    if (applied) w->ops_applied.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock lock(w->mu);
      w->busy = false;
      w->floor.store(w->queue.empty() ? kLsnMax : w->queue.front().op.lsn,
                     std::memory_order_release);
      if (w->queue.empty()) w->cv_space.notify_all();
    }
  }
}

void LogPropagator::Enqueue(size_t worker, Item item) {
  Worker& w = *workers_[worker];
  std::unique_lock lock(w.mu);
  const auto can_enqueue = [&] {
    return w.queue.size() < config_.queue_capacity ||
           failed_.load(std::memory_order_acquire) ||
           stop_.load(std::memory_order_acquire);
  };
  if (!can_enqueue()) {
    // Backpressure: the reader is outpacing this worker. Account the stall
    // so a mistuned queue capacity or a skewed partition shows up in the
    // metrics instead of only as mysteriously low throughput.
    MORPH_COUNTER_INC("transform.propagate.backpressure_stalls");
    const auto stall_start = Clock::Now();
    w.cv_space.wait(lock, can_enqueue);
    const int64_t stall_nanos = Clock::NanosSince(stall_start);
    MORPH_HISTOGRAM_NANOS("transform.propagate.stall_nanos", stall_nanos);
    // a = op LSN the reader was trying to hand off, b = worker index.
    MORPH_TRACE("transform.propagate.stall", static_cast<int64_t>(item.op.lsn),
                static_cast<int64_t>(worker));
  }
  if (failed_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    return;  // drain-and-discard: the failure surfaces via TakeFailure()
  }
  if (w.queue.empty() && !w.busy) {
    w.floor.store(item.op.lsn, std::memory_order_release);
  }
  w.queue.push_back(std::move(item));
  // Single writer (the reader thread), so load+store needs no CAS.
  if (w.queue.size() > w.max_queue_depth.load(std::memory_order_relaxed)) {
    w.max_queue_depth.store(w.queue.size(), std::memory_order_relaxed);
  }
  w.cv_nonempty.notify_one();
}

void LogPropagator::WaitDrained() {
  for (auto& w : workers_) {
    std::unique_lock lock(w->mu);
    w->cv_space.wait(lock, [&] { return w->queue.empty() && !w->busy; });
  }
}

Status LogPropagator::DrainWorkers() {
  if (handoff_) return handoff_->JoinPhase();
  WaitDrained();
  return Status::OK();
}

void LogPropagator::FlushReleases(bool all) {
  if (pending_releases_.empty()) return;
  const Lsn floor = all ? kLsnMax : FloorLsn();
  // pending_releases_ is LSN-ascending (the reader pushes in scan order),
  // so a prefix check suffices. front.lsn < floor means every op of that
  // transaction (all at lower LSNs than its completion record) has been
  // applied — the §3.4 release rule, made barrier-free.
  while (!pending_releases_.empty() && pending_releases_.front().first < floor) {
    tlocks_->ReleaseTxn(pending_releases_.front().second);
    pending_releases_.pop_front();
  }
}

Status LogPropagator::DispatchData(Op op, txn::LockOrigin origin) {
  if (cur_workers_ > 0) {
    const RouteKey route = rules_->RoutingKey(op);
    if (route.kind == RouteKey::Kind::kKey) {
      const size_t widx = route.key.Hash() % cur_workers_;
      if (handoff_) {
        // Staged, not published: the whole scan block is pushed with one
        // release-store per worker at the end of the batch (or at the next
        // barrier), amortizing the handoff cost.
        handoff_->Stage(widx, Item{std::move(op), origin});
      } else {
        Enqueue(widx, Item{std::move(op), origin});
      }
      return Status::OK();
    }
    // Barrier op: every lower-LSN op must land first, then it runs alone on
    // the reader thread.
    MORPH_COUNTER_INC("transform.propagate.barrier_drains");
    MORPH_TRACE("transform.propagate.barrier_drain",
                static_cast<int64_t>(op.lsn), 0);
    MORPH_RETURN_NOT_OK(DrainWorkers());
    MORPH_RETURN_NOT_OK(TakeFailure());
  }
  const Status st = ApplyOp(op, origin);
  if (st.ok()) inline_ops_applied_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status LogPropagator::ProcessRecord(const wal::LogRecord& rec) {
  switch (rec.type) {
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kDelete:
    case wal::LogRecordType::kUpdate:
    case wal::LogRecordType::kClr: {
      if (!sources_.contains(rec.table_id)) return Status::OK();
      if (record_filter_ && !record_filter_(rec)) {
        MORPH_COUNTER_INC("transform.tablet.ops_skipped");
        return Status::OK();
      }
      auto op = Op::FromLogRecord(rec);
      if (!op) return Status::OK();
      const txn::LockOrigin origin = rec.table_id == primary_source_
                                         ? txn::LockOrigin::kSource0
                                         : txn::LockOrigin::kSource1;
      return DispatchData(*std::move(op), origin);
    }
    case wal::LogRecordType::kCommit:
    case wal::LogRecordType::kTxnEnd:
      // "Source table locks held in the transformed tables are released as
      // soon as the propagator has processed the [completion] log record of
      // the lock owner transaction" (§3.4). With workers, the release is
      // deferred until the floor passes this LSN (see class comment) so
      // commits do not serialize the pipeline.
      if (cur_workers_ == 0) {
        tlocks_->ReleaseTxn(rec.txn_id);
      } else {
        pending_releases_.emplace_back(rec.lsn, rec.txn_id);
      }
      return Status::OK();
    case wal::LogRecordType::kCcBegin:
    case wal::LogRecordType::kCcOk:
      // CC brackets are true barriers: the §5.3 verdict must observe every
      // lower-LSN op, or a late-arriving disturbance would be missed and an
      // unverified image blessed with a C flag.
      // a = bracket LSN, b = 0 for kCcBegin / 1 for kCcOk.
      MORPH_TRACE("transform.propagate.cc_bracket",
                  static_cast<int64_t>(rec.lsn),
                  rec.type == wal::LogRecordType::kCcOk ? 1 : 0);
      if (cur_workers_ > 0) {
        MORPH_COUNTER_INC("transform.propagate.barrier_drains");
      }
      MORPH_RETURN_NOT_OK(DrainWorkers());
      MORPH_RETURN_NOT_OK(TakeFailure());
      return rules_->OnControlRecord(rec);
    default:
      return Status::OK();
  }
}

Result<size_t> LogPropagator::PropagateRange(
    Lsn from, Lsn to, bool throttled, std::atomic<Lsn>* next_lsn,
    const std::function<bool()>& cancel) {
  size_t count = 0;
  next_lsn->store(from, std::memory_order_release);
  std::vector<wal::LogRecord> batch;
  if (num_workers() > 0) batch.reserve(config_.batch_size);
  Lsn next = from;
  Status failure;
  while (next <= to) {
    const auto batch_start = Clock::Now();
    const size_t count_before = count;
    // Pick this batch's mode. A parallel→serial transition (adaptive
    // collapse) drains the workers and flushes every deferred release
    // first, so the serial path starts from the fully-applied state its
    // eager lock releases assume.
    const size_t want =
        adaptive_ ? adaptive_->current_workers() : config_.workers;
    if (want != cur_workers_) {
      if (cur_workers_ > 0) {
        failure = DrainWorkers();
        if (failure.ok()) failure = TakeFailure();
        if (!failure.ok()) break;
        FlushReleases(/*all=*/true);
      }
      cur_workers_ = want;
    }
    const Lsn stop = std::min<Lsn>(to, next + config_.batch_size - 1);
    if (cur_workers_ == 0) {
      // Serial: zero-copy chunked scan, applying by reference under the
      // WAL's shared lock — copying every record out would make propagation
      // as expensive as the transactions that produced it (see Wal::Scan).
      // Checked: a truncation racing past the reader means records this
      // transformation never applied are gone — propagating past the hole
      // would silently lose updates, so the transformation fails instead.
      auto scanned = wal_->ScanChecked(next, stop, [&](const wal::LogRecord& rec) {
        if (!failure.ok()) return;
        failure = ProcessRecord(rec);
        count++;
      });
      if (failure.ok() && !scanned.ok()) failure = scanned.status();
    } else {
      // Parallel: copy the batch out under one brief shared-lock
      // acquisition (Wal::ScanInto), then dispatch without holding any WAL
      // lock — blocking on worker backpressure with the log's lock held
      // would stall every appender with it. The copy cost is overlapped by
      // the workers applying the previous batch.
      batch.clear();
      auto scanned = wal_->ScanIntoChecked(next, stop, config_.batch_size, &batch);
      if (!scanned.ok()) {
        failure = scanned.status();
        break;
      }
      for (const wal::LogRecord& rec : batch) {
        failure = ProcessRecord(rec);
        count++;
        if (!failure.ok()) break;
      }
      if (failure.ok() && handoff_) {
        // Publish the staged scan block: one release-store per worker.
        failure = handoff_->FlushStaged();
      }
    }
    MORPH_COUNTER_INC("transform.propagate.batches");
    MORPH_COUNTER_ADD("transform.propagate.records", count - count_before);
    // a = first LSN of the batch, b = records processed in it.
    MORPH_TRACE("transform.propagate.batch", static_cast<int64_t>(next),
                static_cast<int64_t>(count - count_before));
    const int64_t batch_nanos = Clock::NanosSince(batch_start);
    if (!failure.ok()) break;
    next = stop + 1;
    next_lsn->store(next, std::memory_order_release);
    FlushReleases(/*all=*/false);
    if (failed_.load(std::memory_order_acquire)) break;
    if (adaptive_) adaptive_->OnBatch(count - count_before, batch_nanos);
    if (throttled) {
      // The duty cycle gates the reader stage only; workers drain whatever
      // the reader admits. The slice measured is the reader's scan+dispatch
      // time, so a low-priority transformation stays a light background
      // load no matter how many workers it owns.
      priority_->OnWorkDone(batch_nanos);
      if (cancel && cancel()) break;
    }
  }
  // Whatever the exit path: leave no op in flight and no release pending,
  // so callers observe a fully applied prefix (and propagated_lsn() ==
  // reader position again).
  {
    const Status drained = DrainWorkers();
    if (failure.ok()) failure = drained;
  }
  MORPH_RETURN_NOT_OK(TakeFailure());  // rethrows a worker CrashException
  FlushReleases(/*all=*/true);
  MORPH_RETURN_NOT_OK(failure);
  return count;
}

}  // namespace morph::transform
