#include "wal/wal.h"

#include <chrono>
#include <mutex>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "wal/segment.h"
#include "wal/wal_writer.h"

namespace morph::wal {

// Out of line: the inline-defaulted special members would need the complete
// SegmentedLog/GroupCommitWriter types in every includer.
Wal::Wal() = default;

Wal::~Wal() {
  // Clean shutdown flushes what is staged; a simulated crash goes through
  // SimulateCrash() first, which abandons instead of flushing.
  if (writer_) writer_->Stop();
}

Status Wal::OpenDurable(const WalOptions& options) {
  Lsn last_replayed = kInvalidLsn;
  {
    std::unique_lock lock(mu_);
    if (segmented_) {
      return Status::InvalidArgument("Wal is already durable");
    }
    if (!records_.empty() || base_lsn_ != 1) {
      return Status::InvalidArgument("OpenDurable requires a fresh Wal");
    }
    segmented_ = std::make_unique<SegmentedLog>();
    SegmentedLog::Options sopts;
    sopts.dir = options.dir;
    sopts.segment_bytes = options.segment_bytes;
    sopts.recycle_pool_max = options.recycle_pool_max;
    sopts.quarantine_on_open = options.scrub_on_open;
    auto base = segmented_->Open(
        sopts, [this](LogRecord&& rec) { records_.push_back(std::move(rec)); });
    if (!base.ok()) {
      // Open may have replayed a prefix before failing (e.g. the quarantine
      // path returns Corruption mid-replay); drop it so a retried
      // OpenDurable on this Wal is not rejected as non-fresh.
      records_.clear();
      base_lsn_ = 1;
      segmented_.reset();
      return base.status();
    }
    base_lsn_ = *base;
    if (!records_.empty() && records_.front().lsn != base_lsn_) {
      Status st = Status::Corruption(
          "segment chain starts at LSN " +
          std::to_string(records_.front().lsn) + ", manifest base is " +
          std::to_string(base_lsn_));
      records_.clear();
      base_lsn_ = 1;
      segmented_.reset();
      return st;
    }
    last_replayed =
        records_.empty() ? base_lsn_ - 1 : records_.back().lsn;
  }
  RetryPolicy policy;
  policy.max_retries = options.flush_max_retries;
  policy.enospc_max_retries = options.flush_enospc_max_retries;
  policy.initial_backoff_micros = options.flush_initial_backoff_micros;
  policy.max_backoff_micros = options.flush_max_backoff_micros;
  // Everything replayed is durable by definition; the horizon starts there
  // so Sync on recovered records returns immediately.
  writer_ = std::make_unique<GroupCommitWriter>(
      segmented_.get(), last_replayed, policy, [this](bool stalled) {
        {
          std::lock_guard lock(gate_mu_);
          stalled_.store(stalled, std::memory_order_release);
        }
        gate_cv_.notify_all();
        // a = 1 entering the stall, 0 leaving it.
        MORPH_TRACE("wal.stall", stalled ? 1 : 0, 0);
      });
  // The durability pin: truncation must never advance the (persisted) base
  // past a record that has not been flushed — after a crash the chain would
  // claim base > durable tail and the gap would look like corruption.
  durability_pin_id_ = AddRetentionPin(
      [w = writer_.get()] { return w->durable_lsn() + 1; });
  return Status::OK();
}

Lsn Wal::Append(LogRecord rec) {
  MORPH_FAILPOINT_VOID("wal.append");
  MORPH_COUNTER_INC("wal.appends");
  // ENOSPC admission gate: while a flush is stalled waiting for space,
  // new appends queue up *here* — before an LSN is assigned, before any
  // in-memory state grows — so committers feel backpressure as latency and
  // the log does not balloon while the disk is full. The leader's retry
  // loop guarantees the stall clears (space freed or writer death), so
  // this wait is always bounded by the retry budget.
  if (writer_ && stalled_.load(std::memory_order_acquire)) {
    MORPH_COUNTER_INC("wal.stall.appends_gated");
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::unique_lock gate_lock(gate_mu_);
      gate_cv_.wait(gate_lock, [&] {
        return !stalled_.load(std::memory_order_acquire);
      });
    }
    MORPH_HISTOGRAM_NANOS(
        "wal.stall.wait_nanos",
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  Lsn lsn = kInvalidLsn;
  {
    std::unique_lock lock(mu_);
    lsn = base_lsn_ + records_.size();
    rec.lsn = lsn;
    if (segmented_) {
      std::string frame;
      AppendFrame(&frame, rec);
      Status st = segmented_->Append(lsn, frame);
      if (!st.ok() && append_error_.ok()) append_error_ = st;
    }
    records_.push_back(std::move(rec));
  }
  return lsn;
}

Status Wal::Sync(Lsn lsn) {
  // An LSN no append has assigned yet: no flush would ever reach it.
  if (const Lsn last = LastLsn(); lsn > last) {
    return Status::InvalidArgument("Sync of LSN " + std::to_string(lsn) +
                                   " past the last assigned LSN " +
                                   std::to_string(last));
  }
  {
    std::shared_lock lock(mu_);
    if (!append_error_.ok()) return append_error_;
  }
  if (!writer_) return Status::OK();
  return writer_->WaitDurable(lsn);
}

Status Wal::WaitWritable(int64_t timeout_millis) {
  {
    std::shared_lock lock(mu_);
    if (!append_error_.ok()) return append_error_;
  }
  if (!writer_) return Status::OK();
  if (stalled_.load(std::memory_order_acquire)) {
    MORPH_COUNTER_INC("wal.stall.admission_waits");
    const auto t0 = std::chrono::steady_clock::now();
    bool opened;
    {
      std::unique_lock gate_lock(gate_mu_);
      opened = gate_cv_.wait_for(
          gate_lock, std::chrono::milliseconds(timeout_millis),
          [&] { return !stalled_.load(std::memory_order_acquire); });
    }
    MORPH_HISTOGRAM_NANOS(
        "wal.stall.wait_nanos",
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (!opened) {
      return Status::NoSpace(
          "WAL admission stalled on ENOSPC for more than " +
          std::to_string(timeout_millis) +
          " ms; retry the commit after space frees");
    }
  }
  return writer_->health();
}

Status Wal::Scrub() {
  if (!segmented_) return Status::OK();
  return segmented_->Scrub();
}

Lsn Wal::durable_lsn() const {
  if (writer_) return writer_->durable_lsn();
  return LastLsn();
}

void Wal::SimulateCrash() {
  if (writer_) writer_->Abandon();
  if (segmented_) segmented_->Abandon();
  // Defensive: the leader clears the stall on its way out, but a gate left
  // shut by any path would wedge the next incarnation's test harness.
  {
    std::lock_guard lock(gate_mu_);
    stalled_.store(false, std::memory_order_release);
  }
  gate_cv_.notify_all();
}

Lsn Wal::LastLsn() const {
  std::shared_lock lock(mu_);
  // base_lsn_ - 1 is the last *assigned* LSN even when the deque is empty:
  // kInvalidLsn (0) for a brand-new log, the pre-truncation tail otherwise.
  return base_lsn_ + records_.size() - 1;
}

size_t Wal::size() const {
  std::shared_lock lock(mu_);
  return records_.size();
}

Result<LogRecord> Wal::At(Lsn lsn) const {
  std::shared_lock lock(mu_);
  if (lsn < base_lsn_ || lsn >= base_lsn_ + records_.size()) {
    return Status::NotFound("no log record with LSN " + std::to_string(lsn));
  }
  return records_[lsn - base_lsn_];
}

Result<Lsn> Wal::ScanChecked(
    Lsn from, Lsn to, const std::function<void(const LogRecord&)>& fn) const {
  if (from == kInvalidLsn) {
    return Status::InvalidArgument("ScanChecked from kInvalidLsn");
  }
  Lsn last = kInvalidLsn;
  // Zero-copy chunked scan: the shared lock is dropped between small chunks
  // so appenders keep making progress, and records are handed to `fn` by
  // reference. Copying every record out would make scanning as expensive as
  // executing the transactions that produced it — the propagator would then
  // never keep up with a busy log even at full priority.
  constexpr size_t kChunk = 128;
  Lsn next = from;
  while (next <= to) {
    std::shared_lock lock(mu_);
    // The gap check runs per chunk, not once: truncation can race past the
    // resume point between lock drops, and continuing from FirstLsn() would
    // silently skip records — the lost-update hazard the check surfaces.
    if (next < base_lsn_) {
      MORPH_COUNTER_INC("wal.scan_gap_detected");
      return Status::Corruption(
          "WAL gap: scan resume point " + std::to_string(next) +
          " was truncated away (log now starts at " +
          std::to_string(base_lsn_) + ")");
    }
    if (records_.empty()) break;
    const Lsn end = std::min<Lsn>(to, base_lsn_ + records_.size() - 1);
    if (next > end) break;
    const Lsn stop = std::min<Lsn>(end, next + kChunk - 1);
    for (Lsn l = next; l <= stop; ++l) {
      fn(records_[l - base_lsn_]);
      last = l;
    }
    next = stop + 1;
  }
  return last;
}

void Wal::TruncateBefore(Lsn keep_from) {
  MORPH_FAILPOINT_VOID("wal.truncate");
  MORPH_COUNTER_INC("wal.truncates");
  // Clamp below every retention pin *before* taking the log lock. Pin
  // floors only move forward (a propagator's watermark never retreats), so
  // a floor read here remains a safe bound even if its owner advances while
  // we truncate; the worst case is keeping a few extra records.
  {
    std::lock_guard pins_lock(pins_mu_);
    for (const auto& [id, floor_fn] : pins_) {
      const Lsn floor = floor_fn();
      if (floor != kInvalidLsn && floor < keep_from) {
        keep_from = floor;
        MORPH_COUNTER_INC("wal.truncate_clamped");
      }
    }
  }
  // Move the truncated prefix out under the lock and destroy it outside:
  // freeing tens of thousands of records must not stall concurrent
  // appenders (every transaction operation appends).
  std::vector<LogRecord> graveyard;
  size_t dropped = 0;
  {
    std::unique_lock lock(mu_);
    if (keep_from <= base_lsn_) return;
    const size_t n = std::min<size_t>(keep_from - base_lsn_, records_.size());
    graveyard.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      graveyard.push_back(std::move(records_.front()));
      records_.pop_front();
    }
    base_lsn_ += n;
    dropped = n;
  }
  if (segmented_) {
    // Segment GC: the durability pin above already clamped keep_from at the
    // flush horizon, so the persisted base can never pass an unflushed
    // record. Errors are recorded, not returned — truncation is advisory
    // and the worst case is segments lingering until the next pass.
    const Status st = segmented_->RecycleBefore(keep_from);
    if (!st.ok()) MORPH_COUNTER_INC("wal.recycle_errors");
    // Freed segments are exactly what an ENOSPC-stalled flush is waiting
    // for: wake the leader out of its backoff so the stall clears now, not
    // a backoff period from now.
    if (st.ok() && writer_) writer_->Nudge();
  }
  MORPH_COUNTER_ADD("wal.records_truncated", dropped);
  // a = new first LSN, b = records dropped.
  MORPH_TRACE("wal.truncate", static_cast<int64_t>(keep_from),
              static_cast<int64_t>(dropped));
}

uint64_t Wal::AddRetentionPin(std::function<Lsn()> floor_fn) {
  std::lock_guard lock(pins_mu_);
  const uint64_t id = next_pin_id_++;
  pins_[id] = std::move(floor_fn);
  return id;
}

void Wal::RemoveRetentionPin(uint64_t id) {
  std::lock_guard lock(pins_mu_);
  pins_.erase(id);
}

Lsn Wal::FirstLsn() const {
  std::shared_lock lock(mu_);
  return base_lsn_;
}

}  // namespace morph::wal
