#include "wal/wal_writer.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace morph::wal {

void GroupCommitWriter::Stop() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return !flushing_; });
  if (dead_) return;
  flushing_ = true;
  Lead(lock);
}

void GroupCommitWriter::Abandon() {
  std::unique_lock lock(mu_);
  if (!dead_) {
    dead_ = true;
    death_status_ = Status::Internal("WAL writer abandoned (simulated crash)");
  }
  // Wakes followers into the death and a leader out of its backoff.
  cv_.notify_all();
  cv_.wait(lock, [&] { return !flushing_; });
}

void GroupCommitWriter::Nudge() {
  {
    std::lock_guard lock(mu_);
    nudged_ = true;
  }
  cv_.notify_all();
}

Status GroupCommitWriter::WaitDurable(Lsn lsn) {
  std::unique_lock lock(mu_);
  for (;;) {
    // Durability first: records flushed before the writer died are durable
    // regardless of how it died.
    if (durable_lsn() >= lsn) return Status::OK();
    if (dead_) {
      if (!crash_site_.empty()) throw CrashException(crash_site_);
      return death_status_;
    }
    if (!flushing_) {
      flushing_ = true;
      Lead(lock);
    } else {
      cv_.wait(lock);
    }
  }
}

Status GroupCommitWriter::health() const {
  std::lock_guard lock(mu_);
  return dead_ ? death_status_ : Status::OK();
}

void GroupCommitWriter::Lead(std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  // Stall state is leader-local; the callback fans it out to the Wal's
  // admission gate. It is cleared before leadership ends — a gate that stays
  // shut after the writer died would wedge appenders forever.
  bool stalled = false;
  const auto set_stall = [&](bool s) {
    if (stalled == s) return;
    stalled = s;
    // Two separate macro sites: MORPH_COUNTER_INC caches its Counter* in a
    // function-local static, so one site with a ternary name would bind to
    // whichever counter it resolved first and miscount the other forever.
    if (s) {
      MORPH_COUNTER_INC("wal.stall.entered");
    } else {
      MORPH_COUNTER_INC("wal.stall.exited");
    }
    if (on_stall_) on_stall_(s);
  };

  // Appends block on the segment lock while a flush writes and fsyncs, so
  // the committers of the previous flush are still staging when the first
  // of them gets here. One yield lets them stage first and join this flush;
  // without it a flush under load covers little more than its leader's
  // record (fig_wal_commit on a 4-core ext4 host: 3.9 instead of 7.0
  // commits per flush at 8 committers). A lone committer pays one syscall.
  std::this_thread::yield();

  Lsn tail = kInvalidLsn;
  Status st;
  std::string crash_site;
  try {
    // Manual evaluation: MORPH_FAILPOINT would `return` from here and skip
    // the handover below. A crash action throws CrashException.
    if (Failpoints::armed()) {
      st = Failpoints::Instance().Evaluate("wal.group_commit.flush");
    }
    if (st.ok()) {
      int transient_retries = 0;
      int enospc_retries = 0;
      int64_t backoff_micros =
          std::max<int64_t>(1, policy_.initial_backoff_micros);
      for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        Result<Lsn> flushed = log_->Flush();
        st = flushed.status();
        if (st.ok()) tail = *flushed;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0);
        MORPH_HISTOGRAM_NANOS("wal.group_commit.flush_nanos",
                              elapsed.count());
        if (st.ok() || !st.IsRetryable()) break;
        // Retryable failure: the SegmentedLog kept the staged records and
        // will repair (rotate to a fresh segment) on the next Flush —
        // committers see latency, not an error, and no record is acked off
        // the failed fsync's descriptor.
        const bool nospace = st.IsNoSpace();
        set_stall(nospace);
        int& retries = nospace ? enospc_retries : transient_retries;
        const int budget =
            nospace ? policy_.enospc_max_retries : policy_.max_retries;
        if (++retries > budget) {
          st = Status::PermanentIOError(
              "WAL flush retry budget exhausted (" + std::to_string(budget) +
              (nospace ? " ENOSPC" : " transient") +
              " retries); last error: " + st.ToString());
          break;
        }
        MORPH_COUNTER_INC("wal.flush.retries");
        // Interruptible backoff: Nudge() (truncation freed segments) retries
        // without waiting out the timer, Abandon() ends the flush at once.
        lock.lock();
        nudged_ = false;
        cv_.wait_for(lock, std::chrono::microseconds(backoff_micros),
                     [&] { return nudged_ || dead_; });
        const bool abandoned = dead_;
        lock.unlock();
        if (abandoned) break;
        backoff_micros =
            std::min(backoff_micros * 2, policy_.max_backoff_micros);
      }
    }
  } catch (const CrashException& e) {
    crash_site = e.point();
    st = Status::Internal("group-commit writer crashed");
  }
  set_stall(false);

  const Lsn prev = durable_lsn();
  // A flush that found nothing new staged (an idle Stop) leaves the tail
  // where it was: no batch to count, no horizon to move.
  if (tail > prev) {
    // The batch this one flush made durable — the group-commit win.
    MORPH_HISTOGRAM_VALUE("wal.group_commit.batch_size",
                          static_cast<int64_t>(tail - prev));
    MORPH_COUNTER_INC("wal.group_commit.flushes");
  }
  lock.lock();
  // Death is decided before leadership is released, so no follower flushes
  // after it. The horizon and flushing_ change under mu_: a follower checks
  // them under the same lock, so publishing without it could slip between
  // the follower's check and its wait — a lost wakeup.
  if (!st.ok() && !dead_) {
    dead_ = true;
    death_status_ = st;
    crash_site_ = std::move(crash_site);
  }
  if (tail > prev) durable_lsn_.store(tail, std::memory_order_release);
  flushing_ = false;
  cv_.notify_all();
}

}  // namespace morph::wal
