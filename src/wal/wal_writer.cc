#include "wal/wal_writer.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace morph::wal {

GroupCommitWriter::~GroupCommitWriter() { Stop(); }

void GroupCommitWriter::Start(Lsn initial_durable) {
  std::lock_guard lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  requested_ = initial_durable;
  durable_lsn_.store(initial_durable, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void GroupCommitWriter::Stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mu_);
  started_ = false;
}

void GroupCommitWriter::Abandon() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    stop_ = true;
    abandon_ = true;
    if (!dead_) {
      dead_ = true;
      death_status_ = Status::Internal("WAL writer abandoned (simulated crash)");
    }
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mu_);
  started_ = false;
}

void GroupCommitWriter::Nudge() {
  {
    std::lock_guard lock(mu_);
    nudged_ = true;
  }
  work_cv_.notify_all();
}

Status GroupCommitWriter::WaitDurable(Lsn lsn) {
  std::unique_lock lock(mu_);
  if (!started_ && durable_lsn() < lsn) {
    return Status::Internal("group-commit writer is not running");
  }
  if (lsn > durable_lsn() && lsn > requested_) {
    // The flush request: one flush covers everything staged so far, so a
    // writer already flushing toward a higher LSN needs no second wakeup.
    requested_ = lsn;
    work_cv_.notify_one();
  }
  done_cv_.wait(lock, [&] { return durable_lsn() >= lsn || dead_; });
  // Durability first: records the writer flushed before dying are durable
  // regardless of how it died.
  if (durable_lsn() >= lsn) return Status::OK();
  if (crash_) std::rethrow_exception(crash_);
  return death_status_;
}

Status GroupCommitWriter::health() const {
  std::lock_guard lock(mu_);
  return dead_ ? death_status_ : Status::OK();
}

void GroupCommitWriter::Run() {
  // Stall state is writer-local; the callback fans it out to the Wal's
  // admission gate. Every exit path below clears it — a gate that stays
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
  for (;;) {
    bool stopping = false;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || requested_ > durable_lsn(); });
      if (abandon_) return;  // simulated crash: pending work stays lost
      stopping = stop_;
    }

    Lsn tail = kInvalidLsn;
    Status st;
    try {
      // Manual evaluation: MORPH_FAILPOINT would `return` from Run() and
      // silently kill the thread. A crash action throws CrashException,
      // funneled to the committers blocked in WaitDurable below.
      if (Failpoints::armed()) {
        st = Failpoints::Instance().Evaluate("wal.group_commit.flush");
      }
      if (st.ok()) {
        int transient_retries = 0;
        int enospc_retries = 0;
        int64_t backoff_micros = std::max<int64_t>(
            1, policy_.initial_backoff_micros);
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
          // committers in WaitDurable see latency, not an error, and no
          // record is acked off the failed fsync's descriptor.
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
          bool abandoned = false;
          {
            // Interruptible backoff: Stop() drains through the remaining
            // retries, Abandon() bails immediately, Nudge() (truncation
            // freed segments) retries without waiting out the timer.
            std::unique_lock lock(mu_);
            nudged_ = false;
            work_cv_.wait_for(lock, std::chrono::microseconds(backoff_micros),
                              [&] { return stop_ || nudged_; });
            abandoned = abandon_;
          }
          if (abandoned) {
            set_stall(false);
            return;
          }
          backoff_micros =
              std::min(backoff_micros * 2, policy_.max_backoff_micros);
        }
      }
      set_stall(false);
    } catch (...) {
      set_stall(false);
      std::lock_guard lock(mu_);
      dead_ = true;
      death_status_ = Status::Internal("group-commit writer crashed");
      crash_ = std::current_exception();
      done_cv_.notify_all();
      return;
    }
    if (!st.ok()) {
      std::lock_guard lock(mu_);
      dead_ = true;
      death_status_ = st;
      done_cv_.notify_all();
      return;
    }

    const Lsn prev = durable_lsn();
    // A flush that found nothing new staged (an idle Stop's drain) leaves
    // the tail where it was: no batch to count, no horizon to move.
    if (tail > prev) {
      // The batch this one flush made durable — the group-commit win.
      MORPH_HISTOGRAM_VALUE("wal.group_commit.batch_size",
                            static_cast<int64_t>(tail - prev));
      MORPH_COUNTER_INC("wal.group_commit.flushes");
    }
    bool drained = false;
    {
      // The horizon must advance under mu_: a committer in WaitDurable
      // evaluates its predicate under the same lock, so storing + notifying
      // without it can slip between the waiter's check and its block — a
      // lost wakeup that hangs a lone committer forever.
      std::lock_guard lock(mu_);
      if (tail > prev) durable_lsn_.store(tail, std::memory_order_release);
      // Drained: the flush after Stop covered everything staged before it,
      // and no waiter asks for a record appended since.
      drained = stopping && requested_ <= durable_lsn();
    }
    done_cv_.notify_all();
    if (drained) return;
  }
}

}  // namespace morph::wal
