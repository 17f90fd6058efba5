#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "common/types.h"
#include "wal/segment.h"

namespace morph::wal {

/// \brief Flush retry/backoff policy for the group-commit writer.
///
/// Transient faults (Status subcode kTransient — a disk hiccup's EIO) are
/// retried up to `max_retries` times with capped exponential backoff.
/// ENOSPC (subcode kNoSpace) gets its own, far more patient budget: the
/// disk stays full until something frees space (checkpoint-driven WAL
/// truncation), so the writer stalls — surfacing backpressure to committers
/// as latency — rather than giving up. Either budget exhausting, or any
/// non-retryable fault, kills the writer with a descriptive terminal
/// Status (the engine's halt path).
struct RetryPolicy {
  int max_retries = 8;
  int enospc_max_retries = 200;
  int64_t initial_backoff_micros = 200;
  int64_t max_backoff_micros = 50'000;  // 50 ms cap
};

/// \brief Group-commit writer: one background thread that turns many
/// concurrent commits into few segment flushes.
///
/// Appenders stage frames into the SegmentedLog (cheap, in-memory) and never
/// touch the writer. The writer flushes on demand: it wakes only when a
/// committer blocks in WaitDurable() on an LSN past the durable horizon, or
/// when Stop() drains. It then performs ONE Flush() covering every record
/// staged so far and adopts the durable tail that flush reached as its
/// horizon, so a flush that takes one disk round-trip absorbs every commit
/// that arrived while the previous flush was in flight (classic group
/// commit), and records nobody waits for cost no flush of their own.
///
/// Failure semantics: the failpoint `wal.group_commit.flush` is evaluated on
/// the writer thread before each flush. A crash action (CrashException)
/// marks the writer dead immediately. A *retryable* I/O failure (see
/// RetryPolicy) is retried with backoff — the SegmentedLog's fsync-gate
/// repair rotates to a fresh segment under the covers, so no ack ever
/// depends on re-fsyncing a descriptor whose fsync already failed. Only an
/// exhausted budget or a permanent fault marks the writer dead; records at
/// or below the durable horizon stay durable, and every current and future
/// WaitDurable beyond it observes the failure — a crash is rethrown on the
/// waiter's thread so the harness's Database-boundary catch sees the
/// simulated process death.
class GroupCommitWriter {
 public:
  explicit GroupCommitWriter(SegmentedLog* log) : log_(log) {}
  ~GroupCommitWriter();
  GroupCommitWriter(const GroupCommitWriter&) = delete;
  GroupCommitWriter& operator=(const GroupCommitWriter&) = delete;

  /// \brief Sets the retry policy. Call before Start.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

  /// \brief Registers a callback invoked from the writer thread when it
  /// enters (true) or leaves (false) an ENOSPC stall. The Wal uses it to
  /// open/close the append admission gate. Call before Start. The callback
  /// must not call back into this writer.
  void set_stall_callback(std::function<void(bool)> cb) {
    on_stall_ = std::move(cb);
  }

  /// \brief Starts the writer with the durable horizon seeded at
  /// `initial_durable` — after recovery, every replayed record is already
  /// durable and Sync on it must not wait.
  void Start(Lsn initial_durable = 0);
  /// \brief Drains staged work with a final flush, then joins the thread.
  void Stop();
  /// \brief Joins the thread WITHOUT flushing pending work — the simulated
  /// process death path. Staged-but-unflushed records stay lost, exactly as
  /// a real crash would lose them.
  void Abandon();

  /// \brief Wakes the writer out of a retry backoff early — called after
  /// WAL truncation recycles segments, because freed space is exactly what
  /// an ENOSPC-stalled flush is waiting for.
  void Nudge();

  /// \brief Blocks until `lsn` is durable, asking the writer for a flush
  /// when the horizon is behind it. `lsn` must already be staged in the
  /// log (Wal::Sync checks it was assigned). Returns the writer's terminal
  /// Status if it died first (rethrowing CrashException for crash
  /// failpoints); records below an already-advanced horizon succeed even
  /// after death.
  Status WaitDurable(Lsn lsn);

  /// \brief OK while the writer is alive; its terminal Status after death.
  Status health() const;

  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }

 private:
  void Run();

  SegmentedLog* log_;
  RetryPolicy policy_;
  std::function<void(bool)> on_stall_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< writer waits for a flush request
  std::condition_variable done_cv_;  ///< committers wait for durability
  Lsn requested_ = 0;                ///< highest LSN waited on (under mu_)
  std::atomic<Lsn> durable_lsn_{0};
  bool started_ = false;
  bool stop_ = false;
  bool abandon_ = false;
  bool nudged_ = false;        ///< truncation freed space; skip the backoff
  bool dead_ = false;
  Status death_status_;        ///< terminal error when dead_ (under mu_)
  std::exception_ptr crash_;   ///< CrashException from the writer thread
};

}  // namespace morph::wal
