#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "wal/segment.h"

namespace morph::wal {

/// \brief Flush retry/backoff policy for group commit.
///
/// Transient faults (Status subcode kTransient — a disk hiccup's EIO) are
/// retried up to `max_retries` times with capped exponential backoff.
/// ENOSPC (subcode kNoSpace) gets its own, far more patient budget: the
/// disk stays full until something frees space (checkpoint-driven WAL
/// truncation), so the flush stalls — surfacing backpressure to committers
/// as latency — rather than giving up. Either budget exhausting, or any
/// non-retryable fault, kills the writer with a descriptive terminal
/// Status (the engine's halt path).
struct RetryPolicy {
  int max_retries = 8;
  int enospc_max_retries = 200;
  int64_t initial_backoff_micros = 200;
  int64_t max_backoff_micros = 50'000;  // 50 ms cap
};

/// \brief Leader–follower group commit: turns many concurrent commits into
/// few segment flushes, with no thread of its own.
///
/// Appenders stage frames into the SegmentedLog (cheap, in-memory) and never
/// touch the writer. A committer that waits in WaitDurable() on an LSN past
/// the durable horizon, and finds no flush in progress, becomes the leader:
/// on its own thread it performs ONE Flush() covering every record staged so
/// far, publishes the durable tail that flush reached as the horizon, and
/// wakes everyone waiting. Committers that arrive while a flush is in flight
/// are followers: they wait, and when the flush ends either their record is
/// durable or one of them leads the next flush, which covers all of them
/// (classic group commit). Records nobody waits for cost no flush of their
/// own; Stop() runs one final flush at clean shutdown.
///
/// Failure semantics: the failpoint `wal.group_commit.flush` is evaluated by
/// the leader before each flush. A *retryable* I/O failure (see RetryPolicy)
/// is retried with backoff — the SegmentedLog's fsync-gate repair rotates to
/// a fresh segment under the covers, so no ack ever depends on re-fsyncing a
/// descriptor whose fsync already failed. A crash action (CrashException),
/// an exhausted budget or a permanent fault marks the writer dead before the
/// leader gives up leadership, so no follower flushes after the death.
/// Records at or below the durable horizon stay durable; every current and
/// future WaitDurable beyond it observes the failure — a crash as a
/// CrashException for the same site, thrown on the leader's and every
/// follower's thread, so the harness's Database-boundary catch sees the
/// simulated process death.
class GroupCommitWriter {
 public:
  /// \brief `initial_durable` seeds the horizon — after recovery, every
  /// replayed record is already durable and Sync on it must not wait.
  /// `on_stall` is invoked by the leader when it enters (true) or leaves
  /// (false) an ENOSPC stall; the Wal uses it to open/close the append
  /// admission gate. It must not call back into this writer.
  GroupCommitWriter(SegmentedLog* log, Lsn initial_durable,
                    const RetryPolicy& policy,
                    std::function<void(bool)> on_stall)
      : log_(log),
        policy_(policy),
        on_stall_(std::move(on_stall)),
        durable_lsn_(initial_durable) {}
  GroupCommitWriter(const GroupCommitWriter&) = delete;
  GroupCommitWriter& operator=(const GroupCommitWriter&) = delete;

  /// \brief Clean shutdown: waits for an in-flight leader, then runs one
  /// final flush of everything staged. Never throws; a crash there is
  /// recorded as death.
  void Stop();
  /// \brief Marks the writer dead and waits for an in-flight leader WITHOUT
  /// flushing pending work — the simulated process death path.
  /// Staged-but-unflushed records stay lost, exactly as a real crash would
  /// lose them.
  void Abandon();

  /// \brief Cuts a leader's retry backoff short — called after WAL
  /// truncation recycles segments, because freed space is exactly what an
  /// ENOSPC-stalled flush is waiting for.
  void Nudge();

  /// \brief Blocks until `lsn` is durable, leading a flush when the horizon
  /// is behind it and none is in progress. `lsn` must already be staged in
  /// the log (Wal::Sync checks it was assigned). Returns the writer's
  /// terminal Status if it died first (throwing CrashException for crash
  /// failpoints); records below an already-advanced horizon succeed even
  /// after death.
  Status WaitDurable(Lsn lsn);

  /// \brief OK while the writer is alive; its terminal Status after death.
  Status health() const;

  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }

 private:
  /// Runs one flush as the leader. Called and returns with `lock` held and
  /// `flushing_` set; drops the lock while it flushes.
  void Lead(std::unique_lock<std::mutex>& lock);

  SegmentedLog* log_;
  const RetryPolicy policy_;
  const std::function<void(bool)> on_stall_;
  mutable std::mutex mu_;
  /// Followers wait here for the horizon, death or the end of a flush; a
  /// leader in backoff waits here for a nudge.
  std::condition_variable cv_;
  std::atomic<Lsn> durable_lsn_;
  bool flushing_ = false;      ///< a leader is flushing (under mu_)
  bool nudged_ = false;        ///< truncation freed space; skip the backoff
  bool dead_ = false;
  Status death_status_;        ///< terminal error when dead_ (under mu_)
  std::string crash_site_;     ///< failpoint of a crash death, else empty
};

}  // namespace morph::wal
