#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wal/log_record.h"

namespace morph::wal {

class SegmentedLog;
class GroupCommitWriter;

/// \brief Configuration for the durable (disk-backed) WAL mode.
///
/// The default-constructed Wal is purely in-memory — the paper prototype's
/// configuration and the default for unit tests. Calling Wal::OpenDurable
/// with a directory attaches a SegmentedLog backend: every append is framed
/// into fixed-size segment files, leader–follower group commit batches
/// flushes on the committers' own threads, and the chain survives process
/// death.
struct WalOptions {
  std::string dir;
  /// Segment rotation threshold in payload bytes.
  size_t segment_bytes = 256 * 1024;
  /// Max recycled segment files kept for reuse.
  size_t recycle_pool_max = 4;
  /// Group-commit flush retry budgets (see wal::RetryPolicy): transient
  /// faults get `flush_max_retries` attempts with capped exponential
  /// backoff; ENOSPC gets the far more patient `flush_enospc_max_retries`
  /// while truncation frees segments. The leader of a flush runs the
  /// retries; exhausting either budget kills the writer.
  int flush_max_retries = 8;
  int flush_enospc_max_retries = 200;
  int64_t flush_initial_backoff_micros = 200;
  int64_t flush_max_backoff_micros = 50'000;
  /// OpenDurable's replay already verifies every frame checksum; with this
  /// set, mid-chain damage additionally quarantines the damaged segment and
  /// its successors (rename to quarantine-<id>.bad, manifest rewritten to
  /// the clean prefix). OpenDurable still fails loudly with Corruption
  /// naming the lost LSN range; the *next* OpenDurable recovers the
  /// surviving prefix instead of failing forever.
  bool scrub_on_open = false;
};

/// \brief The write-ahead log.
///
/// An append-only, totally ordered sequence of LogRecords. Appends assign
/// strictly increasing LSNs starting at 1. The log is the *only* channel the
/// transformation framework uses to observe user-transaction activity
/// (paper abstract: "Only the log is used for change propagation"), so the
/// read side exposes random access by LSN plus range scans that a background
/// propagator can issue while writers keep appending.
///
/// Thread safety: all methods are safe to call concurrently, except
/// OpenDurable / SimulateCrash which are setup/teardown-time and require
/// external quiescence.
///
/// Durability has one path, the segmented backend (OpenDurable): appends
/// stream into segment files, Sync() blocks on the group-commit durable
/// horizon, truncation recycles whole segments, and the next incarnation
/// replays the chain. A default-constructed Wal is "durability off": it
/// lives in memory only and Sync() waits for nothing.
class Wal {
 public:
  Wal();
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief Attaches a SegmentedLog backend rooted at `options.dir`,
  /// replaying any existing chain into memory (the in-memory deque remains
  /// the read path; segments are the durability path). Must be called on a
  /// fresh Wal before any append. Adopts the chain's persisted base LSN even
  /// when no records survive — a fully truncated log must not re-issue LSNs.
  /// Seeds the group-commit durable horizon at the last replayed record (no
  /// thread is started) and registers an internal retention pin at that
  /// horizon so truncation can never discard a record that has not been
  /// flushed yet.
  Status OpenDurable(const WalOptions& options);

  /// \brief True when a segmented backend is attached.
  bool durable() const { return segmented_ != nullptr; }

  /// \brief Appends a record; assigns and returns its LSN (also stored into
  /// `rec->lsn`). In durable mode the record's frame is staged in the
  /// segmented log and nothing else: the append starts no flush, so the
  /// record reaches disk with the next flush a Sync leads (or a segment
  /// rotation, or the final flush of a clean shutdown). Durability is only
  /// guaranteed after Sync.
  Lsn Append(LogRecord rec);

  /// \brief Blocks until `lsn` is durable. Returns InvalidArgument for an
  /// LSN past LastLsn(), in either mode. In-memory mode: otherwise a no-op
  /// (the in-memory model treats every append as instantly durable).
  /// Durable mode: when the horizon is behind `lsn` and no flush is in
  /// progress, the caller leads one on its own thread; otherwise it
  /// follows, waiting for the flush in flight. One flush covers every
  /// record staged so far, so concurrent committers share it. Surfaces any
  /// flush I/O error or injected fault, as a CrashException for a crash.
  Status Sync(Lsn lsn);

  /// \brief Admission check for new commits. Returns OK immediately when
  /// the log is healthy. While a flush is stalled on ENOSPC, waits up to
  /// `timeout_millis` for the stall to clear (truncation freeing segments),
  /// then returns a retryable Status::NoSpace — so a caller can refuse the
  /// commit *before* applying anything, instead of halting after an
  /// unsyncable apply. Also surfaces a dead writer's terminal status and
  /// any recorded append error.
  Status WaitWritable(int64_t timeout_millis = 1000);

  /// \brief Re-reads every closed segment of the durable chain and verifies
  /// header, checksums, decodability and LSN contiguity (see
  /// SegmentedLog::Scrub). OK in in-memory mode.
  Status Scrub();

  /// \brief Highest durable LSN: LastLsn() in in-memory mode, the
  /// group-commit flush horizon in durable mode.
  Lsn durable_lsn() const;

  /// \brief LSN of the last *assigned* record. Returns kInvalidLsn only when
  /// no LSN was ever assigned (brand-new log). After truncation — even full
  /// truncation that empties the log — this keeps returning the last
  /// assigned LSN (== FirstLsn()-1 when empty), NOT kInvalidLsn: callers
  /// like the checkpointer use it as a guard horizon and a reset to
  /// kInvalidLsn would re-admit already-consumed LSNs.
  Lsn LastLsn() const;

  /// \brief Number of records in the log.
  size_t size() const;

  /// \brief Fetches a copy of the record at `lsn`.
  Result<LogRecord> At(Lsn lsn) const;

  /// \brief Invokes `fn` on every record with `from <= lsn <= to`, in LSN
  /// order. `to` may exceed LastLsn(); the scan stops at the current end.
  /// Returns the last LSN visited (kInvalidLsn if the range is empty).
  ///
  /// A gap is an error: if `from` (or the resume point of any chunk) has
  /// been truncated away, returns Corruption instead of silently skipping
  /// records — the lost-update hazard retention pins exist to prevent, made
  /// detectable by the reader.
  ///
  /// Zero-copy: `fn` receives a reference into the log, valid only for the
  /// duration of the call, and runs while a shared lock on the log is held
  /// (released every few records so appenders make progress). `fn` must
  /// therefore not call back into this Wal — the log propagator, the main
  /// scanner, never does: propagation writes tables, not log records.
  Result<Lsn> ScanChecked(Lsn from, Lsn to,
                          const std::function<void(const LogRecord&)>& fn) const;

  /// \brief Discards records with lsn < `keep_from` (log archiving /
  /// checkpoint truncation). At() treats the dropped range as absent and
  /// ScanChecked() reports it as a gap.
  /// In durable mode, closed segments whose records all fall below the
  /// (clamped) floor are recycled and the floor is persisted as the chain's
  /// base LSN.
  ///
  /// `keep_from` is clamped below every registered retention pin (see
  /// AddRetentionPin), so a checkpointer or log janitor that computes its
  /// floor without knowledge of an in-flight transformation cannot discard
  /// records the propagator has not consumed yet — its next ScanChecked
  /// would fail on the gap.
  /// A clamped call bumps the `wal.truncate_clamped` counter.
  void TruncateBefore(Lsn keep_from);

  /// \brief Registers a retention pin: `floor_fn` returns the oldest LSN its
  /// owner still needs (records with lsn >= floor are kept), or kInvalidLsn
  /// for "no constraint right now". The function is called during
  /// TruncateBefore with the pin lock (not the log lock) held; it must be
  /// cheap, non-blocking, and must not call back into this Wal. Floors may
  /// only move forward, which is what makes a pre-truncate read of the
  /// floor a safe bound against a concurrently advancing owner.
  /// Returns an id for RemoveRetentionPin.
  uint64_t AddRetentionPin(std::function<Lsn()> floor_fn);
  void RemoveRetentionPin(uint64_t id);

  /// \brief First LSN still present (kInvalidLsn+1 == 1 if never truncated,
  /// or LastLsn()+1 for an empty/new log).
  Lsn FirstLsn() const;

  /// \brief Simulates process death for the durable backend: the
  /// group-commit writer is marked dead WITHOUT a final flush (an in-flight
  /// leader is waited for) and staged bytes are discarded, exactly as a
  /// real crash would lose unsynced writes. The crash-matrix harness calls
  /// this after catching CrashException so the dead incarnation's destructor
  /// cannot leak "lost" bytes to disk.
  /// No-op for an in-memory log.
  void SimulateCrash();

  /// \brief The segmented backend, for tests and metrics (nullptr when
  /// in-memory).
  const SegmentedLog* segmented_log() const { return segmented_.get(); }

 private:
  mutable std::shared_mutex mu_;
  /// ENOSPC admission gate: set/cleared by the leader's stall callback.
  /// Appends block on gate_cv_ while stalled; the leader's retry loop
  /// guarantees the stall always clears (space freed, or writer death).
  std::atomic<bool> stalled_{false};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  /// LSN of records_[0]; grows when the prefix is truncated.
  Lsn base_lsn_ = 1;
  std::deque<LogRecord> records_;
  /// First error from staging frames into the segmented backend; surfaced
  /// by Sync (Append cannot return a Status).
  Status append_error_;

  /// Durable mode (null in the default in-memory configuration).
  std::unique_ptr<SegmentedLog> segmented_;
  std::unique_ptr<GroupCommitWriter> writer_;
  uint64_t durability_pin_id_ = 0;

  /// Retention pins, under their own lock so registering/evaluating a pin
  /// never contends with the append path.
  mutable std::mutex pins_mu_;
  uint64_t next_pin_id_ = 1;
  std::map<uint64_t, std::function<Lsn()>> pins_;
};

}  // namespace morph::wal
