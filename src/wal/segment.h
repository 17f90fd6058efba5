#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "common/status.h"
#include "wal/log_record.h"

namespace morph::wal {

/// FNV-1a over a record's encoded payload. The on-disk framing stores it so
/// a torn or corrupted tail is detected instead of decoded as garbage.
uint32_t FrameChecksum(std::string_view data);

/// Appends one framed record ([u32 payload size][u32 FNV-1a][payload]) to
/// `out`.
void AppendFrame(std::string* out, const LogRecord& rec);

/// \brief Disk-backed segmented log chain: the durable backend behind `Wal`.
///
/// Layout of the directory:
///
///   wal.manifest            base LSN + ordered segment list (atomic rename)
///   seg-<id>.wal            framed records, ascending contiguous LSNs
///   recycle-<k>.pool        closed segments kept for file reuse
///   quarantine-<id>.bad     damaged segments set aside by the scrub
///
/// Each segment file starts with a fixed header (magic, version, segment id,
/// first LSN) followed by `[size][fnv1a][payload]` frames, so a torn tail is
/// detected by its checksum. Records never span segments: a record that
/// would overflow the size threshold closes the current segment and opens
/// the next one.
///
/// Recovery contract (ARIES tail discipline): a torn or checksum-failing
/// frame is tolerated only at the end of the *last* segment — the expected
/// artifact of a crash mid-flush — and the file is truncated back to the
/// last valid frame so the next incarnation appends after a clean tail.
/// The same damage anywhere else in the chain means the middle of the log
/// is gone and replay past it would silently drop committed work, so it is
/// reported as Corruption, never skipped. A checksum-valid frame that fails
/// to decode is a writer bug and is Corruption wherever it appears. With
/// `Options::quarantine_on_open` set, mid-chain damage additionally sets the
/// damaged segment and every successor aside as `quarantine-<id>.bad` and
/// rewrites the manifest to the clean prefix, so the *next* Open recovers
/// everything up to the damage instead of failing forever.
///
/// Fault tolerance (fsync-gate): every disk touch goes through IoEnv, so
/// any single I/O can be failed deterministically by a failpoint. A
/// retryable flush failure (transient EIO, ENOSPC) leaves the staged buffer
/// intact and marks the log dirty; the next Flush runs a *repair* that
/// truncates the current segment back to its durable prefix via a fresh
/// descriptor, closes it, and rewrites the staged records into a brand-new
/// segment. The failed descriptor is never fsynced again — after a failed
/// fsync the kernel may have dropped the dirty pages and cleared the error,
/// so a second fsync on the same fd reporting success would be a lie.
///
/// Thread safety: all methods take an internal mutex. Append/Flush are
/// expected to be driven by one writer (the group-commit thread or an
/// inline synchronous appender); RecycleBefore runs on whatever thread the
/// log janitor uses.
class SegmentedLog {
 public:
  struct Options {
    std::string dir;
    /// Rotation threshold: a segment is closed once its payload bytes reach
    /// this. Small values are useful in tests to force multi-segment chains.
    size_t segment_bytes = 256 * 1024;
    /// Closed segments recycled below the retention floor are renamed into a
    /// reuse pool of at most this many files (the rest are deleted), so a
    /// steady-state log rotates through preallocated names instead of
    /// creating files forever.
    size_t recycle_pool_max = 4;
    /// When Open finds mid-chain damage, quarantine the damaged segment and
    /// its successors (rename to quarantine-<id>.bad, manifest rewritten to
    /// the clean prefix) instead of leaving the chain permanently
    /// unopenable. Open still returns Corruption naming the lost LSN range;
    /// the follow-up Open succeeds on the surviving prefix.
    bool quarantine_on_open = false;
  };

  SegmentedLog() = default;
  ~SegmentedLog();
  SegmentedLog(const SegmentedLog&) = delete;
  SegmentedLog& operator=(const SegmentedLog&) = delete;

  /// \brief Opens (or creates) the chain in `options.dir` and replays every
  /// record with lsn >= the manifest's base LSN, in LSN order, into
  /// `replay`. Returns the manifest's base LSN — the `Wal` facade adopts it
  /// as `base_lsn_` even when the chain holds no records, which is what
  /// keeps LSNs monotone across a restart of a fully truncated log.
  /// After Open the log is positioned to append into a fresh segment.
  Result<Lsn> Open(const Options& options,
                   const std::function<void(LogRecord&&)>& replay);

  /// \brief Stages one framed record for the current segment, rotating
  /// first when the segment is full (failpoint `wal.segment.rotate` fires
  /// between closing the old segment and creating its successor). Staged
  /// bytes live in a process-local buffer until Flush — a crash discards
  /// them, exactly like an OS page cache losing unsynced writes.
  ///
  /// A *retryable* rotation failure (transient EIO, ENOSPC while creating
  /// the successor) is deferred, not fatal: the record stages into the
  /// oversized current segment and the rotation is retried by a later
  /// Append or Flush. A permanent fault propagates and is final, as in
  /// Flush.
  Status Append(Lsn lsn, std::string_view frame);

  /// \brief Writes every staged byte to the current segment file and
  /// fsyncs it: the durability barrier group commit amortizes. On a
  /// retryable failure the staged buffer is retained and the next call
  /// runs the fsync-gate repair (rotate to a fresh segment and rewrite the
  /// staged records there) before flushing. A permanent failure is final:
  /// this and every later Append/Flush return it, and the staged frames are
  /// never written again.
  Status Flush();

  /// \brief Simulated process death: discards staged-but-unflushed bytes
  /// and closes the open file without writing them. Further Append/Flush
  /// calls fail. The on-disk chain is left exactly as a crash would.
  void Abandon();

  /// \brief Recycles closed segments whose records all lie below
  /// `keep_from`, and persists `keep_from` as the new manifest base LSN.
  /// The currently open segment is never recycled. Failpoint
  /// `wal.segment.recycle` fires before the manifest rewrite.
  Status RecycleBefore(Lsn keep_from);

  /// \brief Read-path scrub: re-reads every *closed* segment and verifies
  /// header, frame checksums, decodability and LSN contiguity. Returns
  /// Corruption naming the damaged segment and the LSN range at risk; does
  /// not mutate the chain (quarantine is an Open-time decision — see
  /// Options::quarantine_on_open). Holds the log mutex for the duration, so
  /// concurrent appends stall; intended for tests, startup checks and
  /// operator tooling, not the hot path. Counters: `wal.scrub.segments`,
  /// `wal.scrub.frames`, `wal.scrub.corruptions`.
  Status Scrub();

  /// Introspection (tests, metrics).
  size_t num_segments() const;
  size_t pool_size() const;
  uint64_t segments_recycled() const { return recycled_total_; }
  uint64_t segments_reused() const { return reused_total_; }
  uint64_t fsync_gate_repairs() const { return fsync_gate_repairs_; }
  const std::string& dir() const { return options_.dir; }

  static std::string ManifestPath(const std::string& dir);
  static std::string SegmentPath(const std::string& dir, uint64_t id);
  static std::string QuarantinePath(const std::string& dir, uint64_t id);

 private:
  struct Segment {
    uint64_t id = 0;
    /// Durable (written + fsynced) state only; staged-but-unflushed frames
    /// are tracked separately so a failed flush needs no rollback here.
    Lsn first_lsn = kInvalidLsn;  ///< first durable record
    Lsn last_lsn = kInvalidLsn;   ///< last durable record
    uint64_t bytes = 0;           ///< durable payload bytes
  };

  Status WriteManifestLocked();          // callers hold mu_
  Status OpenNewSegmentLocked(Lsn next_lsn);  // callers hold mu_; sets file_
  Status RotateLocked(Lsn next_lsn);
  Status FlushLocked();
  /// fsync-gate recovery: truncate the current segment to its durable
  /// prefix via a fresh descriptor, close it, and open a new segment for
  /// the retained staged bytes. Never re-fsyncs the failed descriptor.
  Status RepairLocked();
  Status QuarantineFromLocked(const std::vector<uint64_t>& listed_ids,
                              size_t damaged_idx, Lsn lost_from,
                              const std::string& reason);
  Lsn NextLsnAfterDurableLocked() const;

  mutable std::mutex mu_;
  Options options_;
  IoEnv* env_ = &IoEnv::Default();
  bool open_ = false;
  Lsn base_lsn_ = 1;
  uint64_t next_segment_id_ = 1;
  std::deque<Segment> segments_;  ///< ascending; back() is the open one
  std::unique_ptr<IoFile> file_;  ///< the open segment's descriptor
  std::string staged_;            ///< bytes appended since the last Flush
  Lsn staged_first_lsn_ = kInvalidLsn;
  Lsn staged_last_lsn_ = kInvalidLsn;
  /// A previous flush failed retryably: the open fd may hold pages the
  /// kernel already dropped. The next flush must repair (rotate) first.
  bool flush_dirty_ = false;
  /// Path of the closed-but-not-yet-truncated dirty segment when the
  /// repair's truncate itself failed and must be retried.
  std::string dirty_path_;
  /// A permanent failure on the append/flush path. It is final: every
  /// later Append and Flush returns it, so frames staged before it are
  /// never written again.
  Status failed_;
  /// A manifest rewrite failed retryably; it must succeed before the next
  /// flush can acknowledge durability (an unlisted segment is invisible to
  /// recovery, so acking data inside one would lose it on restart).
  bool manifest_dirty_ = false;
  std::vector<std::string> pool_;  ///< recycled file paths available for reuse
  uint64_t recycled_total_ = 0;
  uint64_t reused_total_ = 0;
  uint64_t fsync_gate_repairs_ = 0;
};

}  // namespace morph::wal
