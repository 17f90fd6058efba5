#include "wal/segment.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/codec.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace morph::wal {

namespace {

constexpr uint32_t kSegmentMagic = 0x4d534547;   // "MSEG"
constexpr uint32_t kManifestMagic = 0x4d574d46;  // "MWMF"
constexpr uint32_t kFormatVersion = 1;
/// [magic][version][segment id][first expected LSN]
constexpr size_t kSegmentHeaderBytes = 4 + 4 + 8 + 8;

/// The manifest rewrite's sites. A failure before the rename leaves an
/// orphan `*.tmp` that Open's sweep removes.
constexpr IoEnv::AtomicWriteSites kManifestSites{
    "wal.manifest.write", "wal.manifest.fsync", "wal.manifest.rename",
    "wal.dirsync"};

/// What ReadSegment found in a segment buffer.
struct SegmentRead {
  std::string damage;    ///< the first damage, what and where; empty if none
  bool torn = false;     ///< the damage is a short frame or checksum mismatch,
                         ///< what a crash mid-flush leaves at the chain's tail
  size_t valid_end = 0;  ///< end offset of the last good frame
};

/// The one reader of a segment file's bytes: checks the header against
/// segment `id`, then hands each frame's record to `fn` in file order until
/// the buffer ends or the first damage. `*prev_lsn` is the LSN the next
/// record must follow (kInvalidLsn: any); it is advanced past every record
/// handed out, so a caller can carry it across the segments of a chain.
/// The caller decides what damage means: Open trims a torn tail of the last
/// segment and treats everything else as Corruption; Scrub reports any.
SegmentRead ReadSegment(const std::string& buf, uint64_t id, Lsn* prev_lsn,
                        const std::function<void(LogRecord&&)>& fn) {
  SegmentRead out;
  const auto damage = [&](std::string what, bool torn = false) {
    out.damage = std::move(what);
    out.torn = torn;
    return out;
  };
  if (buf.size() < kSegmentHeaderBytes) {
    // The header is written and flushed at segment creation, before the
    // manifest mentions the segment; a short header is real damage.
    return damage("truncated header");
  }
  codec::Reader header{buf, 0, false};
  if (header.GetU32() != kSegmentMagic || header.GetU32() != kFormatVersion ||
      header.GetU64() != id) {
    return damage("bad header");
  }
  // The header's first expected LSN is informational only.
  size_t offset = kSegmentHeaderBytes;
  out.valid_end = offset;
  const auto at = [&](const char* what) {
    return what + (" at offset " + std::to_string(offset));
  };
  while (offset < buf.size()) {
    if (buf.size() - offset < 8) {
      return damage(at("torn frame header"), /*torn=*/true);
    }
    codec::Reader frame{buf, offset, false};
    const uint32_t size = frame.GetU32();
    const uint32_t checksum = frame.GetU32();
    if (buf.size() - frame.pos < size) {
      return damage(at("torn frame"), /*torn=*/true);
    }
    const std::string_view payload(buf.data() + frame.pos, size);
    if (FrameChecksum(payload) != checksum) {
      return damage(at("checksum mismatch"), /*torn=*/true);
    }
    size_t payload_offset = 0;
    auto rec = LogRecord::Decode(payload, &payload_offset);
    if (!rec.ok() || payload_offset != size) {
      return damage(at("frame") + " has a valid checksum but does not decode");
    }
    if (*prev_lsn != kInvalidLsn && rec->lsn != *prev_lsn + 1) {
      return damage("LSN gap " + std::to_string(*prev_lsn) + " -> " +
                    std::to_string(rec->lsn));
    }
    *prev_lsn = rec->lsn;
    offset = frame.pos + size;
    out.valid_end = offset;
    fn(std::move(rec).ValueOrDie());
  }
  return out;
}

}  // namespace

uint32_t FrameChecksum(std::string_view data) {
  uint32_t h = 2166136261u;
  for (const char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

void AppendFrame(std::string* out, const LogRecord& rec) {
  std::string payload;
  rec.EncodeTo(&payload);
  codec::PutU32(out, static_cast<uint32_t>(payload.size()));
  codec::PutU32(out, FrameChecksum(payload));
  *out += payload;
}

std::string SegmentedLog::ManifestPath(const std::string& dir) {
  return dir + "/wal.manifest";
}

std::string SegmentedLog::SegmentPath(const std::string& dir, uint64_t id) {
  return dir + "/seg-" + std::to_string(id) + ".wal";
}

std::string SegmentedLog::QuarantinePath(const std::string& dir, uint64_t id) {
  return dir + "/quarantine-" + std::to_string(id) + ".bad";
}

SegmentedLog::~SegmentedLog() {
  // Staged-but-unflushed bytes are deliberately discarded: they were never
  // promised durable (no committer's Sync returned for them), and writing
  // them here would resurrect data a simulated crash already "lost".
  std::lock_guard lock(mu_);
  file_.reset();
}

Lsn SegmentedLog::NextLsnAfterDurableLocked() const {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->last_lsn != kInvalidLsn) return it->last_lsn + 1;
  }
  return base_lsn_;
}

Status SegmentedLog::QuarantineFromLocked(
    const std::vector<uint64_t>& listed_ids, size_t damaged_idx, Lsn lost_from,
    const std::string& reason) {
  // The damaged segment and everything after it leave the chain: replay must
  // not continue past a hole, so the successors are unreachable even if
  // their bytes are pristine. Renaming (instead of deleting) preserves the
  // evidence for offline salvage, and the `quarantine-` prefix keeps the
  // files out of Open's orphan sweep.
  std::string quarantined;
  for (size_t i = damaged_idx; i < listed_ids.size(); ++i) {
    const uint64_t id = listed_ids[i];
    // Best effort: a successor that is already missing is part of the same
    // damage and has nothing left to set aside.
    (void)env_->Rename(SegmentPath(options_.dir, id),
                       QuarantinePath(options_.dir, id),
                       "wal.quarantine.rename");
    if (!quarantined.empty()) quarantined += ", ";
    quarantined += std::to_string(id);
    MORPH_COUNTER_INC("wal.scrub.quarantined");
  }
  // Persist the clean prefix so the *next* Open recovers it. segments_
  // holds exactly the validated prefix at this point.
  MORPH_RETURN_NOT_OK(WriteManifestLocked());
  // a = first quarantined segment id, b = first lost LSN.
  MORPH_TRACE("wal.segment.quarantine",
              static_cast<int64_t>(listed_ids[damaged_idx]),
              static_cast<int64_t>(lost_from));
  return Status::Corruption(
      reason + "; quarantined segment(s) {" + quarantined +
      "} as quarantine-<id>.bad; records with LSN in [" +
      std::to_string(lost_from) +
      ", end-of-log] are lost; reopen recovers the clean prefix");
}

Result<Lsn> SegmentedLog::Open(
    const Options& options, const std::function<void(LogRecord&&)>& replay) {
  std::lock_guard lock(mu_);
  if (open_) return Status::InvalidArgument("SegmentedLog already open");
  options_ = options;
  if (options_.dir.empty()) {
    return Status::InvalidArgument("SegmentedLog needs a directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + options_.dir + ": " +
                           ec.message());
  }

  // --- manifest ----------------------------------------------------------
  std::vector<uint64_t> listed_ids;
  const std::string manifest_path = ManifestPath(options_.dir);
  if (std::filesystem::exists(manifest_path)) {
    MORPH_ASSIGN_OR_RETURN(const std::string buf,
                           env_->ReadFile(manifest_path, "wal.read"));
    codec::Reader r{buf, 0, false};
    if (r.GetU32() != kManifestMagic) {
      return Status::Corruption("bad WAL manifest magic in " + manifest_path);
    }
    if (r.GetU32() != kFormatVersion) {
      return Status::Corruption("unsupported WAL manifest version");
    }
    base_lsn_ = r.GetU64();
    next_segment_id_ = r.GetU64();
    const uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n; ++i) listed_ids.push_back(r.GetU64());
    if (r.failed) {
      // The manifest is written atomically (temp + rename), so a truncated
      // one is not a crash artifact — it is damage.
      return Status::Corruption("truncated WAL manifest " + manifest_path);
    }
  }

  // --- replay the chain --------------------------------------------------
  Lsn prev_lsn = kInvalidLsn;  // last record validated (any segment)
  size_t replayed = 0;
  for (size_t seg_idx = 0; seg_idx < listed_ids.size(); ++seg_idx) {
    const uint64_t id = listed_ids[seg_idx];
    const bool is_last = seg_idx + 1 == listed_ids.size();
    const std::string path = SegmentPath(options_.dir, id);
    // Damage in a closed segment (or any damage other than the last
    // segment's torn tail) is Corruption; with quarantine_on_open it also
    // sets the damaged suffix of the chain aside so the next Open succeeds
    // on the clean prefix.
    const auto damaged = [&](const std::string& reason) -> Status {
      if (options_.quarantine_on_open) {
        const Lsn lost_from = NextLsnAfterDurableLocked();
        return QuarantineFromLocked(listed_ids, seg_idx, lost_from, reason);
      }
      return Status::Corruption(reason);
    };
    const auto buf_result = env_->ReadFile(path, "wal.read");
    if (!buf_result.ok()) {
      return damaged("WAL manifest lists missing/unreadable segment " + path +
                     " (" + buf_result.status().ToString() + ")");
    }
    Segment seg;
    seg.id = id;
    const SegmentRead read =
        ReadSegment(*buf_result, id, &prev_lsn, [&](LogRecord&& rec) {
          if (seg.first_lsn == kInvalidLsn) seg.first_lsn = rec.lsn;
          seg.last_lsn = rec.lsn;
          if (rec.lsn >= base_lsn_) {
            replay(std::move(rec));
            replayed++;
          }
        });
    if (read.torn && is_last) {
      // Only the chain's very tail may be torn (crash mid flush); the same
      // artifact mid-chain means records are missing and replay must not
      // continue past the hole.
      MORPH_COUNTER_INC("wal.segment.torn_tails");
      MORPH_RETURN_NOT_OK(
          env_->Truncate(path, read.valid_end, "wal.segment.truncate"));
    } else if (!read.damage.empty()) {
      return damaged("WAL segment " + path + " is damaged: " + read.damage +
                     (read.torn ? " mid-chain" : ""));
    }
    seg.bytes = read.valid_end - kSegmentHeaderBytes;
    segments_.push_back(seg);
  }

  // Orphan segment files (created by a crash between file creation and the
  // manifest rewrite) and stale temp files are garbage from a dead
  // incarnation: remove them. Recycled pool files are picked up for reuse.
  // Quarantined segments (`quarantine-*.bad`) are deliberately left alone —
  // they are the evidence a damaged chain sets aside for offline salvage.
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 &&
        name.size() > 8 /* "seg-" + id + ".wal" */) {
      const uint64_t id =
          static_cast<uint64_t>(std::strtoull(name.c_str() + 4, nullptr, 10));
      if (std::find(listed_ids.begin(), listed_ids.end(), id) ==
          listed_ids.end()) {
        std::filesystem::remove(entry.path(), ec);
      }
    } else if (name.rfind("recycle-", 0) == 0) {
      pool_.push_back(entry.path().string());
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  std::sort(pool_.begin(), pool_.end());

  // Appends resume in a fresh segment: reopening a recovered file in append
  // mode would have to trust the trimmed tail exactly; a new segment costs
  // one header and keeps the append path append-only.
  const Lsn next_lsn = prev_lsn == kInvalidLsn ? base_lsn_ : prev_lsn + 1;
  MORPH_RETURN_NOT_OK(OpenNewSegmentLocked(next_lsn));
  MORPH_RETURN_NOT_OK(WriteManifestLocked());
  open_ = true;
  MORPH_COUNTER_ADD("wal.segment.replayed_records", replayed);
  // a = records replayed, b = segments in the recovered chain.
  MORPH_TRACE("wal.segment.open", static_cast<int64_t>(replayed),
              static_cast<int64_t>(segments_.size()));
  return base_lsn_;
}

Status SegmentedLog::OpenNewSegmentLocked(Lsn next_lsn) {
  const uint64_t id = next_segment_id_++;
  const std::string path = SegmentPath(options_.dir, id);
  if (!pool_.empty()) {
    // Reuse a recycled file: rename, then truncate via the open below. A
    // failed rename just means no reuse this time.
    if (env_->Rename(pool_.back(), path, "wal.recycle.rename").ok()) {
      pool_.pop_back();
      reused_total_++;
      MORPH_COUNTER_INC("wal.segment.reused");
    }
  }
  auto file_result = env_->OpenForWrite(path, "wal.open");
  if (!file_result.ok()) return file_result.status();
  file_ = std::move(*file_result);
  std::string header;
  codec::PutU32(&header, kSegmentMagic);
  codec::PutU32(&header, kFormatVersion);
  codec::PutU64(&header, id);
  codec::PutU64(&header, next_lsn);
  // The header is fsynced at creation, before the manifest can list the
  // segment: recovery relies on every listed segment having a full header.
  Status st = file_->Write(header, "wal.header.write");
  if (st.ok()) st = file_->Sync("wal.header.fsync");
  // Directory entry too (covers both the O_CREAT and the pool-rename path):
  // the manifest rewrite that follows will list this segment, so its
  // existence must survive power loss, not just process death.
  if (st.ok()) st = env_->SyncDir(path, "wal.dirsync");
  if (!st.ok()) {
    // A half-created file may remain; a later retry uses a fresh id and the
    // orphan is swept at the next Open.
    file_.reset();
    return st;
  }
  Segment seg;
  seg.id = id;
  segments_.push_back(seg);
  MORPH_COUNTER_INC("wal.segment.opened");
  return Status::OK();
}

Status SegmentedLog::WriteManifestLocked() {
  std::string buf;
  codec::PutU32(&buf, kManifestMagic);
  codec::PutU32(&buf, kFormatVersion);
  codec::PutU64(&buf, base_lsn_);
  codec::PutU64(&buf, next_segment_id_);
  codec::PutU32(&buf, static_cast<uint32_t>(segments_.size()));
  for (const Segment& seg : segments_) codec::PutU64(&buf, seg.id);
  const Status st =
      env_->WriteFileAtomic(ManifestPath(options_.dir), buf, kManifestSites);
  if (st.ok()) {
    manifest_dirty_ = false;
  } else if (st.IsRetryable()) {
    // The rewrite must succeed before the next flush acks: an unlisted
    // segment is invisible to recovery, so acking data inside one would
    // lose it across a restart.
    manifest_dirty_ = true;
  }
  return st;
}

Status SegmentedLog::RotateLocked(Lsn next_lsn) {
  // Make the outgoing segment fully durable, then open its successor. A
  // crash at the failpoint leaves the closed segment as the chain's tail —
  // complete and flushed — and the manifest unchanged.
  MORPH_RETURN_NOT_OK(FlushLocked());
  const Segment& closed = segments_.back();
  file_.reset();
  MORPH_FAILPOINT("wal.segment.rotate");
  MORPH_COUNTER_INC("wal.segment.rotations");
  // a = id of the closed segment, b = its last LSN.
  MORPH_TRACE("wal.segment.rotate", static_cast<int64_t>(closed.id),
              static_cast<int64_t>(closed.last_lsn));
  MORPH_RETURN_NOT_OK(OpenNewSegmentLocked(next_lsn));
  return WriteManifestLocked();
}

Status SegmentedLog::Append(Lsn lsn, std::string_view frame) {
  std::lock_guard lock(mu_);
  if (!open_) return Status::Internal("SegmentedLog not open");
  if (!failed_.ok()) return failed_;
  // Rotation is skipped while a repair is pending (flush_dirty_ or a
  // missing open file): the repair itself rotates into a fresh segment.
  const bool repair_pending = flush_dirty_ || file_ == nullptr;
  const uint64_t fill = segments_.back().bytes + staged_.size();
  if (!repair_pending && fill > 0 &&
      fill + frame.size() > options_.segment_bytes) {
    const Status st = RotateLocked(lsn);
    if (!st.ok()) {
      if (!st.IsRetryable()) {
        failed_ = st;
        return st;
      }
      // Transient rotation failure: stage into the oversized current
      // segment and let a later Append/Flush retry the rotation. The
      // record is not lost and the appender sees no error — just a
      // temporarily fat segment.
      MORPH_COUNTER_INC("wal.segment.rotation_deferred");
      // a = current segment id, b = LSN that wanted the rotation.
      MORPH_TRACE("wal.segment.rotation_deferred",
                  static_cast<int64_t>(segments_.back().id),
                  static_cast<int64_t>(lsn));
    }
  }
  staged_ += frame;
  if (staged_first_lsn_ == kInvalidLsn) staged_first_lsn_ = lsn;
  staged_last_lsn_ = lsn;
  return Status::OK();
}

Status SegmentedLog::RepairLocked() {
  if (flush_dirty_) {
    // fsync-gate: the open descriptor staged pages the kernel may already
    // have dropped (a failed fsync clears the error state on many kernels),
    // so re-fsyncing it and trusting a later success would silently lose
    // the lost pages. Instead: close the fd without syncing, truncate the
    // file back to its durable prefix via a fresh descriptor, and leave it
    // in the chain as a clean closed segment. The retained staged buffer is
    // rewritten into a brand-new segment below.
    Segment* cur = &segments_.back();
    if (file_) {
      dirty_path_ = file_->path();
      file_.reset();
    }
    MORPH_RETURN_NOT_OK(env_->Truncate(
        dirty_path_, kSegmentHeaderBytes + cur->bytes, "wal.segment.truncate"));
    dirty_path_.clear();
    flush_dirty_ = false;
    fsync_gate_repairs_++;
    MORPH_COUNTER_INC("wal.segment.fsync_gate_repairs");
    // a = truncated segment id, b = its last durable LSN.
    MORPH_TRACE("wal.segment.fsync_gate_repair", static_cast<int64_t>(cur->id),
                static_cast<int64_t>(cur->last_lsn));
  }
  if (file_ == nullptr) {
    const Lsn next = staged_first_lsn_ != kInvalidLsn
                         ? staged_first_lsn_
                         : NextLsnAfterDurableLocked();
    MORPH_RETURN_NOT_OK(OpenNewSegmentLocked(next));
    // Cull empty casualties of previous repair cycles: a repaired segment
    // that never got a single durable record holds nothing recovery needs.
    // Without this, a long ENOSPC stall — one repair rotation per retry,
    // hundreds per second — accretes empty segments and an ever-growing
    // manifest without bound, and each manifest rewrite gets slower until
    // the stall can no longer clear. With it an episode costs O(1) files.
    std::vector<Segment> culled;
    while (segments_.size() > 1) {
      const Segment& prev = segments_[segments_.size() - 2];
      if (prev.first_lsn != kInvalidLsn || prev.bytes != 0) break;
      culled.push_back(prev);
      segments_.erase(segments_.end() - 2);
    }
    // Manifest first, files second — same ordering as RecycleBefore: once
    // the manifest no longer lists a victim, a crash (or a failed rename on
    // this already-sick disk) only leaves orphan files the next Open sweeps
    // up. The reverse order would let a crash between rename and rewrite
    // leave the manifest pointing at a file that is now recycle-<id>.pool,
    // which the next Open reports as Corruption.
    MORPH_RETURN_NOT_OK(WriteManifestLocked());
    for (const Segment& prev : culled) {
      const std::string path = SegmentPath(options_.dir, prev.id);
      if (pool_.size() < options_.recycle_pool_max) {
        // Pool rather than delete: a rename allocates no data blocks, so
        // on a genuinely full disk the next cycle reuses this file instead
        // of asking the filesystem for a new one.
        const std::string pooled =
            options_.dir + "/recycle-" + std::to_string(prev.id) + ".pool";
        if (env_->Rename(path, pooled, "wal.recycle.rename").ok()) {
          pool_.push_back(pooled);
        }
      } else {
        (void)env_->Remove(path, "wal.repair.remove");
      }
    }
  }
  return Status::OK();
}

Status SegmentedLog::FlushLocked() {
  if (flush_dirty_ || file_ == nullptr) MORPH_RETURN_NOT_OK(RepairLocked());
  // Manifest before data ack: see WriteManifestLocked.
  if (manifest_dirty_) MORPH_RETURN_NOT_OK(WriteManifestLocked());
  if (staged_.empty()) return Status::OK();
  Status st = file_->Write(staged_, "wal.write");
  if (st.ok()) st = file_->Sync("wal.fsync");
  if (!st.ok()) {
    if (st.IsRetryable()) {
      // Staged bytes are retained; the next flush repairs and rewrites
      // them. Durable bookkeeping is untouched, so nothing rolls back.
      flush_dirty_ = true;
      MORPH_COUNTER_INC("wal.flush.failed_retryable");
    }
    return st;
  }
  Segment* cur = &segments_.back();
  if (cur->first_lsn == kInvalidLsn) cur->first_lsn = staged_first_lsn_;
  cur->last_lsn = staged_last_lsn_;
  cur->bytes += staged_.size();
  staged_.clear();
  staged_first_lsn_ = kInvalidLsn;
  staged_last_lsn_ = kInvalidLsn;
  return Status::OK();
}

void SegmentedLog::Abandon() {
  std::lock_guard lock(mu_);
  staged_.clear();
  staged_first_lsn_ = kInvalidLsn;
  staged_last_lsn_ = kInvalidLsn;
  flush_dirty_ = false;
  manifest_dirty_ = false;
  dirty_path_.clear();
  file_.reset();
  open_ = false;
}

Result<Lsn> SegmentedLog::Flush() {
  std::lock_guard lock(mu_);
  if (!open_) return Status::Internal("SegmentedLog not open");
  if (!failed_.ok()) return failed_;
  const Status st = FlushLocked();
  if (st.ok()) return NextLsnAfterDurableLocked() - 1;
  // Final: the staged frames may already sit in the segment, written but
  // unsynced. Writing them again, into this segment or a rotated successor,
  // would put their LSNs in the chain twice.
  if (!st.IsRetryable()) failed_ = st;
  return st;
}

Status SegmentedLog::RecycleBefore(Lsn keep_from) {
  std::lock_guard lock(mu_);
  if (!open_) return Status::Internal("SegmentedLog not open");
  if (keep_from <= base_lsn_) return Status::OK();
  base_lsn_ = keep_from;
  // Victims: the longest prefix of *closed* segments that lie entirely
  // below the new base. The open segment is never recycled. A closed
  // segment that holds no records (last_lsn == kInvalidLsn — the fresh
  // segment a previous incarnation opened and never wrote to, or the
  // stub a fsync-gate repair truncated empty) is always a victim: it has
  // nothing at or above keep_from by definition, and leaving it would
  // wedge every segment behind it in the chain forever.
  std::vector<Segment> victims;
  while (segments_.size() > 1) {
    const Segment& seg = segments_.front();
    if (seg.last_lsn != kInvalidLsn && seg.last_lsn >= keep_from) break;
    victims.push_back(seg);
    segments_.pop_front();
  }
  MORPH_FAILPOINT("wal.segment.recycle");
  // Manifest first: once it no longer lists a victim, a crash between the
  // rewrite and the renames below only leaves orphan files that the next
  // Open sweeps up. If the rewrite itself fails, the victims are already
  // out of the in-memory chain; the next successful manifest write (flush
  // retry) delists them and their files linger as orphans until the next
  // Open — disk leaked until restart, never data.
  MORPH_RETURN_NOT_OK(WriteManifestLocked());
  for (const Segment& seg : victims) {
    const std::string path = SegmentPath(options_.dir, seg.id);
    if (pool_.size() < options_.recycle_pool_max) {
      const std::string pooled =
          options_.dir + "/recycle-" + std::to_string(seg.id) + ".pool";
      if (env_->Rename(path, pooled, "wal.recycle.rename").ok()) {
        pool_.push_back(pooled);
      }
    } else {
      (void)env_->Remove(path, "wal.recycle.remove");
    }
    recycled_total_++;
    MORPH_COUNTER_INC("wal.segment.recycled");
    // a = recycled segment id, b = new base LSN.
    MORPH_TRACE("wal.segment.recycle", static_cast<int64_t>(seg.id),
                static_cast<int64_t>(keep_from));
  }
  return Status::OK();
}

Status SegmentedLog::Scrub() {
  std::lock_guard lock(mu_);
  if (!open_) return Status::Internal("SegmentedLog not open");
  size_t segments_scrubbed = 0;
  size_t frames_verified = 0;
  // Closed segments only: the open segment's tail is legitimately in flux
  // (staged bytes, a torn tail the next recovery would trim), so checksum
  // rules there would race the writer. A closed segment, by contrast, must
  // be complete: any damage in one is media corruption, not a crash
  // artifact.
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    const std::string path = SegmentPath(options_.dir, seg.id);
    const auto corrupt = [&](const std::string& detail) {
      MORPH_COUNTER_INC("wal.scrub.corruptions");
      std::string range = "no records";
      if (seg.first_lsn != kInvalidLsn) {
        range = '[';
        range += std::to_string(seg.first_lsn);
        range += ", ";
        range += std::to_string(seg.last_lsn);
        range += ']';
      }
      return Status::Corruption("scrub: closed segment " + path +
                                " is damaged (" + detail + "); records " +
                                range + " are at risk");
    };
    const auto buf_result = env_->ReadFile(path, "wal.read");
    if (!buf_result.ok()) {
      return corrupt("unreadable: " + buf_result.status().ToString());
    }
    Lsn prev = kInvalidLsn;
    const SegmentRead read = ReadSegment(
        *buf_result, seg.id, &prev, [&](LogRecord&&) { frames_verified++; });
    if (!read.damage.empty()) return corrupt(read.damage);
    if (prev != seg.last_lsn) {
      return corrupt("file ends at LSN " + std::to_string(prev) +
                     " but the chain expects " + std::to_string(seg.last_lsn));
    }
    segments_scrubbed++;
  }
  MORPH_COUNTER_ADD("wal.scrub.segments", segments_scrubbed);
  MORPH_COUNTER_ADD("wal.scrub.frames", frames_verified);
  // a = segments verified, b = frames verified.
  MORPH_TRACE("wal.scrub", static_cast<int64_t>(segments_scrubbed),
              static_cast<int64_t>(frames_verified));
  return Status::OK();
}

size_t SegmentedLog::num_segments() const {
  std::lock_guard lock(mu_);
  return segments_.size();
}

size_t SegmentedLog::pool_size() const {
  std::lock_guard lock(mu_);
  return pool_.size();
}

}  // namespace morph::wal
