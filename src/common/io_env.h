#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace morph {

/// \brief Maps an errno from a real filesystem call to a Status with the
/// retryability taxonomy applied: ENOSPC/EDQUOT -> NoSpace (stall until
/// space frees), EIO/EAGAIN -> transient (a disk hiccup or SAN path flap is
/// worth a bounded number of backed-off retries; a *persistent* EIO is
/// converted to a permanent failure by the retry budget upstream),
/// everything else -> permanent IOError.
Status StatusFromErrno(const char* op, const std::string& path, int err);

class IoEnv;

/// \brief A writable file handle owned by IoEnv. All writes funnel through
/// Write(), which retries EINTR and short writes (both real and injected)
/// until every byte is transferred — callers never see a partial transfer
/// as anything but success or a typed Status.
class IoFile {
 public:
  ~IoFile();
  IoFile(const IoFile&) = delete;
  IoFile& operator=(const IoFile&) = delete;

  /// \brief Writes all of `data`, looping over EINTR and short transfers.
  /// `site` names the injection point (e.g. "wal.write").
  Status Write(std::string_view data, const char* site);

  /// \brief fsync, retrying EINTR. A failure here means the kernel may have
  /// dropped the dirty pages this fd staged — see the fsync-gate note in
  /// SegmentedLog: the caller must never retry Sync on this fd and expect
  /// the lost bytes back.
  Status Sync(const char* site);

  /// \brief Closes the descriptor (idempotent; destructor closes too).
  void Close();

  const std::string& path() const { return path_; }

 private:
  friend class IoEnv;
  IoFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// \brief Thin abstraction over the raw filesystem operations the WAL
/// performs (open/write/fsync/rename/remove/truncate/read/list). Every
/// operation names its call site and evaluates it as a failpoint first
/// (see Failpoints: eio, enospc, short and eintr are the I/O actions), so a
/// test can deterministically fail any single I/O the WAL issues without
/// touching the real disk's behavior.
///
/// Stateless; the process-wide instance is IoEnv::Default(). It exists as a
/// class (rather than free functions) so a future backend (O_DIRECT,
/// io_uring, an in-memory test filesystem) can slot in under the same
/// call sites.
class IoEnv {
 public:
  static IoEnv& Default();

  /// \brief Opens (creating, truncating) `path` for writing.
  Result<std::unique_ptr<IoFile>> OpenForWrite(const std::string& path,
                                               const char* site);

  /// \brief Atomic rename within a filesystem.
  Status Rename(const std::string& from, const std::string& to,
                const char* site);

  /// \brief Removes a file; missing files are OK (idempotent cleanup).
  Status Remove(const std::string& path, const char* site);

  /// \brief Truncates `path` to `size` bytes and fsyncs the truncation via
  /// a fresh descriptor.
  Status Truncate(const std::string& path, uint64_t size, const char* site);

  /// \brief fsyncs the directory containing `path` so renames/creations
  /// survive power loss.
  Status SyncDir(const std::string& path, const char* site);

  /// \brief Reads a whole file into a string.
  Result<std::string> ReadFile(const std::string& path, const char* site);

 private:
  IoEnv() = default;
};

}  // namespace morph
