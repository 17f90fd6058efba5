#include "common/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/failpoint.h"

namespace morph {

Status StatusFromErrno(const char* op, const std::string& path, int err) {
  std::string msg = std::string(op) + " '" + path + "': " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::NoSpace(std::move(msg));
  // EIO is classified transient: a single EIO is as likely a path flap or a
  // controller hiccup as dead media, and the bounded retry budget upstream
  // converts a *persistent* EIO into a permanent failure anyway. EAGAIN is
  // transient by definition.
  if (err == EIO || err == EAGAIN) return Status::TransientIOError(std::move(msg));
  return Status::PermanentIOError(std::move(msg));
}

// ---------------------------------------------------------------------------
// IoFile
// ---------------------------------------------------------------------------

IoFile::~IoFile() { Close(); }

void IoFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status IoFile::Write(std::string_view data, const char* site) {
  const char* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    size_t attempt = remaining;
    if (Failpoints::armed()) {
      Failpoints::Action fired = Failpoints::Action::kOff;
      MORPH_RETURN_NOT_OK(Failpoints::Instance().Evaluate(site, path_, &fired));
      // As if ::write returned -1/EINTR before transferring anything.
      if (fired == Failpoints::Action::kEintr) continue;
      // Transfer only half the request (at least one byte) — success, not
      // error, exactly like a real short write. The loop must pick up the
      // rest on the next iteration.
      if (fired == Failpoints::Action::kShortWrite) {
        attempt = remaining > 1 ? remaining / 2 : 1;
      }
    }
    const ssize_t n = ::write(fd_, p, attempt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("write", path_, errno);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status IoFile::Sync(const char* site) {
  if (Failpoints::armed()) {
    // Injected EINTR: re-evaluate, like the real retry below.
    Failpoints::Action fired = Failpoints::Action::kOff;
    do {
      MORPH_RETURN_NOT_OK(Failpoints::Instance().Evaluate(site, path_, &fired));
    } while (fired == Failpoints::Action::kEintr);
  }
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    return StatusFromErrno("fsync", path_, errno);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IoEnv
// ---------------------------------------------------------------------------

IoEnv& IoEnv::Default() {
  static IoEnv* env = new IoEnv();
  return *env;
}

namespace {

// Non-write sites only carry error faults: Evaluate returns OK for short
// and eintr shots, which still count as fires so tests notice the
// misconfiguration via fires().
Status EvaluateErrorSite(const char* site, const std::string& path) {
  if (!Failpoints::armed()) return Status::OK();
  return Failpoints::Instance().Evaluate(site, path);
}

}  // namespace

Result<std::unique_ptr<IoFile>> IoEnv::OpenForWrite(const std::string& path,
                                                    const char* site) {
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, path));
  int fd;
  do {
    fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return StatusFromErrno("open", path, errno);
  return std::unique_ptr<IoFile>(new IoFile(fd, path));
}

Status IoEnv::Rename(const std::string& from, const std::string& to,
                     const char* site) {
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, from));
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return StatusFromErrno("rename", from + " -> " + to, errno);
  }
  return Status::OK();
}

Status IoEnv::Remove(const std::string& path, const char* site) {
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, path));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return StatusFromErrno("unlink", path, errno);
  }
  return Status::OK();
}

Status IoEnv::Truncate(const std::string& path, uint64_t size,
                       const char* site) {
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, path));
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return StatusFromErrno("open", path, errno);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const int err = errno;
    ::close(fd);
    return StatusFromErrno("ftruncate", path, err);
  }
  // The truncation must be durable before the caller rebuilds state on top
  // of it (fsync-gate repair relies on the shortened length surviving).
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return StatusFromErrno("fsync", path, err);
  }
  ::close(fd);
  return Status::OK();
}

Status IoEnv::SyncDir(const std::string& path, const char* site) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, dir));
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return StatusFromErrno("open(dir)", dir, errno);
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    return StatusFromErrno("fsync(dir)", dir, err);
  }
  ::close(fd);
  return Status::OK();
}

Result<std::string> IoEnv::ReadFile(const std::string& path,
                                    const char* site) {
  MORPH_RETURN_NOT_OK(EvaluateErrorSite(site, path));
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return StatusFromErrno("open", path, errno);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return StatusFromErrno("read", path, err);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status IoEnv::WriteFileAtomic(const std::string& path, std::string_view bytes,
                              const AtomicWriteSites& sites) {
  const std::string tmp = path + ".tmp";
  {
    MORPH_ASSIGN_OR_RETURN(std::unique_ptr<IoFile> file,
                           OpenForWrite(tmp, sites.write));
    MORPH_RETURN_NOT_OK(file->Write(bytes, sites.write));
    MORPH_RETURN_NOT_OK(file->Sync(sites.fsync));
  }
  MORPH_RETURN_NOT_OK(Rename(tmp, path, sites.rename));
  return SyncDir(path, sites.dirsync);
}

}  // namespace morph
