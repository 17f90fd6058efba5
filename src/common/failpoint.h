#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace morph {

/// \brief Thrown by a *crash* failpoint to simulate instantaneous process
/// death at the site. It unwinds the faulting thread's stack (releasing RAII
/// latches exactly as a real crash discards them) and is caught by the test
/// harness at the Database boundary, which then treats the durable WAL as
/// the only surviving state — everything else belongs to the dead
/// incarnation and is abandoned.
class CrashException : public std::exception {
 public:
  explicit CrashException(std::string point)
      : point_(std::move(point)),
        msg_("simulated crash at failpoint '" + point_ + "'") {}

  const char* what() const noexcept override { return msg_.c_str(); }
  const std::string& point() const { return point_; }

 private:
  std::string point_;
  std::string msg_;
};

namespace failpoint_internal {
/// Number of armed failpoint configurations (plus one while tracing). The
/// macros take the slow path only when this is non-zero, so a disabled
/// failpoint costs a single relaxed atomic load.
extern std::atomic<int> g_armed;
}  // namespace failpoint_internal

/// \brief Deterministic fault-injection registry: the one registry for
/// engine seams and storage I/O alike.
///
/// Code declares named sites with MORPH_FAILPOINT("layer.component.event");
/// the WAL's I/O primitives (IoEnv/IoFile) name their call sites the same
/// way (`wal.write`, `wal.fsync`, `wal.manifest.rename`, ...). Tests, or the
/// MORPH_FAILPOINTS environment variable, arm a site with an action:
///
///  - **crash**: throw CrashException — simulated process death; the WAL is
///    the only durable state the next incarnation sees.
///  - **error**: return an injected Status from the enclosing function.
///  - **delay**: sleep for a configured duration, widening race windows.
///  - **eio**: fail with an injected I/O error naming the site (and, at an
///    I/O site, the file). `:transient` makes it retryable
///    (Status::IsRetryable()), i.e. a disk hiccup; the default is permanent.
///  - **enospc**: fail with Status::NoSpace — retryable on the patient
///    ENOSPC budget. Bound the window with `*M` to model space being freed.
///  - **short**: a write syscall transfers only half the requested bytes
///    (success, not error), proving the short-write retry loop.
///  - **eintr**: the write or fsync syscall reports EINTR once, proving the
///    EINTR retry loops.
///
/// `short` and `eintr` inject no Status: a site other than a write (or, for
/// eintr, an fsync) swallows them, but they still count as fires so a test
/// notices the misconfiguration through fires().
///
/// Actions can be *count-gated*: fire starting at the Nth hit of the site
/// (`fire_on_hit`) and at most `max_fires` times. Sites self-register on
/// first evaluation; with tracing enabled every site records hit counts even
/// when no action is armed, which is how the crash-matrix harness discovers
/// the set of failpoints a given code path actually crosses.
///
/// Naming convention: `<layer>.<component>.<event>`, lower-case, e.g.
/// `wal.append`, `storage.table.insert`, `transform.sync.latched`.
///
/// Thread safety: all methods are safe to call concurrently.
class Failpoints {
 public:
  enum class Action : uint8_t {
    kOff,
    kCrash,
    kError,
    kDelay,
    kEio,
    kEnospc,
    kShortWrite,
    kEintr,
  };

  struct Config {
    Action action = Action::kOff;
    /// kError: the Status returned from the enclosing function.
    Status error = Status::Internal("injected failpoint error");
    /// kDelay: how long Evaluate sleeps.
    int64_t delay_micros = 0;
    /// kEio: inject a retryable (transient) error instead of a permanent one.
    bool transient = false;
    /// 1-based hit ordinal at which the action starts firing (1 = first hit),
    /// counted from the Enable that armed it.
    uint64_t fire_on_hit = 1;
    /// Stop firing after this many fires; -1 = unlimited.
    int64_t max_fires = -1;
  };

  /// \brief The process-wide registry. The first call applies the
  /// MORPH_FAILPOINTS environment variable if set.
  static Failpoints& Instance();

  /// \brief Arms `name` with `config` and zeroes the site's hit and fire
  /// counters, so `fire_on_hit` counts hits from this call on.
  void Enable(const std::string& name, Config config);
  /// Convenience arming helpers.
  void Crash(const std::string& name, uint64_t fire_on_hit = 1);
  void Error(const std::string& name, Status error, uint64_t fire_on_hit = 1);
  void Delay(const std::string& name, int64_t micros);
  void Disable(const std::string& name);
  /// Disarms every site (hit/fire counters are kept; see ResetCounters).
  void DisableAll();

  /// \brief While tracing, every site evaluation is recorded even with no
  /// action armed — used to enumerate the failpoints a code path crosses.
  void SetTracing(bool on);

  /// \brief Parses and applies a spec string. The grammar, with entries
  /// separated by `;` or `,`:
  ///
  ///   site=action[(arg)][@N][*M][:transient|:permanent]
  ///
  /// where action is one of
  ///   crash | error | error(CODE) | delay(MICROS) | eio | enospc | short |
  ///   eintr
  /// and the suffixes compose in any order after the action: @N fires from
  /// the Nth hit, *M fires at most M times, and the qualifier picks a
  /// transient or permanent eio. E.g.
  /// "wal.append=crash@3;wal.write=eio@2:transient;wal.fsync=enospc*5".
  /// CODE is one of: io, corruption, internal, busy, aborted, notfound.
  ///
  /// With no explicit `*M`, a transient eio, a short and an eintr fire once:
  /// a transient fault that fires forever is a permanent fault in effect,
  /// and the retried syscall re-evaluates its site, so an unbounded eintr or
  /// short would spin the retry loop forever.
  ///
  /// The whole spec is parsed before anything is armed: a malformed entry
  /// leaves no entry of the spec armed.
  Status ConfigureFromString(const std::string& spec);
  /// Applies the MORPH_FAILPOINTS environment variable (no-op when unset).
  Status ConfigureFromEnv();

  uint64_t hits(const std::string& name) const;
  uint64_t fires(const std::string& name) const;
  /// Zeroes all hit/fire counters (armed configurations are kept).
  void ResetCounters();
  /// Names of known sites (registered by evaluation) starting with `prefix`.
  std::vector<std::string> SitesMatching(const std::string& prefix) const;
  /// Known sites with at least one recorded hit, starting with `prefix`.
  std::vector<std::string> HitSitesMatching(const std::string& prefix) const;

  /// \brief Slow path behind the macros and the I/O primitives: records the
  /// hit and performs the armed action, if any. Throws CrashException for
  /// kCrash; sleeps for kDelay; returns the injected Status for kError, kEio
  /// and kEnospc, naming `path` when one is given. kShortWrite and kEintr
  /// return OK; `fired`, when non-null, receives the action that fired
  /// (kOff if none), which is how the write and fsync loops act on them.
  Status Evaluate(const char* name, std::string_view path = {},
                  Action* fired = nullptr);

  /// \brief Macro fast path: true iff any action is armed or tracing is on.
  static bool armed() {
    return failpoint_internal::g_armed.load(std::memory_order_relaxed) != 0;
  }

 private:
  Failpoints() = default;

  struct Site {
    Config config;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  void RecomputeArmed();  // callers hold mu_

  mutable std::mutex mu_;
  std::unordered_map<std::string, Site> sites_;
  bool tracing_ = false;
};

}  // namespace morph

/// \brief Declares a failpoint in a function returning Status (or Result<T>,
/// which converts implicitly). Near zero-cost when nothing is armed: a
/// single relaxed atomic load.
#define MORPH_FAILPOINT(name)                                       \
  do {                                                              \
    if (::morph::Failpoints::armed()) {                             \
      ::morph::Status _morph_fp_status =                            \
          ::morph::Failpoints::Instance().Evaluate(name);           \
      if (!_morph_fp_status.ok()) return _morph_fp_status;          \
    }                                                               \
  } while (false)

/// \brief Failpoint for contexts that cannot return a Status (void or
/// value-returning functions): crash and delay actions apply, injected
/// errors are ignored.
#define MORPH_FAILPOINT_VOID(name)                                  \
  do {                                                              \
    if (::morph::Failpoints::armed()) {                             \
      (void)::morph::Failpoints::Instance().Evaluate(name);         \
    }                                                               \
  } while (false)
