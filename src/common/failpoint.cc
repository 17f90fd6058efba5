#include "common/failpoint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace morph {

namespace failpoint_internal {
std::atomic<int> g_armed{0};
}  // namespace failpoint_internal

namespace {

/// Maps the spec-string error code names to Status factories.
Status ErrorForCode(const std::string& code, const std::string& site) {
  const std::string msg = "injected at failpoint '" + site + "'";
  if (code.empty() || code == "internal") return Status::Internal(msg);
  if (code == "io") return Status::IOError(msg);
  if (code == "corruption") return Status::Corruption(msg);
  if (code == "busy") return Status::Busy(msg);
  if (code == "aborted") return Status::Aborted(msg);
  if (code == "notfound") return Status::NotFound(msg);
  return Status::InvalidArgument("unknown failpoint error code '" + code + "'");
}

}  // namespace

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = [] {
    auto* fp = new Failpoints();
    const Status st = fp->ConfigureFromEnv();
    if (!st.ok()) {
      // A silently ignored spec would leave the user believing injection is
      // armed when it is not — the one failure mode a fault-injection tool
      // must not have.
      std::fprintf(stderr, "MORPH_FAILPOINTS rejected: %s\n",
                   st.ToString().c_str());
    }
    return fp;
  }();
  return *instance;
}

namespace {
// Force the registry (and with it MORPH_FAILPOINTS) to be applied before
// main: the macros' fast path reads g_armed without touching Instance(), so
// in a binary that never arms a failpoint programmatically nothing else
// would ever parse the environment variable.
const bool g_env_applied = (Failpoints::Instance(), true);
}  // namespace

void Failpoints::RecomputeArmed() {
  int armed = tracing_ ? 1 : 0;
  for (const auto& [name, site] : sites_) {
    if (site.config.action != Action::kOff) armed++;
  }
  failpoint_internal::g_armed.store(armed, std::memory_order_relaxed);
}

void Failpoints::Enable(const std::string& name, Config config) {
  std::lock_guard lock(mu_);
  Site& site = sites_[name];
  site.config = std::move(config);
  site.hits = 0;
  site.fires = 0;
  RecomputeArmed();
}

void Failpoints::Crash(const std::string& name, uint64_t fire_on_hit) {
  Config config;
  config.action = Action::kCrash;
  config.fire_on_hit = fire_on_hit;
  Enable(name, std::move(config));
}

void Failpoints::Error(const std::string& name, Status error,
                       uint64_t fire_on_hit) {
  Config config;
  config.action = Action::kError;
  config.error = std::move(error);
  config.fire_on_hit = fire_on_hit;
  Enable(name, std::move(config));
}

void Failpoints::Delay(const std::string& name, int64_t micros) {
  Config config;
  config.action = Action::kDelay;
  config.delay_micros = micros;
  Enable(name, std::move(config));
}

void Failpoints::Disable(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = sites_.find(name);
  if (it != sites_.end()) it->second.config = Config{};
  RecomputeArmed();
}

void Failpoints::DisableAll() {
  std::lock_guard lock(mu_);
  for (auto& [name, site] : sites_) site.config = Config{};
  RecomputeArmed();
}

void Failpoints::SetTracing(bool on) {
  std::lock_guard lock(mu_);
  tracing_ = on;
  RecomputeArmed();
}

namespace {

/// Parses one `site=action[(arg)][@N][*M][:qualifier]` entry.
Status ParseEntry(const std::string& entry, std::string* name,
                  Failpoints::Config* config) {
  using Action = Failpoints::Action;
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint spec entry '" + entry +
                                   "' is not site=action");
  }
  *name = entry.substr(0, eq);
  std::string action = entry.substr(eq + 1);

  // Peel the suffixes right to left, so they compose in any order after the
  // action: `eio@2:transient` and `eio:transient@2` parse identically.
  bool saw_max_fires = false;
  for (;;) {
    const size_t pos = action.find_last_of(":@*");
    if (pos == std::string::npos) break;
    const char which = action[pos];
    const std::string suffix = action.substr(pos + 1);
    if (which == ':') {
      if (suffix == "transient") {
        config->transient = true;
      } else if (suffix == "permanent") {
        config->transient = false;
      } else {
        return Status::InvalidArgument("failpoint spec '" + entry +
                                       "': unknown qualifier ':" + suffix +
                                       "'");
      }
    } else {
      char* parse_end = nullptr;
      const long long v = std::strtoll(suffix.c_str(), &parse_end, 10);
      if (suffix.empty() || *parse_end != '\0' || v <= 0) {
        return Status::InvalidArgument("bad failpoint count suffix in '" +
                                       entry + "'");
      }
      if (which == '@') {
        config->fire_on_hit = static_cast<uint64_t>(v);
      } else {
        config->max_fires = v;
        saw_max_fires = true;
      }
    }
    action = action.substr(0, pos);
  }

  std::string arg;
  const size_t paren = action.find('(');
  if (paren != std::string::npos) {
    if (action.back() != ')') {
      return Status::InvalidArgument("unbalanced parentheses in '" + entry +
                                     "'");
    }
    arg = action.substr(paren + 1, action.size() - paren - 2);
    action = action.substr(0, paren);
  }

  if (action == "crash") {
    config->action = Action::kCrash;
  } else if (action == "error") {
    config->action = Action::kError;
    config->error = ErrorForCode(arg, *name);
    if (config->error.IsInvalidArgument()) return config->error;
  } else if (action == "delay") {
    config->action = Action::kDelay;
    char* parse_end = nullptr;
    config->delay_micros = std::strtoll(arg.c_str(), &parse_end, 10);
    if (arg.empty() || *parse_end != '\0' || config->delay_micros < 0) {
      return Status::InvalidArgument("delay needs non-negative micros in '" +
                                     entry + "'");
    }
  } else if (action == "eio") {
    config->action = Action::kEio;
  } else if (action == "enospc") {
    config->action = Action::kEnospc;
  } else if (action == "short") {
    config->action = Action::kShortWrite;
  } else if (action == "eintr") {
    config->action = Action::kEintr;
  } else {
    return Status::InvalidArgument("unknown failpoint action '" + action +
                                   "'");
  }

  // Single-fire defaults; see ConfigureFromString.
  if (!saw_max_fires &&
      ((config->action == Action::kEio && config->transient) ||
       config->action == Action::kShortWrite ||
       config->action == Action::kEintr)) {
    config->max_fires = 1;
  }
  return Status::OK();
}

}  // namespace

Status Failpoints::ConfigureFromString(const std::string& spec) {
  // Parse the whole spec before arming anything: via ConfigureFromEnv the
  // error is only a warning, and a half-armed configuration would silently
  // diverge from what MORPH_FAILPOINTS says.
  std::vector<std::pair<std::string, Config>> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    std::string name;
    Config config;
    MORPH_RETURN_NOT_OK(ParseEntry(entry, &name, &config));
    parsed.emplace_back(std::move(name), std::move(config));
  }
  for (auto& [name, config] : parsed) Enable(name, std::move(config));
  return Status::OK();
}

Status Failpoints::ConfigureFromEnv() {
  const char* env = std::getenv("MORPH_FAILPOINTS");
  if (env == nullptr || *env == '\0') return Status::OK();
  return ConfigureFromString(env);
}

uint64_t Failpoints::hits(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t Failpoints::fires(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? 0 : it->second.fires;
}

void Failpoints::ResetCounters() {
  std::lock_guard lock(mu_);
  for (auto& [name, site] : sites_) {
    site.hits = 0;
    site.fires = 0;
  }
}

std::vector<std::string> Failpoints::SitesMatching(
    const std::string& prefix) const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, site] : sites_) {
    if (name.compare(0, prefix.size(), prefix) == 0) names.push_back(name);
  }
  return names;
}

std::vector<std::string> Failpoints::HitSitesMatching(
    const std::string& prefix) const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, site] : sites_) {
    if (site.hits > 0 && name.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

Status Failpoints::Evaluate(const char* name, std::string_view path,
                            Action* fired) {
  if (fired != nullptr) *fired = Action::kOff;
  Config shot;
  {
    std::lock_guard lock(mu_);
    Site& site = sites_[name];
    site.hits++;
    if (site.config.action == Action::kOff) return Status::OK();
    if (site.hits < site.config.fire_on_hit) return Status::OK();
    if (site.config.max_fires >= 0 &&
        site.fires >= static_cast<uint64_t>(site.config.max_fires)) {
      return Status::OK();
    }
    site.fires++;
    shot = site.config;
  }
  if (fired != nullptr) *fired = shot.action;
  switch (shot.action) {
    case Action::kCrash:
      throw CrashException(name);
    case Action::kError:
      return shot.error;
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(shot.delay_micros));
      return Status::OK();
    default:
      break;
  }
  // An I/O action. short and eintr inject no Status: the write and fsync
  // loops act on `fired`.
  MORPH_COUNTER_INC("io.faults.injected");
  std::string where = name;
  if (!path.empty()) where += " '" + std::string(path) + "'";
  if (shot.action == Action::kEnospc) {
    return Status::NoSpace("injected ENOSPC at " + where);
  }
  if (shot.action == Action::kEio) {
    return shot.transient
               ? Status::TransientIOError("injected transient EIO at " + where)
               : Status::PermanentIOError("injected EIO at " + where);
  }
  return Status::OK();
}

}  // namespace morph
