#include "common/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace morph::metrics {

namespace {

/// JSON string escaping. Instrument names are code-controlled dotted
/// identifiers, but a dump that is "valid JSON by construction" must not
/// depend on that staying true.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Dump-on-exit target configured from MORPH_METRICS_DUMP ("" = off,
/// "-" = stderr, anything else = file path). Resolved once at registry
/// construction so the atexit handler needs no further env access.
std::string g_dump_path;  // NOLINT: written once before main

void DumpAtExit() {
  if (g_dump_path.empty()) return;
  const std::string json = Registry::Instance().DumpJson();
  if (g_dump_path == "-") {
    std::fprintf(stderr, "%s\n", json.c_str());
    return;
  }
  std::FILE* f = std::fopen(g_dump_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "MORPH_METRICS_DUMP: cannot open %s\n",
                 g_dump_path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
}

}  // namespace

Registry& Registry::Instance() {
  static Registry* instance = [] {
    auto* r = new Registry();
    if (const char* env = std::getenv("MORPH_METRICS_DUMP");
        env != nullptr && *env != '\0') {
      g_dump_path = env;
      std::atexit(DumpAtExit);
    }
    return r;
  }();
  return *instance;
}

namespace {
// Force the registry (and with it MORPH_METRICS_DUMP) to be applied before
// main, mirroring the failpoint registry: a binary that only ever touches
// instruments through cached pointers would otherwise never install the
// exit dump.
const bool g_env_applied = (Registry::Instance(), true);
}  // namespace

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t Registry::CounterValue(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t Registry::GaugeValue(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

std::map<std::string, uint64_t> Registry::CounterSnapshot(
    const std::string& prefix) const {
  std::lock_guard lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out[name] = counter->value();
    }
  }
  return out;
}

void Registry::ResetAll() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string Registry::DumpJson() const {
  std::lock_guard lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": " + std::to_string(c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + EscapeJson(name) + "\": " + std::to_string(g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    // A latency histogram's name ends in `_nanos`; a value histogram's not.
    const std::string unit = name.ends_with("_nanos") ? "_nanos" : "";
    out += "    \"" + EscapeJson(name) + "\": {\"count\": " +
           std::to_string(h->count()) +
           ", \"sum" + unit + "\": " + std::to_string(h->sum()) +
           ", \"p50" + unit + "\": " + std::to_string(h->Quantile(0.50)) +
           ", \"p95" + unit + "\": " + std::to_string(h->Quantile(0.95)) +
           ", \"p99" + unit + "\": " + std::to_string(h->Quantile(0.99)) +
           "}";
  }
  out += "\n  }\n}";
  return out;
}

}  // namespace morph::metrics
