#include "trace_spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard lock(mu_);
  buffers_.push_back(
      std::make_unique<SpanBuffer>(static_cast<uint32_t>(buffers_.size() + 1)));
  return buffers_.back().get();
}

std::vector<int64_t> Tracer::Durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<int64_t> out;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans()) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& buf : buffers_) n += buf->spans().size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path, size_t max_events) const {
  std::lock_guard lock(mu_);
  size_t total = 0;
  int64_t origin = INT64_MAX;
  for (const auto& buf : buffers_) {
    total += buf->spans().size();
    for (const Span& s : buf->spans()) origin = std::min(origin, s.start);
  }
  // Keep whole traces: a request's child spans stay with their root.
  const uint64_t stride = total > max_events ? (total + max_events - 1) / max_events : 1;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& buf : buffers_) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"name\":\"thread-%u\"}}",
                 first ? "" : ",\n", buf->tid(), buf->tid());
    first = false;
    for (const Span& s : buf->spans()) {
      if (s.trace % stride != 0) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%llu,"
                   "\"parent\":\"%s\"}}",
                   s.name, s.parent == nullptr ? "root" : "child", buf->tid(),
                   (s.start - origin) / 1e3, (s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.trace),
                   s.parent == nullptr ? "" : s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
