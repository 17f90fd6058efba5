#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

int64_t NowNanos();

/// \brief A timed interval around one call into a layer. `trace` groups the
/// spans of one client request (or one transform cycle); `parent` names the
/// enclosing span, nullptr for a root.
struct Span {
  const char* name = nullptr;
  const char* parent = nullptr;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t trace = 0;
};

/// \brief Spans recorded by one thread. Only its owner appends; the tracer
/// reads it after the owner has been joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t tid) : tid_(tid) { spans_.reserve(1 << 16); }

  void Add(const char* name, const char* parent, int64_t start, int64_t end,
           uint64_t trace) {
    spans_.push_back({name, parent, start, end, trace});
  }
  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
};

/// \brief In-memory span store for the traced run. Disabled, it hands out no
/// buffers and callers skip every clock read, which is what the untraced run
/// measures.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A buffer for the calling thread, or nullptr when tracing is off. The
  /// tracer owns it; it lives until the tracer is destroyed.
  SpanBuffer* NewBuffer();

  /// Durations (ns) of every span named `name`.
  std::vector<int64_t> Durations(const std::string& name) const;
  size_t span_count() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// track per recording thread). At most `max_events` spans are written,
  /// taken evenly across the run so the file stays loadable.
  bool WriteChromeJson(const std::string& path, size_t max_events) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  // guarded by mu_
};

/// \brief Runs `fn`, recording a span around it when `buf` is non-null.
template <typename Fn>
auto Timed(SpanBuffer* buf, const char* name, const char* parent,
           uint64_t trace, Fn&& fn) {
  if (buf == nullptr) return fn();
  const int64_t start = NowNanos();
  auto result = fn();
  buf->Add(name, parent, start, NowNanos(), trace);
  return result;
}

}  // namespace perfbench
