#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace morph::metrics {

/// \brief Monotonic event counter. Increment is a single relaxed fetch_add;
/// reads are relaxed loads — safe from any thread, never torn.
///
/// Counters only move forward within one engine incarnation; a "restart"
/// (crash test, WAL-only reload) is modelled by Registry::ResetAll(), the
/// in-process equivalent of the process dying.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-writer-wins instantaneous value (backlog length, achieved
/// duty in ppm, worker count). Signed so deltas/ratios can be stored.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Log-scale histogram: bucket i counts samples in (2^i, 2^(i+1)],
/// 48 buckets — recording is one relaxed fetch_add on the matching bucket
/// plus one on the running sum. Quantiles are resolved to a bucket upper
/// bound, the same fidelity the bench harness' LatencyHistogram offers.
///
/// Samples are nanoseconds for latencies (MORPH_HISTOGRAM_NANOS, ≈ 78 hours
/// of range) or plain values such as batch sizes (MORPH_HISTOGRAM_VALUE).
/// The name says which: a latency histogram's name ends in `_nanos`.
class Histogram {
 public:
  static constexpr size_t kBuckets = 48;

  void Record(int64_t v) {
    if (v < 0) v = 0;
    buckets_[BucketFor(static_cast<uint64_t>(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<uint64_t>(v), std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Upper bound of the bucket holding the q-quantile; 0 when empty.
  uint64_t Quantile(double q) const {
    uint64_t counts[kBuckets];
    uint64_t total = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0;
    const auto rank = static_cast<uint64_t>(q * static_cast<double>(total));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) return uint64_t{1} << (i + 1);
    }
    return uint64_t{1} << kBuckets;
  }

  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  static size_t BucketFor(uint64_t v) {
    size_t i = 0;
    while (i + 1 < kBuckets && (uint64_t{1} << (i + 1)) < v) ++i;
    return i;
  }

  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> sum_{0};
};

/// \brief Process-wide registry of named instruments.
///
/// Naming convention mirrors the failpoint sites: `<layer>.<component>.
/// <event>`, lower-case, e.g. `wal.appends`, `txn.lock.wait_nanos`,
/// `transform.propagate.ops`. Lookup takes a mutex; the returned pointer is
/// stable for the process lifetime (instruments are never erased, ResetAll
/// only zeroes values), so hot paths resolve a site once into a
/// function-local static and pay only the instrument's relaxed atomic after
/// that — the same two-tier layout as the failpoint registry.
class Registry {
 public:
  /// The first call applies MORPH_METRICS_DUMP if set: the JSON snapshot is
  /// written to that path (or stderr for the value "-") at process exit.
  static Registry& Instance();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Current value of a counter/gauge, 0 when the name was never registered
  /// (reads never create instruments).
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  /// Snapshot of every counter whose name starts with `prefix`.
  std::map<std::string, uint64_t> CounterSnapshot(
      const std::string& prefix = "") const;

  /// Zeroes every instrument (names and pointers survive). Models an engine
  /// restart in-process: the next incarnation starts its counters from zero.
  void ResetAll();

  /// Full JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum_nanos, p50_nanos, p95_nanos,
  /// p99_nanos}}} — for a histogram whose name does not end in `_nanos`
  /// (a value histogram) {count, sum, p50, p95, p99}.
  /// Valid JSON by construction (names are code-controlled but escaped
  /// anyway).
  std::string DumpJson() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Convenience free functions over the singleton.
inline std::string DumpJson() { return Registry::Instance().DumpJson(); }
inline void ResetAll() { Registry::Instance().ResetAll(); }

}  // namespace morph::metrics

/// \brief Hot-path instrument macros: the registry lookup runs once per call
/// site (thread-safe function-local static), after which the cost is one
/// relaxed atomic operation.
#define MORPH_COUNTER_ADD(name, n)                                   \
  do {                                                               \
    static ::morph::metrics::Counter* _morph_metric_c =              \
        ::morph::metrics::Registry::Instance().GetCounter(name);     \
    _morph_metric_c->Add(n);                                         \
  } while (false)

#define MORPH_COUNTER_INC(name) MORPH_COUNTER_ADD(name, 1)

#define MORPH_GAUGE_SET(name, v)                                     \
  do {                                                               \
    static ::morph::metrics::Gauge* _morph_metric_g =                \
        ::morph::metrics::Registry::Instance().GetGauge(name);       \
    _morph_metric_g->Set(v);                                         \
  } while (false)

#define MORPH_HISTOGRAM_NANOS(name, nanos)                           \
  do {                                                               \
    static ::morph::metrics::Histogram* _morph_metric_h =            \
        ::morph::metrics::Registry::Instance().GetHistogram(name);   \
    _morph_metric_h->Record(nanos);                                  \
  } while (false)

/// Like MORPH_HISTOGRAM_NANOS, for a dimensionless value (a batch size).
#define MORPH_HISTOGRAM_VALUE(name, value)                           \
  do {                                                               \
    static ::morph::metrics::Histogram* _morph_metric_h =            \
        ::morph::metrics::Registry::Instance().GetHistogram(name);   \
    _morph_metric_h->Record(value);                                  \
  } while (false)
