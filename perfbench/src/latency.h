#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief One foreground request as the open-loop generator saw it. Times
/// are steady-clock nanoseconds. Latency runs from `due` (the schedule), not
/// from when the request was sent, so a stall also charges the requests
/// queued behind it.
struct RequestSample {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t done = 0;
  uint32_t retries = 0;
  bool committed = false;

  int64_t latency() const { return done - due; }
  int64_t lateness() const { return sent - due; }
};

/// \brief Exact quantile over raw values (nearest rank, no bucketing), so a
/// p99 moves with the data instead of in whole histogram buckets. Reorders
/// `values`. Returns 0 for an empty sample.
double Quantile(std::vector<int64_t>* values, double q);

/// \brief Tail quantile robust to rare device stalls: `values` (in due
/// order) is cut into consecutive slices of `slice` requests, each slice's
/// `q` quantile is taken, and the median over slices is returned. One
/// multi-millisecond fsync stall then moves one slice, not the whole run's
/// figure; a slowdown that lasts (a transform phase) moves every slice. A
/// sample shorter than two slices is taken as one slice.
double SlicedQuantile(const std::vector<int64_t>& values, double q, size_t slice);

/// \brief Interpolated quantile of a 2x-bucket histogram given as bucket
/// counts, bucket i covering (2^i, 2^(i+1)] ns: the rank is placed linearly
/// inside its bucket. Used only for engine instruments that exist solely in
/// that form; the benchmark's own latencies are raw samples.
double BucketQuantileNanos(const std::vector<uint64_t>& counts, double q);

}  // namespace perfbench
