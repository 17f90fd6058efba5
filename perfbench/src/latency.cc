#include "latency.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<int64_t>* values, double q) {
  if (values->empty()) return 0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return static_cast<double>((*values)[rank]);
}

double SlicedQuantile(const std::vector<int64_t>& values, double q, size_t slice) {
  const size_t n_slices = std::max<size_t>(1, values.size() / slice);
  std::vector<double> per_slice;
  for (size_t i = 0; i < n_slices; ++i) {
    // The last slice takes the remainder.
    const auto begin = values.begin() + i * slice;
    const auto end = i + 1 == n_slices ? values.end() : begin + slice;
    std::vector<int64_t> part(begin, end);
    per_slice.push_back(Quantile(&part, q));
  }
  std::sort(per_slice.begin(), per_slice.end());
  const size_t m = per_slice.size();
  return m % 2 ? per_slice[m / 2] : (per_slice[m / 2 - 1] + per_slice[m / 2]) / 2;
}

double BucketQuantileNanos(const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = seen + static_cast<double>(counts[i]);
    if (next >= rank) {
      const double lo = std::ldexp(1.0, static_cast<int>(i));
      const double frac = (rank - seen) / static_cast<double>(counts[i]);
      return lo + frac * lo;  // bucket spans (lo, 2*lo]
    }
    seen = next;
  }
  return std::ldexp(1.0, static_cast<int>(counts.size()));
}

}  // namespace perfbench
