// Figure 4(c): interference on throughput by *log propagation*, for two
// update scenarios — 20% vs 80% of all workload updates landing on the
// source table T (the rest hit a dummy table, keeping total load constant).
//
// Paper series: both curves degrade with workload (relative throughput
// ~0.88-0.98); the 80% curve lies strictly below the 20% curve because four
// times more relevant log records force the propagator to run at a higher
// priority.
//
// The harness reproduces the priority mechanics honestly: the propagator
// starts at a 5% duty cycle and self-boosts (OnLag::kBoostPriority) until it
// keeps up with the log the workload generates; the equilibrium priority is
// reported per point.
//
// Every run writes BENCH_fig4_interference.json: per measurement point the
// user-transaction p50/p99 with and without the running transformation, the
// backlog-over-time series (the pause/resume sawtooth), and the duty cycle
// requested vs the one the throttle actually achieved. `--quick` (or
// MORPH_BENCH_QUICK=1) shrinks the sweep to a CI-smoke-sized subset with the
// same output schema.

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness/interference.h"

using namespace morph::bench;

namespace {

struct SweepPoint {
  double t_share;
  InterferencePoint p;
};

// Downsample the ~20 ms backlog series to at most `max_samples` entries so
// the JSON stays plot-friendly without losing the sawtooth shape.
void WriteBacklog(std::FILE* f, const std::vector<BacklogSample>& backlog,
                  size_t max_samples = 120) {
  const size_t stride = backlog.size() > max_samples
                            ? (backlog.size() + max_samples - 1) / max_samples
                            : 1;
  std::fprintf(f, "[");
  bool first = true;
  for (size_t i = 0; i < backlog.size(); i += stride) {
    std::fprintf(f, "%s{\"t_seconds\": %.3f, \"records\": %llu}",
                 first ? "" : ", ", backlog[i].at_seconds,
                 static_cast<unsigned long long>(backlog[i].records));
    first = false;
  }
  std::fprintf(f, "]");
}

void WriteInterferenceJson(const char* path, bool quick, double peak_tps,
                           const std::vector<SweepPoint>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig4c_interference\",\n"
               "  \"quick\": %s,\n  \"cores\": %u,\n  \"peak_tps\": %.0f,\n"
               "  \"points\": [",
               quick ? "true" : "false", std::thread::hardware_concurrency(),
               peak_tps);
  for (size_t i = 0; i < points.size(); ++i) {
    const InterferencePoint& p = points[i].p;
    std::fprintf(f,
                 "%s\n    {\n"
                 "      \"t_share\": %.2f,\n"
                 "      \"workload_pct\": %.0f,\n"
                 "      \"duty_requested\": %.4f,\n"
                 "      \"duty_achieved\": %.4f,\n"
                 "      \"base_tps\": %.1f,\n"
                 "      \"during_tps\": %.1f,\n"
                 "      \"relative_throughput\": %.4f,\n"
                 "      \"p50_micros\": {\"without_transform\": %.1f, "
                 "\"with_transform\": %.1f},\n"
                 "      \"p99_micros\": {\"without_transform\": %.1f, "
                 "\"with_transform\": %.1f},\n"
                 "      \"backlog_records\": ",
                 i ? "," : "", points[i].t_share, p.workload_pct,
                 p.priority_used, p.duty_achieved, p.base_tps, p.during_tps,
                 p.relative_throughput(), p.base_p50_micros,
                 p.during_p50_micros, p.base_p99_micros, p.during_p99_micros);
    WriteBacklog(f, p.backlog);
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu points)\n", path, points.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  if (const char* env = std::getenv("MORPH_BENCH_QUICK");
      env && env[0] != '\0' && env[0] != '0') {
    quick = true;
  }
  if (quick) std::printf("quick mode: CI-smoke-sized sweep\n");

  const std::vector<double> t_shares = quick ? std::vector<double>{0.8}
                                             : std::vector<double>{0.2, 0.8};
  const std::vector<double> pcts =
      quick ? std::vector<double>{60.0, 100.0}
            : std::vector<double>{40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0};
  const int reps_per_point = quick ? 1 : 2;
  const int pairs = quick ? 2 : 4;
  const int64_t window_micros = quick ? 400'000 : 700'000;

  SplitScenario calib = SplitScenario::Make();
  const double peak = CalibratePeakTps(calib.WorkloadFor(0.2, 4, 0),
                                       quick ? 600'000 : 1'200'000);
  std::printf("calibrated 100%% workload: %.0f txn/s (each txn = 10 updates)\n",
              peak);

  std::vector<SweepPoint> json_points;
  for (double t_share : t_shares) {
    const double capacity = CalibratePropagationCapacity(t_share);
    PrintHeader("Figure 4(c): relative throughput during log propagation, " +
                std::to_string(static_cast<int>(t_share * 100)) +
                "% updates on T");
    std::printf("propagator capacity at this mix: %.0f records/s\n", capacity);
    std::printf("%-12s %12s %12s %10s %10s %10s %12s\n", "workload_pct",
                "base_tps", "during_tps", "relative", "priority", "achieved",
                "p99_on/off");
    for (double pct : pcts) {
      std::vector<double> rels, bases, durings, prios, achieved, p99r;
      for (int rep = 0; rep < reps_per_point; ++rep) {
        const InterferencePoint p = MeasurePropagationInterference(
            pct, peak, t_share, capacity, pairs, window_micros);
        if (!p.valid) continue;
        json_points.push_back({t_share, p});
        rels.push_back(p.relative_throughput());
        bases.push_back(p.base_tps);
        durings.push_back(p.during_tps);
        prios.push_back(p.priority_used);
        achieved.push_back(p.duty_achieved);
        if (p.base_p99_micros > 0) {
          p99r.push_back(p.during_p99_micros / p.base_p99_micros);
        }
      }
      if (rels.empty()) {
        std::printf("%-12.0f %12s %12s %10s %10s %10s %12s\n", pct, "-", "-",
                    "-", "-", "-", "-");
        continue;
      }
      std::printf("%-12.0f %12.0f %12.0f %10.3f %10.3f %10.3f %12.2f\n", pct,
                  MedianOf(bases), MedianOf(durings), MedianOf(rels),
                  MedianOf(prios), MedianOf(achieved), MedianOf(p99r));
    }
  }
  std::printf(
      "\npaper shape: both curves degrade with workload (0.88-0.98); the 80%% "
      "curve lies below the 20%% curve and needs a higher priority\n");

  WriteInterferenceJson("BENCH_fig4_interference.json", quick, peak,
                        json_points);
  return 0;
}
