// Figure 4(a): interference on *throughput* by the initial population of a
// split transformation, with 20% of workload updates on the source table T.
//
// Paper series: relative throughput ~0.99 at 50% workload degrading to
// ~0.94-0.96 at 100% workload. The harness paces the update workload to each
// workload level (percent of calibrated peak throughput), measures baseline
// throughput, then re-measures inside the transformation's population phase.
//
// A second sweep measures the *population pipeline* itself: unthrottled
// (100% duty) wall time of InitialPopulate per operator (split, FOJ) and
// worker count, with ns/record per populate stage (scan / operator /
// insert), written to BENCH_fig4a_populate.json next to the core count that
// produced it (the parallel speedup depends on it, which is why the core
// count is part of the record). `--quick` (or MORPH_BENCH_QUICK=1) shrinks
// both sweeps to a CI-smoke-sized subset with the same JSON schema.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness/interference.h"
#include "common/metrics.h"
#include "transform/populate.h"
#include "transform/priority.h"

using namespace morph::bench;

namespace {

// The populate stage counters (transform/populate.h), read around one
// measured InitialPopulate.
struct StageNanos {
  double scan = 0, op = 0, insert = 0;

  static StageNanos Read() {
    auto& reg = morph::metrics::Registry::Instance();
    StageNanos s;
    s.scan = static_cast<double>(
        reg.CounterValue("transform.populate.stage.scan_nanos"));
    s.op = static_cast<double>(
        reg.CounterValue("transform.populate.stage.operator_nanos"));
    s.insert = static_cast<double>(
        reg.CounterValue("transform.populate.stage.insert_nanos"));
    return s;
  }
};

// A freshly loaded scenario and the rules populating from it: populate is
// a one-shot phase and the target tables must not pre-exist.
struct PopulateRun {
  std::shared_ptr<void> scenario;  // owns the database; outlives the rules
  std::shared_ptr<morph::transform::OperatorRules> rules;
};

struct PopulateCase {
  const char* op;
  int64_t source_rows;  // rows the populate scans, over all sources
  std::function<PopulateRun()> make;
};

// Unthrottled initial-population throughput (source rows consumed per
// second) per operator and population worker count, with the serial
// path's ns/record per stage (summed over workers for parallel rows).
void RunPopulateWorkerSweep(bool quick, const char* json_path) {
  const int64_t split_rows = quick ? 30'000 : 120'000;
  const int64_t split_groups = quick ? 10'000 : 40'000;
  const int64_t foj_r_rows = quick ? 30'000 : 100'000;
  const int64_t foj_s_rows = quick ? 12'000 : 40'000;
  const int reps = quick ? 1 : 3;
  const std::vector<size_t> worker_counts =
      quick ? std::vector<size_t>{0, 2, 4}
            : std::vector<size_t>{0, 1, 2, 4, 8};
  const unsigned cores = std::thread::hardware_concurrency();

  const std::vector<PopulateCase> cases = {
      {"split", split_rows,
       [=] {
         auto sc = std::make_shared<SplitScenario>(
             SplitScenario::Make(split_rows, split_groups));
         return PopulateRun{sc, sc->MakeRules()};
       }},
      {"foj", foj_r_rows + foj_s_rows,
       [=] {
         auto sc = std::make_shared<FojScenario>(
             FojScenario::Make(foj_r_rows, foj_s_rows));
         return PopulateRun{sc, sc->MakeRules()};
       }},
  };

  PrintHeader("initial-population throughput vs. population workers "
              "(split " + std::to_string(split_rows) + " rows, FOJ " +
              std::to_string(foj_r_rows) + " x " +
              std::to_string(foj_s_rows) + " rows, 100% duty)");
  std::printf("hardware_concurrency: %u\n", cores);
  std::printf("%-9s %-8s %16s %10s %9s %9s %9s\n", "operator", "workers",
              "records_per_sec", "speedup", "scan_ns", "op_ns", "insert_ns");

  struct Point {
    const char* op;
    int64_t source_rows;
    size_t workers;
    double records_per_sec;
    double speedup;
    StageNanos per_record;
  };
  std::vector<Point> points;
  for (const PopulateCase& c : cases) {
    double serial = 0;
    for (size_t workers : worker_counts) {
      std::vector<double> rates;
      StageNanos sum;
      for (int rep = 0; rep < reps; ++rep) {
        const PopulateRun run = c.make();
        morph::transform::OperatorRules* rules = run.rules.get();
        if (!rules->Prepare().ok()) std::abort();
        morph::transform::PriorityController pc(1.0);
        rules->set_throttle(&pc);
        morph::transform::PopulateConfig config;
        config.workers = workers;
        rules->set_populate_config(config);
        const StageNanos before = StageNanos::Read();
        const auto t0 = morph::Clock::Now();
        if (!rules->InitialPopulate().ok()) std::abort();
        const double secs = morph::Clock::MicrosSince(t0) / 1e6;
        const StageNanos after = StageNanos::Read();
        rates.push_back(static_cast<double>(c.source_rows) / secs);
        sum.scan += after.scan - before.scan;
        sum.op += after.op - before.op;
        sum.insert += after.insert - before.insert;
      }
      const double records = static_cast<double>(c.source_rows) * reps;
      Point p{c.op, c.source_rows, workers, MedianOf(rates), 0,
              {sum.scan / records, sum.op / records, sum.insert / records}};
      if (workers == 0) serial = p.records_per_sec;
      p.speedup = serial > 0 ? p.records_per_sec / serial : 0.0;
      points.push_back(p);
      std::printf("%-9s %-8zu %16.0f %10.2f %9.0f %9.0f %9.0f\n", p.op,
                  p.workers, p.records_per_sec, p.speedup, p.per_record.scan,
                  p.per_record.op, p.per_record.insert);
    }
  }

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"fig4a_populate_worker_sweep\",\n"
                 "  \"quick\": %s,\n  \"cores\": %u,\n  \"results\": [",
                 quick ? "true" : "false", cores);
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "%s\n    {\"operator\": \"%s\", \"rows\": %lld, "
                   "\"workers\": %zu, \"records_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"stage_ns_per_record\": "
                   "{\"scan\": %.0f, \"operator\": %.0f, \"insert\": %.0f}}",
                   i ? "," : "", p.op, static_cast<long long>(p.source_rows),
                   p.workers, p.records_per_sec, p.speedup, p.per_record.scan,
                   p.per_record.op, p.per_record.insert);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
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

  const std::vector<double> pcts =
      quick ? std::vector<double>{60.0, 100.0}
            : std::vector<double>{50.0, 60.0, 70.0, 80.0, 90.0, 100.0};
  const int reps_per_point = quick ? 1 : 3;

  SplitScenario calib = SplitScenario::Make();
  const double peak = CalibratePeakTps(calib.WorkloadFor(0.2, 4, 0),
                                       quick ? 600'000 : 1'200'000);
  std::printf("calibrated 100%% workload: %.0f txn/s (each txn = 10 updates)\n",
              peak);

  PrintHeader(
      "Figure 4(a): relative throughput during initial population "
      "(split, 20% updates on T)");
  std::printf("%-12s %12s %12s %10s\n", "workload_pct", "base_tps",
              "during_tps", "relative");
  for (double pct : pcts) {
    // Median of repeats: the shared host adds heavy run-to-run noise.
    std::vector<double> rels, bases, durings;
    for (int rep = 0; rep < reps_per_point; ++rep) {
      const InterferencePoint p = MeasurePopulationInterference(pct, peak);
      if (!p.valid) continue;
      rels.push_back(p.relative_throughput());
      bases.push_back(p.base_tps);
      durings.push_back(p.during_tps);
    }
    if (rels.empty()) {
      std::printf("%-12.0f %12s %12s %10s\n", pct, "-", "-", "(window missed)");
      continue;
    }
    std::printf("%-12.0f %12.0f %12.0f %10.3f\n", pct, MedianOf(bases),
                MedianOf(durings), MedianOf(rels));
  }
  std::printf(
      "\npaper shape: relative throughput 0.94-0.99, decreasing with "
      "workload\n");

  RunPopulateWorkerSweep(quick, "BENCH_fig4a_populate.json");
  return 0;
}
