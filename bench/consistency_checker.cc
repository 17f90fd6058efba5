// Consistency-checker interference (paper §6 text): "Tests on concistency
// checking during split transformations ... show very similar results to
// those presented in Figures 4(a) and 4(b)."
//
// The scenario deliberately violates the grp→city functional dependency in
// a couple of hundred groups, so the split runs in §5.3 mode with U-flagged
// S-records and the consistency checker repeatedly fuzzy-reads T in the
// background (it can never bless genuinely inconsistent groups — that is
// the sustained CC load we measure). Interference is measured by comparing
// adjacent paused/running windows, like the other propagation benches.

#include <cstdio>
#include <future>

#include "bench/harness/bench_util.h"

using namespace morph;
using namespace morph::bench;

namespace {

/// Builds the split scenario and corrupts one row in ~250 groups
/// (Example-1-style inconsistencies).
SplitScenario MakeInconsistentScenario() {
  SplitScenario scenario = SplitScenario::Make();
  // Corrupt only ids below one group period, so each affected group has one
  // divergent row among its 2-3 members (a stride that divides the group
  // period would corrupt *all* members identically — consistently wrong is
  // still consistent).
  for (int64_t id = 0; id < kSplitGroups; id += 80) {
    (void)scenario.t->Mutate(Row({id}), [](storage::Record* rec) {
      rec->row[2] = Value(rec->row[2].AsString() + "_typo");
      return true;
    });
  }
  return scenario;
}

struct Point {
  double rel_tp = 0, rel_resp = 0;
  size_t u_flagged = 0;
  bool valid = false;
};

Point Measure(double pct, double peak) {
  Point point;
  SplitScenario scenario = MakeInconsistentScenario();
  WalJanitor janitor(scenario.db->wal());
  Workload workload(scenario.WorkloadFor(0.2, 4, pct / 100.0 * peak));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  transform::TransformConfig config;
  config.priority = 1.0;  // populate fast; the CC is what is under test
  config.on_lag = transform::OnLag::kBoostPriority;
  config.lag_iterations = 8;
  config.cc_batch = 16;
  config.drop_sources = false;
  auto rules = scenario.MakeRules(/*assume_consistent=*/false);
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  if (WaitForPhase(coord,
                   transform::TransformCoordinator::Phase::kPropagating)) {
    coord.set_priority(0.3);  // background duty cycle for propagation + CC
    point.u_flagged = rules->CountInconsistent();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::vector<double> off_tps, on_tps, off_resp, on_resp;
    for (int pair = 0; pair < 3; ++pair) {
      coord.SetPaused(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const WorkloadRates off = MeasureWindow(&workload, 800'000);
      coord.SetPaused(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const WorkloadRates on = MeasureWindow(&workload, 800'000);
      off_tps.push_back(off.tps);
      on_tps.push_back(on.tps);
      off_resp.push_back(off.avg_response_micros);
      on_resp.push_back(on.avg_response_micros);
    }
    point.valid = true;
    point.rel_tp = MedianOf(on_tps) / MedianOf(off_tps);
    point.rel_resp = MedianOf(on_resp) / MedianOf(off_resp);
  }
  coord.SetPaused(false);
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  workload.Stop();
  janitor.SetCoordinator(nullptr);
  return point;
}

}  // namespace

int main() {
  SplitScenario calib = SplitScenario::Make();
  const double peak = CalibratePeakTps(calib.WorkloadFor(0.2, 4, 0));
  std::printf("calibrated 100%% workload: %.0f txn/s\n", peak);

  PrintHeader(
      "Consistency checker interference (split §5.3, U-flagged groups under "
      "live load)");
  std::printf("%-12s %10s %10s %12s\n", "workload_pct", "rel_tp", "rel_resp",
              "u_flagged");
  for (double pct : {50.0, 75.0, 100.0}) {
    const Point p = Measure(pct, peak);
    if (!p.valid) {
      std::printf("%-12.0f %10s %10s %12s\n", pct, "-", "-", "-");
      continue;
    }
    std::printf("%-12.0f %10.3f %10.3f %12zu\n", pct, p.rel_tp, p.rel_resp,
                p.u_flagged);
  }
  std::printf(
      "\npaper shape: 'very similar' to the population interference of "
      "Figures 4(a)/4(b)\n");
  return 0;
}
