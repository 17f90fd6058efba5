// FOJ interference (paper §6 text): "Tests on ... initial population of FOJ
// transformations show very similar results to those presented in Figures
// 4(a) and 4(b). ... the same effect is observed on log propagation for FOJ
// on both throughput and response time."
//
// This bench repeats the Figure-4(a)/(c)-style measurements for the full
// outer join transformation (50k R rows ⟗ 20k S rows) so the "very
// similar" claim can be checked against the split numbers. Methodology
// matches the split benches: population interference compares a baseline
// window against a window inside the (throttled) population phase;
// propagation interference compares adjacent paused/running windows at a
// capacity-derived priority.

#include <cstdio>
#include <future>

#include "bench/harness/bench_util.h"

using namespace morph;
using namespace morph::bench;

namespace {

struct Point {
  double rel_tp = 0, rel_resp = 0;
  double priority = 0;
  bool valid = false;
};

Point MeasureFojPopulation(double pct, double peak) {
  Point point;
  FojScenario scenario = FojScenario::Make();
  WalJanitor janitor(scenario.db->wal());
  Workload workload(scenario.WorkloadFor(0.2, 4, pct / 100.0 * peak));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const WorkloadRates before = MeasureWindow(&workload, 1'500'000);

  transform::TransformConfig config;
  config.priority = 0.04;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  // One worker, as in MeasurePopulationInterference: the during-window
  // must fit inside a single reorganizer's throttled population.
  transform::PopulateConfig populate;
  populate.workers = 1;
  rules->set_populate_config(populate);
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  if (WaitForPhase(coord, transform::TransformCoordinator::Phase::kPopulating)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const WorkloadRates during = MeasureWindow(&workload, 1'500'000);
    if (coord.phase() == transform::TransformCoordinator::Phase::kPopulating) {
      point.valid = before.tps > 0 && before.avg_response_micros > 0;
      point.rel_tp = during.tps / before.tps;
      point.rel_resp = during.avg_response_micros / before.avg_response_micros;
    }
  }
  coord.set_priority(1.0);
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  workload.Stop();
  janitor.SetCoordinator(nullptr);
  return point;
}

double CalibrateFojPropagationCapacity() {
  FojScenario scenario = FojScenario::Make();
  Workload workload(scenario.WorkloadFor(0.2, 4, 0));
  transform::TransformConfig config;
  config.priority = 1.0;
  config.lag_iterations = 1'000'000;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  coord.SetSyncHold(true);
  coord.SetPaused(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, transform::TransformCoordinator::Phase::kPropagating);
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  workload.Stop();
  const Lsn start = coord.propagated_lsn();
  const Lsn end = scenario.db->wal()->LastLsn();
  const auto t0 = Clock::Now();
  coord.SetPaused(false);
  while (coord.propagated_lsn() < end && Clock::MicrosSince(t0) < 20'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const double seconds = Clock::MicrosSince(t0) / 1e6;
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  if (seconds <= 0 || end <= start) return 1e6;
  return static_cast<double>(end - start) / seconds;
}

Point MeasureFojPropagation(double pct, double peak, double capacity) {
  Point point;
  const double target_tps = pct / 100.0 * peak;
  const double priority =
      std::clamp(target_tps * 12 / capacity * 1.3, 0.02, 1.0);
  point.priority = priority;

  FojScenario scenario = FojScenario::Make();
  WalJanitor janitor(scenario.db->wal());
  Workload workload(scenario.WorkloadFor(0.2, 4, target_tps));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  transform::TransformConfig config;
  config.priority = 1.0;
  config.on_lag = transform::OnLag::kAbort;
  config.lag_iterations = 1'000'000;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  if (WaitForPhase(coord, transform::TransformCoordinator::Phase::kPropagating)) {
    coord.set_priority(priority);
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
  FojScenario calib = FojScenario::Make();
  const double peak = CalibratePeakTps(calib.WorkloadFor(0.2, 4, 0));
  std::printf("calibrated 100%% workload: %.0f txn/s\n", peak);

  PrintHeader(
      "FOJ initial population interference (50k R ⟗ 20k S, 20% updates on R)");
  std::printf("%-12s %10s %10s\n", "workload_pct", "rel_tp", "rel_resp");
  for (double pct : {50.0, 75.0, 100.0}) {
    std::vector<double> tps, resp;
    for (int rep = 0; rep < 3; ++rep) {
      const Point p = MeasureFojPopulation(pct, peak);
      if (!p.valid) continue;
      tps.push_back(p.rel_tp);
      resp.push_back(p.rel_resp);
    }
    if (tps.empty()) {
      std::printf("%-12.0f %10s %10s\n", pct, "-", "-");
      continue;
    }
    std::printf("%-12.0f %10.3f %10.3f\n", pct, MedianOf(tps), MedianOf(resp));
  }

  const double capacity = CalibrateFojPropagationCapacity();
  PrintHeader("FOJ log propagation interference (20% updates on R)");
  std::printf("propagator capacity at this mix: %.0f records/s\n", capacity);
  std::printf("%-12s %10s %10s %10s\n", "workload_pct", "rel_tp", "rel_resp",
              "priority");
  for (double pct : {50.0, 75.0, 100.0}) {
    std::vector<double> tps, resp, prio;
    for (int rep = 0; rep < 2; ++rep) {
      const Point p = MeasureFojPropagation(pct, peak, capacity);
      if (!p.valid) continue;
      tps.push_back(p.rel_tp);
      resp.push_back(p.rel_resp);
      prio.push_back(p.priority);
    }
    if (tps.empty()) {
      std::printf("%-12.0f %10s %10s %10s\n", pct, "-", "-", "-");
      continue;
    }
    std::printf("%-12.0f %10.3f %10.3f %10.3f\n", pct, MedianOf(tps),
                MedianOf(resp), MedianOf(prio));
  }
  std::printf(
      "\npaper shape: 'very similar' to the split transformation's Figures "
      "4(a)-(c)\n");
  return 0;
}
