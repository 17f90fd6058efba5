#pragma once

#include <optional>

#include "bench/harness/bench_util.h"

namespace morph::bench {

/// \brief Propagation backlog at one instant of a measurement
/// (`wal->LastLsn() - coord.propagated_lsn()`, in log records).
struct BacklogSample {
  double at_seconds = 0;  ///< since the measurement started
  uint64_t records = 0;
};

/// \brief One measurement point of a Figure-4-style interference sweep.
struct InterferencePoint {
  double workload_pct = 0;
  double base_tps = 0;    ///< mean of the before- and after-windows
  double during_tps = 0;
  double base_resp_micros = 0;
  double during_resp_micros = 0;
  double base_p50_micros = 0;
  double during_p50_micros = 0;
  double base_p99_micros = 0;
  double during_p99_micros = 0;
  double priority_used = 0;
  /// Duty cycle the throttle actually realized over the on-windows
  /// (work / (work + sleep) from PriorityController::totals() deltas);
  /// compare against priority_used for throttle fidelity.
  double duty_achieved = 0;
  /// Backlog over time, sampled ~every 20 ms across the whole interleaved
  /// measurement (pause phases included — the sawtooth is the point).
  std::vector<BacklogSample> backlog;
  bool valid = false;

  double relative_throughput() const {
    return base_tps > 0 ? during_tps / base_tps : 0;
  }
  double relative_response() const {
    return base_resp_micros > 0 ? during_resp_micros / base_resp_micros : 0;
  }
};

/// \brief Interference of the split transformation's *initial population*
/// step on a concurrent update workload (Figures 4a / 4b).
///
/// A fresh paper-scale scenario is built per point; the workload is paced to
/// `workload_pct` percent of `peak_tps`. The baseline is measured twice —
/// before the transformation starts and after it is aborted — and averaged,
/// which cancels slow drift on the shared host; the during-window is
/// measured while the coordinator sits in the kPopulating phase.
inline InterferencePoint MeasurePopulationInterference(
    double workload_pct, double peak_tps, double t_share = 0.2,
    double populate_priority = 0.03) {
  InterferencePoint point;
  point.workload_pct = workload_pct;
  point.priority_used = populate_priority;

  SplitScenario scenario = SplitScenario::Make();
  WalJanitor janitor(scenario.db->wal());
  Workload workload(
      scenario.WorkloadFor(t_share, 4, workload_pct / 100.0 * peak_tps));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));  // warm-up
  const WorkloadRates before = MeasureWindow(&workload, 1'500'000);

  transform::TransformConfig config;
  config.priority = populate_priority;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  // One population worker, the paper's single reorganizer: the duty is per
  // worker, so the default width would double the population's CPU share,
  // and halve the phase until the during-window no longer fits inside it.
  transform::PopulateConfig populate;
  populate.workers = 1;
  rules->set_populate_config(populate);
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  WorkloadRates during;
  bool window_ok = false;
  if (WaitForPhase(coord, transform::TransformCoordinator::Phase::kPopulating)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    during = MeasureWindow(&workload, 1'500'000);
    // Only valid if the whole window fell inside the population phase.
    window_ok =
        coord.phase() == transform::TransformCoordinator::Phase::kPopulating;
  }
  // Finish the (doomed) population quickly, then abort the transformation.
  coord.set_priority(1.0);
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  workload.Stop();

  if (window_ok) {
    point.valid = true;
    // Baseline = the before-window only: an after-window would be inflated
    // by the paced clients repaying the debt the measurement built up.
    point.base_tps = before.tps;
    point.during_tps = during.tps;
    point.base_resp_micros = before.avg_response_micros;
    point.during_resp_micros = during.avg_response_micros;
  }
  janitor.SetCoordinator(nullptr);
  return point;
}

/// \brief One-time calibration of the propagator's capacity: how many log
/// records per second it consumes at full duty against this scenario's
/// workload mix (`t_share` relevant records doing real rule work, the rest
/// skipped). Used to compute the priority a given workload level requires —
/// the paper's §3.3 sizing question ("the propagator needs a higher
/// priority if many log records are generated").
inline double CalibratePropagationCapacity(double t_share) {
  SplitScenario scenario = SplitScenario::Make();
  Workload workload(scenario.WorkloadFor(t_share, 4, /*unpaced*/ 0));

  transform::TransformConfig config;
  config.priority = 1.0;
  config.lag_iterations = 1'000'000;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  coord.SetSyncHold(true);
  coord.SetPaused(true);  // populate runs; propagation waits
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, transform::TransformCoordinator::Phase::kPropagating);

  // Build a backlog, then stop the workload and time the drain.
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  workload.Stop();
  const Lsn start = coord.propagated_lsn();
  const Lsn end = scenario.db->wal()->LastLsn();
  const auto t0 = Clock::Now();
  coord.SetPaused(false);
  while (coord.propagated_lsn() < end &&
         Clock::MicrosSince(t0) < 20'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const double seconds = Clock::MicrosSince(t0) / 1e6;
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  if (seconds <= 0 || end <= start) return 1e6;
  return static_cast<double>(end - start) / seconds;
}

/// \brief Interference of *log propagation* on the workload (Figure 4c).
///
/// The transformation priority is sized from first principles: the workload
/// at `workload_pct` emits ~12 log records per transaction; the propagator
/// consumes `capacity` records/second at full duty; the duty cycle that
/// just keeps up (times a 1.3 safety factor) is what a DBA would configure,
/// and reproduces the paper's observation that more updates on T require a
/// higher priority and therefore cause more interference.
///
/// Measurement is *interleaved*: the propagator is alternately paused and
/// resumed and adjacent off/on windows are compared. On this shared host,
/// capacity drifts by tens of percent over multi-second scales, so a
/// before-vs-minutes-later comparison is meaningless — adjacent windows
/// cancel the drift.
inline InterferencePoint MeasurePropagationInterference(
    double workload_pct, double peak_tps, double t_share, double capacity,
    int pairs = 4, int64_t window_micros = 700'000) {
  InterferencePoint point;
  point.workload_pct = workload_pct;

  const double target_tps = workload_pct / 100.0 * peak_tps;
  const double record_rate = target_tps * 12;  // 10 updates + begin + commit
  const double priority =
      std::clamp(record_rate / capacity * 1.3, 0.02, 1.0);
  point.priority_used = priority;

  SplitScenario scenario = SplitScenario::Make();
  WalJanitor janitor(scenario.db->wal());
  Workload workload(scenario.WorkloadFor(t_share, 4, target_tps));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  transform::TransformConfig config;
  config.priority = 1.0;  // populate fast; the sweep is about propagation
  config.on_lag = transform::OnLag::kAbort;
  config.lag_iterations = 1'000'000;
  config.drop_sources = false;
  auto rules = scenario.MakeRules();
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);
  coord.SetSyncHold(true);  // keep it propagating for the whole measurement
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  bool window_ok = false;
  std::vector<double> off_tps, on_tps, off_resp, on_resp;
  std::vector<double> off_p50, on_p50, off_p99, on_p99;
  transform::PriorityController::DutyTotals on_delta;
  if (WaitForPhase(coord, transform::TransformCoordinator::Phase::kPropagating)) {
    coord.set_priority(priority);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Backlog sampler: covers the whole interleaved measurement so the
    // pause/resume sawtooth (growth while paused, drain while running) is
    // visible in the exported series.
    std::atomic<bool> sampling{true};
    std::vector<BacklogSample> backlog;
    std::thread sampler([&] {
      const auto t0 = Clock::Now();
      while (sampling.load(std::memory_order_acquire)) {
        const Lsn last = scenario.db->wal()->LastLsn();
        const Lsn prop = coord.propagated_lsn();
        BacklogSample s;
        s.at_seconds = Clock::MicrosSince(t0) / 1e6;
        s.records = (prop != kInvalidLsn && last > prop) ? last - prop : 0;
        backlog.push_back(s);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    for (int pair = 0; pair < pairs; ++pair) {
      coord.SetPaused(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const WorkloadRates off = MeasureWindow(&workload, window_micros);
      coord.SetPaused(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const auto duty_before = coord.duty_totals();
      const WorkloadRates on = MeasureWindow(&workload, window_micros);
      const auto duty_after = coord.duty_totals();
      on_delta.work_nanos += duty_after.work_nanos - duty_before.work_nanos;
      on_delta.slept_nanos += duty_after.slept_nanos - duty_before.slept_nanos;
      off_tps.push_back(off.tps);
      on_tps.push_back(on.tps);
      off_resp.push_back(off.avg_response_micros);
      on_resp.push_back(on.avg_response_micros);
      off_p50.push_back(off.p50_response_micros);
      on_p50.push_back(on.p50_response_micros);
      off_p99.push_back(off.p99_response_micros);
      on_p99.push_back(on.p99_response_micros);
    }
    sampling.store(false, std::memory_order_release);
    sampler.join();
    point.backlog = std::move(backlog);
    window_ok = true;
  }
  coord.SetPaused(false);
  coord.RequestAbort();
  coord.SetSyncHold(false);
  (void)stats_f.get();
  workload.Stop();

  if (window_ok) {
    point.valid = true;
    point.base_tps = MedianOf(off_tps);
    point.during_tps = MedianOf(on_tps);
    point.base_resp_micros = MedianOf(off_resp);
    point.during_resp_micros = MedianOf(on_resp);
    point.base_p50_micros = MedianOf(off_p50);
    point.during_p50_micros = MedianOf(on_p50);
    point.base_p99_micros = MedianOf(off_p99);
    point.during_p99_micros = MedianOf(on_p99);
    point.duty_achieved = on_delta.achieved();
  }
  janitor.SetCoordinator(nullptr);
  return point;
}

}  // namespace morph::bench
