// Foreground latency through a staggered tablet transform (ROADMAP item 2's
// single-node half): T = 1 (the whole table as one tablet) versus
// T ∈ {4, 16} hash-range tablets.
//
// The whole-table synchronization latches every tablet latch of every
// source at once and replays the final log slice under that latch: every
// concurrent writer, whatever key it touches, stalls for the whole pass.
// The staggered run takes T smaller latches, each covering 1/T of the key
// space, so a writer stalls only if it hits the one tablet being migrated
// — and then only for ~1/T of the work.
//
// Setup: the paper's split scenario (50k-row T, live 4-thread update
// workload paced at 50% of calibrated peak, half the updates on the source
// table). All cells share the same storage geometry (16 tablet latches per
// table); only the transform's stagger width varies, so the delta is
// attributable to the stagger alone. Per cell we record the foreground
// latency histogram over two windows — populate+propagate (run start until
// the first switch-over) and sync (first switch-over until drain entry,
// i.e. the latch window) — plus the latch pauses the coordinator itself
// measured. Latency of latch victims that are doomed at a switch is folded
// in via the workload's epoch-crossing abort histogram (p99_all).
//
// Writes BENCH_tablets.json. `--quick` (or MORPH_BENCH_QUICK=1) shrinks to
// T ∈ {1, 16}, fewer rows, one rep — same schema, CI-smoke sized.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/harness/bench_util.h"

using namespace morph;
using namespace morph::bench;

namespace {

struct WindowStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double tps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  /// p99 over every foreground *attempt*, committed or aborted. A writer
  /// that stalls on the synchronization latch and is then doomed at the
  /// switch never commits — the commit-only quantiles cannot see its
  /// stall, this one does.
  double p99_all_us = 0;
};

WindowStats WindowBetween(const WorkloadSnapshot& a,
                          const WorkloadSnapshot& b) {
  WindowStats w;
  LatencyHistogram diff, all;
  for (size_t i = 0; i < diff.buckets.size(); ++i) {
    diff.buckets[i] = b.hist.buckets[i] - a.hist.buckets[i];
    all.buckets[i] = diff.buckets[i] +
                     (b.abort_hist.buckets[i] - a.abort_hist.buckets[i]);
  }
  w.committed = b.committed - a.committed;
  w.aborted = b.aborted - a.aborted;
  const double seconds = (b.at_micros - a.at_micros) / 1e6;
  w.tps = seconds > 0 ? static_cast<double>(w.committed) / seconds : 0;
  w.p50_us = diff.QuantileMicros(0.50);
  w.p99_us = diff.QuantileMicros(0.99);
  w.p999_us = diff.QuantileMicros(0.999);
  w.p99_all_us = all.QuantileMicros(0.99);
  return w;
}

struct CellResult {
  size_t tablets = 0;
  size_t resolved_tablets = 0;
  bool completed = false;
  double wall_s = 0;
  /// Longest single user-visible latch pause (whole-table: the one latch;
  /// staggered: the worst per-tablet latch).
  double latch_ms_max = 0;
  double latch_ms_sum = 0;
  size_t doomed = 0;
  WindowStats populate;  ///< run start → first switch-over (epoch advance)
  WindowStats sync;      ///< first switch-over → drain entry (the latch window)
};

constexpr size_t kTableTablets = 16;

CellResult RunCellT(size_t tablets, int64_t rows, double target_tps) {
  CellResult result;
  result.tablets = tablets;

  engine::DatabaseOptions db_options;
  db_options.table_tablets = kTableTablets;
  SplitScenario scenario =
      SplitScenario::Make(rows, std::max<int64_t>(1, rows * 2 / 5), db_options);
  WalJanitor janitor(scenario.db->wal());

  Workload workload(scenario.WorkloadFor(0.5, 4, target_tps));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  transform::TransformConfig config;
  config.strategy = transform::SyncStrategy::kNonBlockingAbort;
  config.drop_sources = false;
  config.tablets = tablets;
  // Let the synchronization latch carry a real catch-up window instead of
  // converging it down to a few hundred records first: this emulates the
  // high-offered-load regime where convergence cannot outrun the writers —
  // the regime where the latch pause matters. Both cells converge the rest
  // of the backlog concurrently, so total work is comparable; whole-table
  // then replays the window under one latch while staggered keeps
  // converging unlatched and pays only the fresh tail per tablet latch.
  // The iteration cap keeps the convergence stop point tight at the
  // threshold (a full-size pass would overshoot far below it and shrink
  // the window under test).
  config.sync_threshold =
      std::max<size_t>(static_cast<size_t>(rows) / 5, 4000);
  config.max_records_per_iteration = 1024;
  auto rules = scenario.MakeRules();
  transform::TransformCoordinator coord(scenario.db.get(), rules, config);
  janitor.SetCoordinator(&coord);

  // A monitor thread pins the window boundary at the start of the switch
  // work. Everything before it (scans, propagation, catch-up convergence)
  // is background work writers run *beside*; everything after is the
  // switch window where latch stalls and dooms land. The boundary is
  // path-aware so the convergence work sits in the populate window for
  // both cells: the whole-table path converges in its propagation phase
  // and latches the moment it enters the sync phase, so phase entry is its
  // boundary (the epoch flip would race the victims' own abort records —
  // flip and latch release are microseconds apart); the staggered path
  // converges *inside* its sync phase before the first latch, so its
  // boundary is the first epoch advance. The window ends at drain entry
  // plus a short grace so writers woken off the final latch finish
  // recording. The post-switch instant-abort retry flood does not pollute
  // the quantiles: the workload's abort histogram only records
  // epoch-crossing aborts.
  const WorkloadSnapshot s0 = workload.Snapshot();
  std::atomic<bool> sync_seen{false};
  WorkloadSnapshot s_sync, s_drain;
  std::thread monitor([&] {
    const bool staggered = tablets > 1;
    while ((staggered
                ? scenario.db->current_epoch() == 0
                : coord.phase() <
                      transform::TransformCoordinator::Phase::kSynchronizing) &&
           coord.phase() < transform::TransformCoordinator::Phase::kDraining) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (staggered && scenario.db->current_epoch() == 0) {
      return;  // aborted before a switch
    }
    s_sync = workload.Snapshot();
    while (coord.phase() < transform::TransformCoordinator::Phase::kDraining) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    s_drain = workload.Snapshot();
    sync_seen.store(true, std::memory_order_release);
  });

  const auto start = Clock::Now();
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  auto stats = stats_f.get();
  result.wall_s = Clock::SecondsSince(start);
  monitor.join();
  const WorkloadSnapshot s_end = workload.Snapshot();
  workload.Stop();
  janitor.SetCoordinator(nullptr);

  if (!stats.ok() || !stats->completed) {
    std::fprintf(stderr, "tablets=%zu run failed: %s\n", tablets,
                 stats.ok() ? stats->abort_reason.c_str()
                            : stats.status().ToString().c_str());
    return result;
  }
  result.completed = true;
  result.resolved_tablets = stats->tablets;
  result.doomed = stats->txns_doomed;
  if (stats->tablets > 1) {
    for (const int64_t nanos : stats->tablet_latch_nanos) {
      result.latch_ms_max = std::max(result.latch_ms_max, nanos / 1e6);
      result.latch_ms_sum += nanos / 1e6;
    }
  } else {
    result.latch_ms_max = stats->sync_latch_nanos / 1e6;
    result.latch_ms_sum = result.latch_ms_max;
  }
  if (sync_seen.load(std::memory_order_acquire)) {
    result.populate = WindowBetween(s0, s_sync);
    result.sync = WindowBetween(s_sync, s_drain);
  } else {
    result.populate = WindowBetween(s0, s_end);
  }
  if (std::getenv("MORPH_STAGGER_DEBUG") && stats->tablets > 1) {
    for (size_t k = 0; k < stats->tablet_latch_nanos.size(); ++k) {
      std::fprintf(stderr, "  tablet %2zu latch %8.3f ms\n", k,
                   stats->tablet_latch_nanos[k] / 1e6);
    }
  }
  return result;
}

void PrintCell(const CellResult& r) {
  std::printf(
      "%-8zu %-9zu %8.2f %10.3f %10.3f %7zu | %8.0f %8.0f %8.0f | %8.0f "
      "%8.0f %9.0f\n",
      r.tablets, r.resolved_tablets, r.wall_s, r.latch_ms_max, r.latch_ms_sum,
      r.doomed, r.populate.p50_us, r.populate.p99_us, r.populate.p999_us,
      r.sync.p50_us, r.sync.p99_us, r.sync.p99_all_us);
}

void EmitWindow(std::FILE* f, const char* name, const WindowStats& w,
                const char* trailing) {
  std::fprintf(f,
               "      \"%s\": {\"committed\": %llu, \"aborted\": %llu, "
               "\"tps\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
               "\"p999_us\": %.1f, \"p99_all_us\": %.1f}%s\n",
               name, static_cast<unsigned long long>(w.committed),
               static_cast<unsigned long long>(w.aborted), w.tps, w.p50_us,
               w.p99_us, w.p999_us, w.p99_all_us, trailing);
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

  const int64_t rows = quick ? 10'000 : kSplitRows;
  const std::vector<size_t> widths =
      quick ? std::vector<size_t>{1, 16} : std::vector<size_t>{1, 4, 16};
  const int reps = 3;

  // One calibration serves all cells: same schema, same storage geometry.
  engine::DatabaseOptions calib_options;
  calib_options.table_tablets = kTableTablets;
  SplitScenario calib = SplitScenario::Make(
      rows, std::max<int64_t>(1, rows * 2 / 5), calib_options);
  const double peak = CalibratePeakTps(calib.WorkloadFor(0.5, 4, 0),
                                       quick ? 400'000 : 1'200'000);
  const double target_tps = 0.5 * peak;
  std::printf("calibrated 100%% workload: %.0f txn/s; running at 50%%\n", peak);

  PrintHeader("Foreground latency through a staggered tablet transform");
  std::printf("%zu rows, %zu tablet latches/table, 4 threads, 50%% load\n",
              static_cast<size_t>(rows), kTableTablets);
  std::printf(
      "%-8s %-9s %8s %10s %10s %7s | %-26s | %-27s\n", "tablets", "resolved",
      "wall_s", "latch_max", "latch_sum", "doomed",
      "populate p50/p99/p999 us", "sync p50/p99/p99all us");

  std::vector<CellResult> results;
  for (const size_t tablets : widths) {
    // Component-wise medians across reps: each metric is medianed
    // independently, so a single scheduler-preemption outlier in one rep
    // cannot pollute the reported latch or wall time. The reported cell is
    // synthetic (its fields may come from different reps) but every field
    // is the median of real measurements.
    std::vector<CellResult> reps_out;
    for (int rep = 0; rep < reps; ++rep) {
      CellResult r = RunCellT(tablets, rows, target_tps);
      if (!r.completed) return 1;
      reps_out.push_back(r);
    }
    auto med = [&](auto field) {
      std::vector<double> xs;
      for (const CellResult& r : reps_out) xs.push_back(field(r));
      std::sort(xs.begin(), xs.end());
      return xs[xs.size() / 2];
    };
    auto med_w = [&](auto field) {
      WindowStats w;
      w.committed = static_cast<uint64_t>(
          med([&](const CellResult& r) { return double(field(r).committed); }));
      w.aborted = static_cast<uint64_t>(
          med([&](const CellResult& r) { return double(field(r).aborted); }));
      w.tps = med([&](const CellResult& r) { return field(r).tps; });
      w.p50_us = med([&](const CellResult& r) { return field(r).p50_us; });
      w.p99_us = med([&](const CellResult& r) { return field(r).p99_us; });
      w.p999_us = med([&](const CellResult& r) { return field(r).p999_us; });
      w.p99_all_us =
          med([&](const CellResult& r) { return field(r).p99_all_us; });
      return w;
    };
    CellResult cell = reps_out.front();
    cell.wall_s = med([](const CellResult& r) { return r.wall_s; });
    cell.latch_ms_max = med([](const CellResult& r) { return r.latch_ms_max; });
    cell.latch_ms_sum = med([](const CellResult& r) { return r.latch_ms_sum; });
    cell.doomed = static_cast<size_t>(
        med([](const CellResult& r) { return double(r.doomed); }));
    cell.populate = med_w([](const CellResult& r) -> const WindowStats& {
      return r.populate;
    });
    cell.sync =
        med_w([](const CellResult& r) -> const WindowStats& { return r.sync; });
    PrintCell(cell);
    results.push_back(cell);
  }

  const CellResult& base = results.front();
  const CellResult& widest = results.back();
  const double sync_p99_ratio = widest.sync.p99_all_us > 0
                                    ? base.sync.p99_all_us / widest.sync.p99_all_us
                                    : 0;
  const double latch_ratio = widest.latch_ms_max > 0
                                 ? base.latch_ms_max / widest.latch_ms_max
                                 : 0;
  const double wall_ratio = base.wall_s > 0 ? widest.wall_s / base.wall_s : 0;

  const char* json_path = "BENCH_tablets.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"tablet_stagger\",\n"
                 "  \"quick\": %s,\n  \"cores\": %u,\n"
                 "  \"rows\": %lld,\n  \"table_tablets\": %zu,\n"
                 "  \"target_tps\": %.0f,\n"
                 "  \"sync_p99_ratio\": %.3f,\n"
                 "  \"latch_ratio\": %.3f,\n"
                 "  \"wall_ratio\": %.3f,\n"
                 "  \"results\": [",
                 quick ? "true" : "false", std::thread::hardware_concurrency(),
                 static_cast<long long>(rows), kTableTablets, target_tps,
                 sync_p99_ratio, latch_ratio, wall_ratio);
    for (size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      std::fprintf(f,
                   "%s\n    {\n      \"tablets\": %zu, \"resolved_tablets\": "
                   "%zu, \"wall_s\": %.3f,\n      \"latch_ms_max\": %.4f, "
                   "\"latch_ms_sum\": %.4f, \"doomed\": %zu,\n",
                   i ? "," : "", r.tablets, r.resolved_tablets, r.wall_s,
                   r.latch_ms_max, r.latch_ms_sum, r.doomed);
      EmitWindow(f, "populate", r.populate, ",");
      EmitWindow(f, "sync", r.sync, "");
      std::fprintf(f, "    }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  std::printf(
      "T=%zu vs T=1: sync-window p99 %.2fx lower, worst latch %.2fx "
      "shorter, wall time %.2fx\n",
      widest.tablets, sync_p99_ratio, latch_ratio, wall_ratio);
  return 0;
}
