#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/priority.h"
#include "transform/propagator.h"
#include "transform/split.h"
#include "txn/transform_locks.h"

namespace morph::transform {
namespace {

using morph::testing::Numbered;

TEST(PriorityControllerTest, FullPriorityNeverSleeps) {
  PriorityController pc(1.0);
  const auto start = Clock::Now();
  for (int i = 0; i < 1000; ++i) pc.OnWorkDone(1'000'000);  // 1 ms each
  EXPECT_LT(Clock::MicrosSince(start), 50'000);
}

TEST(PriorityControllerTest, PriorityClampedToValidRange) {
  PriorityController pc(5.0);
  EXPECT_DOUBLE_EQ(pc.priority(), 1.0);
  pc.set_priority(-1.0);
  EXPECT_DOUBLE_EQ(pc.priority(), 0.001);
  pc.set_priority(0.25);
  EXPECT_DOUBLE_EQ(pc.priority(), 0.25);
}

TEST(PriorityControllerTest, HalfPriorityRoughlyDoublesWallTime) {
  PriorityController pc(0.5);
  const auto start = Clock::Now();
  // Report 40 ms of work in 2 ms slices: at 50% duty the controller owes
  // another ~40 ms of sleep.
  for (int i = 0; i < 20; ++i) pc.OnWorkDone(2'000'000);
  const int64_t slept = Clock::MicrosSince(start);
  // Generous bounds: sleep_for overshoots substantially on a loaded
  // single-core host; only gross mis-accounting should fail this.
  EXPECT_GT(slept, 30'000);
  EXPECT_LT(slept, 400'000);
}

TEST(PriorityControllerTest, SubMicrosecondSlicesAccumulateDebt) {
  // The regression this class exists for: slices far below the sleep
  // quantum must still be paid for once their debt accumulates.
  PriorityController pc(0.01);
  const auto start = Clock::Now();
  // 2000 slices of 500 ns = 1 ms of work; at 1% duty the controller owes
  // ~99 ms of sleep.
  for (int i = 0; i < 2000; ++i) pc.OnWorkDone(500);
  const int64_t slept = Clock::MicrosSince(start);
  EXPECT_GT(slept, 60'000);
}

TEST(PriorityControllerTest, ZeroOrNegativeWorkIgnored) {
  PriorityController pc(0.01);
  const auto start = Clock::Now();
  for (int i = 0; i < 1000; ++i) {
    pc.OnWorkDone(0);
    pc.OnWorkDone(-5);
  }
  EXPECT_LT(Clock::MicrosSince(start), 20'000);
}

TEST(PriorityControllerTest, AchievedDutyWithinTwiceRequested) {
  // Regression for the duty-cycle truncation bug: OnWorkDone used to pay at
  // most one 50 ms sleep chunk per call, so at low priority with multi-ms
  // work slices the achieved duty settled near slice/(slice + 50 ms)
  // regardless of what was requested (~9% for 5 ms slices), and the unpaid
  // debt grew without bound. The fix loops until the debt is below the
  // sleep quantum.
  constexpr double kRequested = 0.02;
  PriorityController pc(kRequested);
  const auto start = Clock::Now();
  // 4 slices of 5 ms = 20 ms of work; at 2% duty the controller owes
  // ~980 ms of sleep. Pre-fix it would pay only 4 * 50 ms = 200 ms,
  // an achieved duty of ~0.09 — more than 4x the request.
  for (int i = 0; i < 4; ++i) pc.OnWorkDone(5'000'000);
  const double elapsed_nanos =
      static_cast<double>(Clock::MicrosSince(start)) * 1e3;
  constexpr double kWorkNanos = 20e6;
  const double wall_achieved = kWorkNanos / (kWorkNanos + elapsed_nanos);
  EXPECT_LE(wall_achieved, 2 * kRequested);
  // The controller's own accounting must agree (this is what the
  // coordinator exports as transform.priority.achieved_ppm).
  const PriorityController::DutyTotals totals = pc.totals();
  EXPECT_EQ(totals.work_nanos, static_cast<int64_t>(kWorkNanos));
  EXPECT_LE(totals.achieved(), 2 * kRequested);
  EXPECT_GE(totals.achieved(), kRequested * 0.5);
}

TEST(PriorityControllerTest, WorkerThrottleGroupStaysWithinTwiceRequested) {
  // Parallel population: each worker pays the duty cycle through its own
  // WorkerThrottle (private sleep debt, shared totals). Each worker
  // sleeping (1 - p) / p of its own work keeps the aggregate duty at p in
  // any interleaving — the same <= 2x-requested bound the serial assertion
  // above enforces.
  constexpr double kRequested = 0.02;
  constexpr int kWorkers = 4;
  constexpr int64_t kSliceNanos = 5'000'000;
  constexpr int kSlices = 2;
  PriorityController pc(kRequested);
  std::vector<std::thread> workers;
  for (int wi = 0; wi < kWorkers; ++wi) {
    workers.emplace_back([&pc] {
      PriorityController::WorkerThrottle throttle(&pc);
      for (int i = 0; i < kSlices; ++i) throttle.OnWorkDone(kSliceNanos);
    });
  }
  for (auto& t : workers) t.join();
  const PriorityController::DutyTotals totals = pc.totals();
  EXPECT_EQ(totals.work_nanos, int64_t{kWorkers} * kSlices * kSliceNanos);
  EXPECT_LE(totals.achieved(), 2 * kRequested);
  EXPECT_GE(totals.achieved(), kRequested * 0.5);
}

TEST(PriorityControllerTest, ParallelPopulationPaysDutyIncludingSFlush) {
  // End-to-end duty assertion over the population pipeline, covering the
  // once-unthrottled S-side flush of the split (it used to dump the whole
  // accumulator map into S with no Throttle() call): run a real split
  // population at a low priority with parallel workers and require the
  // achieved duty from the controller's accounting to stay within 2x the
  // request.
  constexpr double kRequested = 0.05;
  engine::Database db;
  auto t = *db.CreateTable(
      "t", *Schema::Make({{"id", ValueType::kInt64, false},
                          {"grp", ValueType::kInt64, true},
                          {"city", ValueType::kString, true}},
                         {"id"}));
  for (int64_t i = 0; i < 20'000; ++i) {
    storage::Record rec;
    rec.row = Row({i, i % 4'000, Numbered("c", i % 4'000)});
    rec.lsn = static_cast<Lsn>(i + 1);
    ASSERT_TRUE(t->Insert(std::move(rec)).ok());
  }
  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "grp"};
  spec.s_columns = {"grp", "city"};
  spec.split_columns = {"grp"};
  auto made = SplitRules::Make(&db, std::move(spec));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto rules = std::move(made).ValueOrDie();
  ASSERT_TRUE(rules->Prepare().ok());
  PriorityController pc(kRequested);
  rules->set_throttle(&pc);
  PopulateConfig config;
  config.workers = 2;
  rules->set_populate_config(config);
  ASSERT_TRUE(rules->InitialPopulate().ok());
  ASSERT_EQ(rules->r_table()->size(), 20'000u);
  ASSERT_EQ(rules->s_table()->size(), 4'000u);
  const PriorityController::DutyTotals totals = pc.totals();
  EXPECT_GT(totals.work_nanos, 0);
  EXPECT_GT(totals.slept_nanos, 0) << "population never paid the throttle";
  EXPECT_LE(totals.achieved(), 2 * kRequested);
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

TEST(PriorityControllerTest, ThrottledPropagationPaysDutyOnItsOwnThread) {
  // Propagation is one serial loop on the calling thread, so the batch time
  // it charges the controller is all of its CPU: at priority p the thread
  // may use about p of one core. Host load can only lower the ratio (less
  // CPU per wall second), never raise it.
  constexpr double kRequested = 0.25;
  engine::Database db;
  auto t = *db.CreateTable(
      "t", *Schema::Make({{"id", ValueType::kInt64, false},
                          {"grp", ValueType::kInt64, true},
                          {"city", ValueType::kString, true}},
                         {"id"}));
  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "grp"};
  spec.s_columns = {"grp", "city"};
  spec.split_columns = {"grp"};
  auto made = SplitRules::Make(&db, std::move(spec));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto rules = std::shared_ptr<SplitRules>(std::move(made).ValueOrDie());
  ASSERT_TRUE(rules->Prepare().ok());

  const Lsn from = db.wal()->LastLsn() + 1;
  for (int64_t i = 0; db.wal()->LastLsn() - from + 1 < 20'000; ++i) {
    auto txn = db.Begin();
    for (int64_t k = 0; k < 4; ++k) {
      const int64_t id = i * 4 + k;
      const int64_t grp = id % 500;
      ASSERT_TRUE(
          db.Insert(txn, t.get(), Row({id, grp, "c" + std::to_string(grp)}))
              .ok());
    }
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  const Lsn to = db.wal()->LastLsn();

  txn::TransformLockTable tlocks;
  PriorityController pc(kRequested);
  LogPropagator prop(db.wal(), rules.get(), &tlocks, &pc, PropagatorConfig{});
  std::vector<TableId> source_ids;
  for (const auto& src : rules->Sources()) source_ids.push_back(src->id());
  prop.SetSources(source_ids);

  std::atomic<Lsn> next{from};
  const int64_t cpu_start = ThreadCpuNanos();
  const auto wall_start = Clock::Now();
  auto processed = prop.PropagateRange(from, to, /*throttled=*/true, &next,
                                       [] { return false; });
  const double wall_nanos = static_cast<double>(Clock::NanosSince(wall_start));
  const double cpu_nanos = static_cast<double>(ThreadCpuNanos() - cpu_start);
  ASSERT_TRUE(processed.ok()) << processed.status().ToString();
  EXPECT_EQ(*processed, static_cast<size_t>(to - from + 1));
  EXPECT_GT(prop.ops_applied(), 0u);
  EXPECT_GT(pc.totals().slept_nanos, 0)
      << "propagation never paid the throttle";
  EXPECT_LE(cpu_nanos / wall_nanos, 2 * kRequested)
      << "cpu " << cpu_nanos << " ns over wall " << wall_nanos << " ns";
}

TEST(PriorityControllerTest, PriorityChangeTakesEffect) {
  PriorityController pc(0.001);
  pc.set_priority(1.0);
  const auto start = Clock::Now();
  for (int i = 0; i < 100; ++i) pc.OnWorkDone(1'000'000);
  EXPECT_LT(Clock::MicrosSince(start), 20'000);
}

}  // namespace
}  // namespace morph::transform
