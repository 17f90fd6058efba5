#include <gtest/gtest.h>

#include "bench/harness/bench_util.h"
#include "bench/harness/workload.h"

namespace morph::bench {
namespace {

TEST(LatencyHistogramTest, BucketsAreLogarithmic) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(2), 1u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1024), 10u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1'000'000'000), 23u);  // clamped
}

TEST(LatencyHistogramTest, QuantileApproximatesDistribution) {
  LatencyHistogram hist;
  // 95 fast (≈100 µs), 5 slow (≈10 ms).
  for (int i = 0; i < 95; ++i) hist.Add(100);
  for (int i = 0; i < 5; ++i) hist.Add(10'000);
  EXPECT_EQ(hist.count(), 100u);
  const double p50 = hist.QuantileMicros(0.5);
  const double p99 = hist.QuantileMicros(0.99);
  EXPECT_LT(p50, 300);
  EXPECT_GT(p99, 8'000);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.Add(100);
  b.Add(100);
  b.Add(5'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(MedianOf({}), 0.0);
  EXPECT_EQ(MedianOf({3.0}), 3.0);
  EXPECT_EQ(MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(MedianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(WorkloadTest, UnpacedWorkloadCommits) {
  SplitScenario scenario = SplitScenario::Make(2000, 500);
  Workload workload(scenario.WorkloadFor(0.5, 2, 0));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const WorkloadSnapshot a = workload.Snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const WorkloadSnapshot b = workload.Snapshot();
  workload.Stop();
  const WorkloadRates rates = Workload::RatesBetween(a, b);
  EXPECT_GT(rates.tps, 100);
  EXPECT_GT(rates.avg_response_micros, 0);
  EXPECT_GT(rates.p95_response_micros, 0);
}

TEST(WorkloadTest, PacedWorkloadTracksOfferedRate) {
  SplitScenario scenario = SplitScenario::Make(2000, 500);
  Workload workload(scenario.WorkloadFor(0.5, 2, /*target_tps=*/1000));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const WorkloadSnapshot a = workload.Snapshot();
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  const WorkloadSnapshot b = workload.Snapshot();
  workload.Stop();
  const WorkloadRates rates = Workload::RatesBetween(a, b);
  // Generous bounds: scheduling on a busy shared host is coarse; this only
  // guards against gross pacing bugs (running unpaced or stalling).
  EXPECT_GT(rates.tps, 500);
  EXPECT_LT(rates.tps, 2000);
}

TEST(WorkloadTest, TableWeightsRoughlyRespected) {
  SplitScenario scenario = SplitScenario::Make(2000, 500);
  // Count updates per table via the WAL.
  Workload workload(scenario.WorkloadFor(/*t_share=*/0.2, 2, 3000));
  workload.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  workload.Stop();
  size_t on_t = 0, on_dummy = 0;
  scenario.db->wal()->ScanChecked(1, scenario.db->wal()->LastLsn(),
                                  [&](const wal::LogRecord& rec) {
                                    if (rec.type != wal::LogRecordType::kUpdate) return;
                                    if (rec.table_id == scenario.t->id()) on_t++;
                                    if (rec.table_id == scenario.dummy->id()) on_dummy++;
                                  });
  ASSERT_GT(on_t + on_dummy, 500u);
  const double share =
      static_cast<double>(on_t) / static_cast<double>(on_t + on_dummy);
  EXPECT_GT(share, 0.12);
  EXPECT_LT(share, 0.30);
}

}  // namespace
}  // namespace morph::bench
