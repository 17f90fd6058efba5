#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "tests/propagator_test_util.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/priority.h"
#include "transform/propagator.h"
#include "txn/transform_locks.h"

namespace morph::transform {
namespace {

using morph::transform::testing::CellOptions;
using morph::transform::testing::CellResult;
using morph::transform::testing::Operator;
using morph::transform::testing::OperatorName;
using morph::transform::testing::RunCell;

// ---------------------------------------------------------------------------
// Stream cells for the log propagator: a deterministic, seeded op stream is
// written by a single client thread while the transformation (held open
// with SetSyncHold) propagates it concurrently, for every operator × sync
// strategy. Each cell must complete, release every mirrored lock, reconcile
// the metrics registry with its own TransformStats, and apply exactly the
// source data records the WAL holds from the transformation's start LSN —
// a lost, skipped or double-applied op shows up as a count mismatch. The
// cell machinery lives in tests/propagator_test_util.h, shared with
// tablet_differential_test.cc.
// ---------------------------------------------------------------------------

class PropagatorStreamTest
    : public ::testing::TestWithParam<std::pair<Operator, SyncStrategy>> {};

TEST_P(PropagatorStreamTest, AppliesEveryLoggedOpOnce) {
  const auto [op, strategy] = GetParam();
  const uint64_t seed =
      41 * static_cast<uint64_t>(op) + static_cast<uint64_t>(strategy) + 1;
  CellOptions opts;
  opts.strategy = strategy;
  opts.seed = seed;
  const CellResult cell = RunCell(op, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  ASSERT_EQ(cell.locks_at_end, 0u);
  EXPECT_GT(cell.log_records, 100u);
  // Exact ops accounting (the registry delta already equals the run's own
  // ops_propagated, asserted inside RunCell): every source data record from
  // the start LSN to the log end is applied once, under every strategy.
  EXPECT_EQ(cell.registry_ops_delta, cell.wal_ops_expected)
      << OperatorName(op) << " / " << SyncStrategyToString(strategy);
  if (strategy == SyncStrategy::kNonBlockingCommit) {
    // The straddler's mirrored locks are still held at switch-over.
    EXPECT_GT(cell.locks_at_switch, 0u);
  }
  if (op == Operator::kVSplit) {
    // Each S bucket's counter is the number of R records carrying its split
    // value (R = (id, zip, body) comes first in `targets`, S = (zip, city)).
    ASSERT_FALSE(cell.s_counters.empty());
    for (const Row& bucket : cell.s_counters) {
      const size_t refs = static_cast<size_t>(std::count_if(
          cell.targets.begin(), cell.targets.end(), [&](const Row& row) {
            return row.size() == 3 && row[1] == bucket[0];
          }));
      EXPECT_EQ(static_cast<size_t>(bucket[bucket.size() - 1].AsInt64()), refs)
          << bucket.ToString();
    }
  }
}

std::string CellName(
    const ::testing::TestParamInfo<std::pair<Operator, SyncStrategy>>& info) {
  std::string name = OperatorName(info.param.first);
  name += "_";
  name += SyncStrategyToString(info.param.second);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// ---------------------------------------------------------------------------
// Regression (TSan): the propagator's counters must be safe to read from a
// monitoring thread while PropagateRange runs on the coordinator thread. An
// earlier revision kept the per-op counter as a plain field "owned by the
// reader thread", so any cross-thread snapshot — exactly what a metrics
// poller or a stats dump racing an abort does — was a data race, since
// every applied op bumps it. Run under -DMORPH_SANITIZE=thread to see the
// pre-fix report.
// ---------------------------------------------------------------------------
TEST(PropagatorStatsTest, StatsSafeWhilePropagationRuns) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t_out";
  auto made = FojRules::Make(&db, spec);
  ASSERT_TRUE(made.ok());
  auto rules = std::shared_ptr<FojRules>(std::move(made).ValueOrDie());
  ASSERT_TRUE(rules->Prepare().ok());

  // 300 committed single-row inserts = plenty of ops for the monitor to
  // overlap with.
  const Lsn from = db.wal()->LastLsn() + 1;
  for (int i = 0; i < 300; ++i) {
    auto t = db.Begin();
    ASSERT_TRUE(
        db.Insert(t, r.get(), Row({i, static_cast<int64_t>(i % 7), "p"}))
            .ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }

  txn::TransformLockTable tlocks;
  PriorityController priority(1.0);
  LogPropagator prop(db.wal(), rules.get(), &tlocks, &priority,
                     PropagatorConfig{});
  std::vector<TableId> source_ids;
  for (const auto& src : rules->Sources()) source_ids.push_back(src->id());
  prop.SetSources(source_ids);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::thread monitor([&] {
    size_t last_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const size_t applied = prop.ops_applied();
      // The counter only ever grows while the loop runs.
      EXPECT_GE(applied, last_seen);
      last_seen = applied;
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Don't start the propagator until the monitor is actually polling — on a
  // loaded host the whole serial pass can finish before a freshly spawned
  // thread is first scheduled, and then nothing would have overlapped.
  while (polls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  std::atomic<Lsn> next{from};
  auto processed = prop.PropagateRange(from, db.wal()->LastLsn(),
                                       /*throttled=*/false, &next,
                                       [] { return false; });
  done.store(true, std::memory_order_release);
  monitor.join();
  ASSERT_TRUE(processed.ok()) << processed.status().ToString();
  EXPECT_EQ(prop.ops_applied(), 300u);
  EXPECT_EQ(tlocks.num_locks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OperatorsAndStrategies, PropagatorStreamTest,
    ::testing::Values(
        std::pair{Operator::kFoj, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kFoj, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kFoj, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kVSplit, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kVSplit, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kVSplit, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kHSplit, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kHSplit, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kHSplit, SyncStrategy::kNonBlockingCommit},
        std::pair{Operator::kMerge, SyncStrategy::kBlockingCommit},
        std::pair{Operator::kMerge, SyncStrategy::kNonBlockingAbort},
        std::pair{Operator::kMerge, SyncStrategy::kNonBlockingCommit}),
    CellName);

}  // namespace
}  // namespace morph::transform
