#include <gtest/gtest.h>

#include <future>

#include "common/relops.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"

namespace morph::transform {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;

// A crash in the middle of a transformation must be equivalent to aborting
// it (paper §6: aborting means log propagation stops and the transformed
// tables are deleted). The transformed tables are deliberately *not* logged
// (only the sources are), so restart recovery rebuilds the source tables
// exactly and the half-built target simply does not exist in the new
// incarnation; the DBA restarts the transformation from scratch.
TEST(TransformRecoveryTest, CrashMidTransformationRecoversSources) {
  const morph::testing::TestWalDir wal_dir;

  std::vector<Row> final_r_rows;
  std::vector<Row> final_s_rows;
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    auto s = *db.CreateTable("s", morph::testing::SSchema());
    std::vector<Row> r_rows, s_rows;
    for (int i = 0; i < 200; ++i) {
      r_rows.push_back(Row({i, static_cast<int64_t>(i % 20), "p"}));
    }
    for (int i = 0; i < 20; ++i) s_rows.push_back(Row({i, 1000 + i, "s"}));
    ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
    ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());

    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t";
    auto rules = FojRules::Make(&db, spec);
    ASSERT_TRUE(rules.ok());
    TransformConfig config;
    config.priority = 0.2;
    config.drop_sources = false;
    TransformCoordinator coord(
        &db, std::shared_ptr<FojRules>(std::move(rules).ValueOrDie()), config);
    coord.SetSyncHold(true);  // keep it mid-flight
    auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

    // Concurrent committed work that must survive the crash, plus one loser
    // transaction that must be rolled back by restart recovery.
    for (int i = 0; i < 50; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(
          db.Update(txn, r.get(), Row({i}), {{2, Value("updated")}}).ok());
      ASSERT_TRUE(db.Commit(txn).ok());
    }
    auto loser = db.Begin();
    ASSERT_TRUE(
        db.Update(loser, r.get(), Row({199}), {{2, Value("uncommitted")}}).ok());

    // "Crash": mid-propagation, loser still active.
    morph::testing::SyncAndCrash(db.wal());

    // Join the dead incarnation's coordinator thread (not part of the
    // scenario: nothing it does reaches the log any more).
    coord.RequestAbort();
    coord.SetSyncHold(false);
    (void)stats_f.get();

    // What the sources looked like at the crash point, minus the loser's
    // uncommitted update: records 0..49 updated, the rest pristine.
    for (int i = 0; i < 200; ++i) {
      final_r_rows.push_back(
          Row({i, static_cast<int64_t>(i % 20), i < 50 ? "updated" : "p"}));
    }
    for (int i = 0; i < 20; ++i) final_s_rows.push_back(Row({i, 1000 + i, "s"}));
  }

  // Restart: recreate the schemas in the original order (ids must line up),
  // replay the log.
  engine::Database db2;
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto s2 = *db2.CreateTable("s", morph::testing::SSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wal_dir.options(),
                                                db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 1u);  // the uncommitted update

  EXPECT_EQ(SortedRows(*r2), Sorted(final_r_rows));
  EXPECT_EQ(SortedRows(*s2), Sorted(final_s_rows));
  // The half-built target does not exist: the transformation is implicitly
  // aborted, and can simply be run again.
  EXPECT_EQ(db2.catalog()->GetByName("t"), nullptr);

  // Re-running the transformation on the recovered engine works and yields
  // the oracle join.
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t";
  auto rules = FojRules::Make(&db2, spec);
  ASSERT_TRUE(rules.ok());
  auto shared = std::shared_ptr<FojRules>(std::move(rules).ValueOrDie());
  TransformConfig config;
  config.drop_sources = false;
  TransformCoordinator coord(&db2, shared, config);
  auto run = coord.Run();
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->completed) << run->abort_reason;
  auto expected = Sorted(morph::FullOuterJoin(final_r_rows, 1, final_s_rows, 1,
                                              3, 3));
  EXPECT_EQ(SortedRows(*shared->target()), expected);
}

// The WAL can be truncated up to the propagation point while a
// transformation runs; records past the floor must never be needed again.
TEST(TransformRecoveryTest, TruncationUpToPropagatedLsnIsSafe) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  std::vector<Row> r_rows;
  for (int i = 0; i < 100; ++i) {
    r_rows.push_back(Row({i, static_cast<int64_t>(i % 10), "p"}));
  }
  std::vector<Row> s_rows;
  for (int i = 0; i < 10; ++i) s_rows.push_back(Row({i, 1000 + i, "s"}));
  ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
  ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());

  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t";
  auto rules = FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto shared = std::shared_ptr<FojRules>(std::move(rules).ValueOrDie());
  TransformConfig config;
  config.drop_sources = false;
  TransformCoordinator coord(&db, shared, config);
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  for (int round = 0; round < 20; ++round) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Update(txn, r.get(), Row({round}),
                          {{1, Value(static_cast<int64_t>(round % 10))},
                           {2, Value("u" + std::to_string(round))}})
                    .ok());
    ASSERT_TRUE(db.Commit(txn).ok());
    const Lsn floor = coord.propagated_lsn();
    if (floor != kInvalidLsn && floor > db.wal()->FirstLsn()) {
      db.wal()->TruncateBefore(floor);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  coord.SetSyncHold(false);
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;

  std::vector<Row> cur_r, cur_s;
  r->ForEach([&](const storage::Record& rec) { cur_r.push_back(rec.row); });
  s->ForEach([&](const storage::Record& rec) { cur_s.push_back(rec.row); });
  auto expected = Sorted(morph::FullOuterJoin(cur_r, 1, cur_s, 1, 3, 3));
  EXPECT_EQ(SortedRows(*shared->target()), expected);
}

}  // namespace
}  // namespace morph::transform
