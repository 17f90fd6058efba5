#include <gtest/gtest.h>

#include <future>

#include "common/random.h"
#include "common/relops.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/split.h"

namespace morph::transform {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;

// Continuous (materialized-view) mode — the paper's §7 suggestion: the same
// fuzzy-populate + log-propagate machinery maintains a derived table
// indefinitely, with no synchronization step and no switch-over.
TEST(MaterializedViewTest, JoinViewConvergesAndSurvivesFinish) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  {
    std::vector<Row> r_rows, s_rows;
    for (int i = 0; i < 40; ++i) {
      r_rows.push_back(Row({i, static_cast<int64_t>(1000 + i % 10), "p"}));
    }
    for (int i = 0; i < 10; ++i) s_rows.push_back(Row({i, 1000 + i, "s"}));
    ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
    ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());
  }

  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "r_join_s_view";
  auto rules = FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto shared = std::shared_ptr<FojRules>(std::move(rules).ValueOrDie());

  TransformConfig config;
  config.continuous = true;
  TransformCoordinator coord(&db, shared, config);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  // On a single-core host the coordinator thread may not be scheduled for a
  // while; wait until the view exists (maintenance running) before driving
  // traffic against it.
  while (coord.phase() < TransformCoordinator::Phase::kPropagating) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Mutate the sources while the view is maintained.
  Random rng(5);
  for (int i = 0; i < 200; ++i) {
    auto txn = db.Begin();
    const int64_t id = static_cast<int64_t>(rng.Uniform(60));
    Status st;
    if (rng.Bernoulli(0.3)) {
      st = db.Insert(txn, r.get(),
                     Row({id, static_cast<int64_t>(1000 + rng.Uniform(10)),
                          "pi"}));
    } else if (rng.Bernoulli(0.3)) {
      st = db.Delete(txn, r.get(), Row({id}));
    } else {
      st = db.Update(txn, r.get(), Row({id}),
                     {{1, Value(static_cast<int64_t>(1000 + rng.Uniform(10)))}});
    }
    if (st.ok()) {
      (void)db.Commit(txn);
    } else {
      (void)db.Abort(txn);
    }
  }

  // Reads of the view are allowed while it is maintained.
  {
    auto view = db.catalog()->GetByName("r_join_s_view");
    ASSERT_NE(view, nullptr);
    auto txn = db.Begin();
    auto row = db.Read(txn, view.get(), Row({3, 3}));
    // The record may or may not exist depending on the workload, but the
    // access itself must not be rejected as "under construction".
    EXPECT_FALSE(row.status().IsInvalidArgument());
    // Writes to the view are rejected.
    EXPECT_TRUE(db.Insert(txn, view.get(),
                          Row({900, 1, "x", Value::Null(), Value::Null(),
                               Value::Null()}))
                    .IsInvalidArgument());
    (void)db.Commit(txn);
  }

  // Finish: one final latched catch-up; both sources and view survive.
  coord.RequestFinish();
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;

  ASSERT_NE(db.catalog()->GetByName("r"), nullptr);
  ASSERT_NE(db.catalog()->GetByName("s"), nullptr);
  auto view = db.catalog()->GetByName("r_join_s_view");
  ASSERT_NE(view, nullptr);

  std::vector<Row> r_rows, s_rows;
  r->ForEach([&](const storage::Record& rec) { r_rows.push_back(rec.row); });
  s->ForEach([&](const storage::Record& rec) { s_rows.push_back(rec.row); });
  EXPECT_EQ(SortedRows(*view),
            Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3)));
  // No transaction was doomed: a view finish is invisible to users.
  EXPECT_EQ(stats->txns_doomed, 0u);
}

TEST(MaterializedViewTest, SplitViewMaintainsCounters) {
  engine::Database db;
  auto t_src = *db.CreateTable("t", morph::testing::TSplitSchema());
  {
    std::vector<Row> rows;
    for (int i = 0; i < 60; ++i) {
      const int64_t zip = 7000 + i % 6;
      rows.push_back(Row({i, zip, "city" + std::to_string(zip), "b"}));
    }
    ASSERT_TRUE(db.BulkLoad(t_src.get(), rows).ok());
  }
  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  spec.r_name = "t_r_view";
  spec.s_name = "t_s_view";
  auto rules = SplitRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto shared = std::shared_ptr<SplitRules>(std::move(rules).ValueOrDie());

  TransformConfig config;
  config.continuous = true;
  TransformCoordinator coord(&db, shared, config);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  while (coord.phase() < TransformCoordinator::Phase::kPropagating) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  Random rng(9);
  for (int i = 0; i < 150; ++i) {
    auto txn = db.Begin();
    const int64_t id = static_cast<int64_t>(rng.Uniform(80));
    const int64_t zip = 7000 + static_cast<int64_t>(rng.Uniform(6));
    Status st;
    if (rng.Bernoulli(0.3)) {
      st = db.Insert(txn, t_src.get(),
                     Row({id, zip, "city" + std::to_string(zip), "b"}));
    } else if (rng.Bernoulli(0.3)) {
      st = db.Delete(txn, t_src.get(), Row({id}));
    } else {
      st = db.Update(txn, t_src.get(), Row({id}),
                     {{1, Value(zip)}, {2, Value("city" + std::to_string(zip))}});
    }
    if (st.ok()) {
      (void)db.Commit(txn);
    } else {
      (void)db.Abort(txn);
    }
  }

  coord.RequestFinish();
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;

  std::vector<Row> t_rows;
  t_src->ForEach([&](const storage::Record& rec) { t_rows.push_back(rec.row); });
  auto oracle = morph::Split(t_rows, {0, 1, 3}, {1, 2}, {0});
  EXPECT_EQ(SortedRows(*shared->r_table()), Sorted(oracle.r_rows));
  EXPECT_EQ(SortedRows(*shared->s_table()), Sorted(oracle.s_rows));
  for (size_t i = 0; i < oracle.s_rows.size(); ++i) {
    auto rec = shared->s_table()->Get(Row({oracle.s_rows[i][0]}));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->counter, oracle.s_counters[i]);
  }
}

TEST(MaterializedViewTest, AbortDropsViewOnly) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  ASSERT_TRUE(db.BulkLoad(r.get(), {Row({1, 10, "p"})}).ok());
  ASSERT_TRUE(db.BulkLoad(s.get(), {Row({1, 10, "s"})}).ok());
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "view";
  auto rules = FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  TransformConfig config;
  config.continuous = true;
  TransformCoordinator coord(
      &db, std::shared_ptr<FojRules>(std::move(rules).ValueOrDie()), config);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  coord.RequestAbort();
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->completed);
  EXPECT_EQ(db.catalog()->GetByName("view"), nullptr);
  EXPECT_NE(db.catalog()->GetByName("r"), nullptr);
}

}  // namespace
}  // namespace morph::transform
