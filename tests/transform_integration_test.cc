#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "common/relops.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/split.h"

namespace morph::transform {
namespace {

using morph::testing::Numbered;
using morph::testing::RowsToString;
using morph::testing::Sorted;
using morph::testing::SortedRows;

// ---------------------------------------------------------------------------
// Workload clients. Every client transaction begins, performs a few random
// operations, and commits or aborts. Clients only touch the source tables
// from epoch-0 transactions: once the coordinator advances the engine epoch
// (gate or switch-over), a freshly begun transaction sees epoch > 0 and the
// client stops — guaranteeing that every source-table write is propagated
// before the transformation completes.
// ---------------------------------------------------------------------------

struct ClientStats {
  size_t committed = 0;
  size_t aborted = 0;
};

ClientStats RunFojClient(engine::Database* db, storage::Table* r,
                         storage::Table* s, uint64_t seed, size_t txn_budget,
                         int64_t pace_micros = 0) {
  ClientStats stats;
  Random rng(seed);
  for (size_t i = 0; i < txn_budget; ++i) {
    if (pace_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_micros));
    }
    auto t = db->Begin();
    if (t->epoch() > 0) {
      (void)db->Abort(t);
      break;
    }
    bool ok = true;
    const size_t ops = 1 + rng.Uniform(4);
    for (size_t k = 0; k < ops && ok; ++k) {
      const int64_t id = static_cast<int64_t>(rng.Uniform(60));
      const uint64_t dice = rng.Uniform(100);
      Status st;
      if (rng.Bernoulli(0.7)) {
        // R-side op.
        if (dice < 25) {
          st = db->Insert(t, r, Row({id, static_cast<int64_t>(rng.Uniform(20)),
                                     "p" + std::to_string(rng.Uniform(10))}));
        } else if (dice < 45) {
          st = db->Delete(t, r, Row({id}));
        } else if (dice < 70) {
          st = db->Update(t, r, Row({id}),
                          {{1, Value(static_cast<int64_t>(rng.Uniform(20)))}});
        } else {
          st = db->Update(t, r, Row({id}),
                          {{2, Value("q" + std::to_string(rng.Uniform(10)))}});
        }
      } else {
        // S-side op; sid space is smaller, join values unique per sid to
        // respect the one-to-many assumption (jv = 1000 + sid).
        const int64_t sid = static_cast<int64_t>(rng.Uniform(20));
        if (dice < 25) {
          st = db->Insert(t, s, Row({sid, 1000 + sid,
                                     "i" + std::to_string(rng.Uniform(10))}));
        } else if (dice < 40) {
          st = db->Delete(t, s, Row({sid}));
        } else {
          st = db->Update(t, s, Row({sid}),
                          {{2, Value("j" + std::to_string(rng.Uniform(10)))}});
        }
      }
      if (!st.ok()) ok = false;
    }
    if (ok && db->Commit(t).ok()) {
      stats.committed++;
    } else {
      if (!t->finished()) (void)db->Abort(t);
      stats.aborted++;
    }
  }
  return stats;
}

ClientStats RunSplitClient(engine::Database* db, storage::Table* t_src,
                           uint64_t seed, size_t txn_budget,
                           int64_t pace_micros = 0) {
  ClientStats stats;
  Random rng(seed);
  for (size_t i = 0; i < txn_budget; ++i) {
    if (pace_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_micros));
    }
    auto t = db->Begin();
    if (t->epoch() > 0) {
      (void)db->Abort(t);
      break;
    }
    bool ok = true;
    const size_t ops = 1 + rng.Uniform(4);
    for (size_t k = 0; k < ops && ok; ++k) {
      const int64_t id = static_cast<int64_t>(rng.Uniform(80));
      const int64_t zip = static_cast<int64_t>(7000 + rng.Uniform(8));
      // City is a function of zip, so the data stays FD-consistent.
      const std::string city = "city" + std::to_string(zip);
      const uint64_t dice = rng.Uniform(100);
      Status st;
      if (dice < 25) {
        st = db->Insert(t, t_src,
                        Row({id, zip, city, "b" + std::to_string(rng.Uniform(5))}));
      } else if (dice < 40) {
        st = db->Delete(t, t_src, Row({id}));
      } else if (dice < 70) {
        // Move the record to another zip — consistently updating the city.
        st = db->Update(t, t_src, Row({id}), {{1, Value(zip)}, {2, Value(city)}});
      } else {
        st = db->Update(t, t_src, Row({id}),
                        {{3, Value(Numbered("b", rng.Uniform(5)))}});
      }
      if (!st.ok()) ok = false;
    }
    if (ok && db->Commit(t).ok()) {
      stats.committed++;
    } else {
      if (!t->finished()) (void)db->Abort(t);
      stats.aborted++;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// FOJ end-to-end, parameterized over (strategy, seed): the convergence
// property — after the transformation completes, T is exactly the full outer
// join of the final source tables — must hold for any interleaving.
// ---------------------------------------------------------------------------

struct FojParam {
  SyncStrategy strategy;
  uint64_t seed;
};

class FojConvergenceTest : public ::testing::TestWithParam<FojParam> {};

TEST_P(FojConvergenceTest, TargetEqualsJoinOfFinalSources) {
  const FojParam param = GetParam();
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  {
    std::vector<Row> r_rows, s_rows;
    for (int i = 0; i < 40; ++i) {
      r_rows.push_back(Row({i, static_cast<int64_t>(i % 15), "p0"}));
    }
    for (int i = 0; i < 12; ++i) s_rows.push_back(Row({i, 1000 + i, "i0"}));
    ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
    ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());
  }

  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t";
  auto rules = FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto target = std::shared_ptr<FojRules>(std::move(rules).ValueOrDie());

  TransformConfig config;
  config.strategy = param.strategy;
  config.sync_threshold = 64;
  config.drop_sources = false;  // keep sources for the oracle comparison
  config.max_duration_micros = 30'000'000;
  // Run the propagator at a low duty cycle so the backlog persists while
  // the clients are active: the transformation then genuinely overlaps the
  // concurrent workload instead of racing past it.
  config.priority = 0.05;
  config.lag_iterations = 1'000'000;  // the backlog is supposed to grow here
  TransformCoordinator coord(&db, target, config);

  std::vector<std::future<ClientStats>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::async(std::launch::async, [&, c] {
      return RunFojClient(&db, r.get(), s.get(), param.seed * 97 + c, 300,
                          /*pace_micros=*/150);
    }));
  }
  // Hold synchronization open until the workload finishes, so the whole
  // client run genuinely overlaps log propagation.
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  size_t committed = 0;
  for (auto& c : clients) committed += c.get().committed;
  coord.SetSyncHold(false);
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->completed) << stats->abort_reason;
  EXPECT_GT(committed, 50u);
  // The propagation rules must actually have replayed concurrent activity.
  EXPECT_GT(stats->log_records_processed, 200u);

  // Oracle: join the final source contents.
  std::vector<Row> r_rows, s_rows;
  r->ForEach([&](const storage::Record& rec) { r_rows.push_back(rec.row); });
  s->ForEach([&](const storage::Record& rec) { s_rows.push_back(rec.row); });
  auto expected = Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3));
  auto actual = SortedRows(*target->target());
  EXPECT_EQ(actual, expected)
      << "strategy=" << SyncStrategyToString(param.strategy)
      << " seed=" << param.seed << "\nT (" << actual.size() << " rows):\n"
      << RowsToString(actual) << "oracle (" << expected.size() << " rows)";
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, FojConvergenceTest,
    ::testing::Values(
        FojParam{SyncStrategy::kNonBlockingAbort, 1},
        FojParam{SyncStrategy::kNonBlockingAbort, 2},
        FojParam{SyncStrategy::kNonBlockingAbort, 3},
        FojParam{SyncStrategy::kNonBlockingCommit, 4},
        FojParam{SyncStrategy::kNonBlockingCommit, 5},
        FojParam{SyncStrategy::kNonBlockingCommit, 6},
        FojParam{SyncStrategy::kBlockingCommit, 7},
        FojParam{SyncStrategy::kBlockingCommit, 8}),
    [](const ::testing::TestParamInfo<FojParam>& info) {
      std::string name(SyncStrategyToString(info.param.strategy));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Split end-to-end, parameterized the same way.
// ---------------------------------------------------------------------------

class SplitConvergenceTest : public ::testing::TestWithParam<FojParam> {};

TEST_P(SplitConvergenceTest, TargetsEqualSplitOfFinalSource) {
  const FojParam param = GetParam();
  engine::Database db;
  auto t_src = *db.CreateTable("t", morph::testing::TSplitSchema());
  {
    std::vector<Row> rows;
    for (int i = 0; i < 60; ++i) {
      const int64_t zip = 7000 + (i % 6);
      rows.push_back(Row({i, zip, "city" + std::to_string(zip), "b0"}));
    }
    ASSERT_TRUE(db.BulkLoad(t_src.get(), rows).ok());
  }

  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  auto rules = SplitRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto shared_rules = std::shared_ptr<SplitRules>(std::move(rules).ValueOrDie());

  TransformConfig config;
  config.strategy = param.strategy;
  config.sync_threshold = 64;
  config.drop_sources = false;
  config.max_duration_micros = 30'000'000;
  config.priority = 0.05;
  config.lag_iterations = 1'000'000;
  TransformCoordinator coord(&db, shared_rules, config);

  std::vector<std::future<ClientStats>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::async(std::launch::async, [&, c] {
      return RunSplitClient(&db, t_src.get(), param.seed * 131 + c, 300,
                            /*pace_micros=*/150);
    }));
  }
  coord.SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  size_t committed = 0;
  for (auto& c : clients) committed += c.get().committed;
  coord.SetSyncHold(false);
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->completed) << stats->abort_reason;
  EXPECT_GT(committed, 50u);
  EXPECT_GT(stats->log_records_processed, 200u);

  std::vector<Row> t_rows;
  t_src->ForEach([&](const storage::Record& rec) { t_rows.push_back(rec.row); });
  auto oracle = morph::Split(t_rows, {0, 1, 3}, {1, 2}, {0});
  EXPECT_EQ(SortedRows(*shared_rules->r_table()), Sorted(oracle.r_rows));
  EXPECT_EQ(SortedRows(*shared_rules->s_table()), Sorted(oracle.s_rows));
  for (size_t i = 0; i < oracle.s_rows.size(); ++i) {
    auto rec = shared_rules->s_table()->Get(Row({oracle.s_rows[i][0]}));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->counter, oracle.s_counters[i])
        << "zip " << oracle.s_rows[i][0].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, SplitConvergenceTest,
    ::testing::Values(
        FojParam{SyncStrategy::kNonBlockingAbort, 11},
        FojParam{SyncStrategy::kNonBlockingAbort, 12},
        FojParam{SyncStrategy::kNonBlockingCommit, 13},
        FojParam{SyncStrategy::kNonBlockingCommit, 14},
        FojParam{SyncStrategy::kBlockingCommit, 15}),
    [](const ::testing::TestParamInfo<FojParam>& info) {
      std::string name(SyncStrategyToString(info.param.strategy));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Targeted behaviour tests.
// ---------------------------------------------------------------------------

struct FojFixture {
  explicit FojFixture(engine::Database* db, bool load = true) : db_(db) {
    r = *db->CreateTable("r", morph::testing::RSchema());
    s = *db->CreateTable("s", morph::testing::SSchema());
    if (load) {
      std::vector<Row> r_rows, s_rows;
      for (int i = 0; i < 30; ++i) {
        r_rows.push_back(Row({i, static_cast<int64_t>(1000 + i % 10), "p"}));
      }
      for (int i = 0; i < 10; ++i) s_rows.push_back(Row({i, 1000 + i, "s"}));
      EXPECT_TRUE(db->BulkLoad(r.get(), r_rows).ok());
      EXPECT_TRUE(db->BulkLoad(s.get(), s_rows).ok());
    }
  }

  std::shared_ptr<FojRules> MakeRules(TransformConfig* config) {
    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t";
    auto rules = FojRules::Make(db_, spec);
    EXPECT_TRUE(rules.ok());
    (void)config;
    return std::shared_ptr<FojRules>(std::move(rules).ValueOrDie());
  }

  engine::Database* db_;
  std::shared_ptr<storage::Table> r, s;
};

void WaitForPhase(const TransformCoordinator& coord,
                  TransformCoordinator::Phase phase, int64_t timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (coord.phase() < phase &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(TransformAbortTest, RequestAbortDropsTargetsKeepsSources) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.priority = 0.001;  // slow, so we can abort mid-flight
  config.sync_threshold = 1;
  config.batch_size = 4;
  auto coord = std::make_unique<TransformCoordinator>(&db, fx.MakeRules(&config),
                                                      config);
  // A concurrent writer generates propagation work *after* the fuzzy mark,
  // which the crippled (0.1%-priority) propagator chews through slowly.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      auto t = db.Begin();
      if (t->epoch() > 0) {
        (void)db.Abort(t);
        break;
      }
      (void)db.Update(t, fx.r.get(), Row({i++ % 30}), {{2, Value("u")}});
      (void)db.Commit(t);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  auto stats_f = std::async(std::launch::async, [&] { return coord->Run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  coord->RequestAbort();
  auto stats = stats_f.get();
  stop.store(true);
  writer.join();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->completed);
  EXPECT_FALSE(stats->abort_reason.empty());
  // Targets deleted, sources alive, engine usable.
  EXPECT_EQ(db.catalog()->GetByName("t"), nullptr);
  ASSERT_NE(db.catalog()->GetByName("r"), nullptr);
  auto t = db.Begin();
  EXPECT_TRUE(db.Update(t, fx.r.get(), Row({1}), {{2, Value("after")}}).ok());
  EXPECT_TRUE(db.Commit(t).ok());
}

// An abort drops only the tables the run created (§6). A target named like
// an existing table fails to be created, and the abort that follows must
// leave that table, and every source, in the catalog with its rows.
void ExpectIntact(engine::Database& db,
                  const std::shared_ptr<storage::Table>& table,
                  const std::vector<Row>& rows) {
  EXPECT_EQ(db.catalog()->GetByName(table->name()).get(), table.get())
      << table->name();
  EXPECT_EQ(SortedRows(*table), rows) << table->name();
}

TEST(TransformAbortTest, FojTargetNamedLikeItsSourceKeepsTheSource) {
  engine::Database db;
  FojFixture fx(&db);
  const std::vector<Row> r_rows = SortedRows(*fx.r);
  const std::vector<Row> s_rows = SortedRows(*fx.s);
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "r";
  auto rules = FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  TransformCoordinator coord(
      &db, std::shared_ptr<FojRules>(std::move(rules).ValueOrDie()),
      TransformConfig{});
  auto stats = coord.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->completed);
  EXPECT_NE(stats->abort_reason.find("prepare failed"), std::string::npos)
      << stats->abort_reason;
  ExpectIntact(db, fx.r, r_rows);
  ExpectIntact(db, fx.s, s_rows);
}

TEST(TransformAbortTest, SplitTargetNamedLikeAnExistingTableKeepsIt) {
  engine::Database db;
  auto t_src = *db.CreateTable("t", morph::testing::TSplitSchema());
  auto users = *db.CreateTable("users", morph::testing::RSchema());
  ASSERT_TRUE(db.BulkLoad(t_src.get(), {Row({1, 7050, "Trondheim", "p1"}),
                                        Row({2, 5020, "Bergen", "p2"})})
                  .ok());
  ASSERT_TRUE(db.BulkLoad(users.get(), {Row({1, 10, "ann"}),
                                        Row({2, 20, "bob"})})
                  .ok());
  const std::vector<Row> t_rows = SortedRows(*t_src);
  const std::vector<Row> user_rows = SortedRows(*users);

  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  spec.s_name = "users";
  auto rules = SplitRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  TransformCoordinator coord(
      &db, std::shared_ptr<SplitRules>(std::move(rules).ValueOrDie()),
      TransformConfig{});
  auto stats = coord.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->completed);
  EXPECT_NE(stats->abort_reason.find("prepare failed"), std::string::npos)
      << stats->abort_reason;
  ExpectIntact(db, t_src, t_rows);
  ExpectIntact(db, users, user_rows);
  // The R table the run did create is gone.
  EXPECT_EQ(db.catalog()->GetByName(spec.r_name), nullptr);
}

TEST(TransformAbortTest, LaggingPropagatorAborts) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.priority = 0.001;  // hopeless duty cycle
  config.sync_threshold = 1;
  config.lag_iterations = 3;
  config.on_lag = OnLag::kAbort;
  config.batch_size = 8;
  auto coord = std::make_unique<TransformCoordinator>(&db, fx.MakeRules(&config),
                                                      config);
  // Hold the cut-over open so the coordinator cannot sneak through
  // synchronization before the writer thread gets scheduled (single-core
  // hosts may not run the writer for a while).
  coord->SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord->Run(); });

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      auto t = db.Begin();
      if (t->epoch() > 0) {
        (void)db.Abort(t);
        break;
      }
      (void)db.Update(t, fx.r.get(), Row({i++ % 30}), {{2, Value("w")}});
      (void)db.Commit(t);
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  auto stats = stats_f.get();
  stop.store(true);
  writer.join();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->completed);
  EXPECT_NE(stats->abort_reason.find("keep up"), std::string::npos)
      << stats->abort_reason;
}

TEST(TransformLagTest, BoostPriorityRecoversAndCompletes) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  // Start hopelessly low so the lag detector must boost: the writer below
  // produces log far faster than a 0.1% duty cycle can consume.
  config.priority = 0.001;
  config.sync_threshold = 256;
  config.lag_iterations = 2;
  config.on_lag = OnLag::kBoostPriority;
  config.batch_size = 64;
  config.drop_sources = false;
  auto coord = std::make_unique<TransformCoordinator>(&db, fx.MakeRules(&config),
                                                      config);
  coord->SetSyncHold(true);
  auto stats_f = std::async(std::launch::async, [&] { return coord->Run(); });

  // Write until a boost is observed (or give up after 10 s).
  const auto deadline = Clock::Now() + std::chrono::seconds(10);
  int i = 0;
  while (coord->priority() <= 0.001 && Clock::Now() < deadline) {
    auto t = db.Begin();
    if (t->epoch() > 0) {
      (void)db.Abort(t);
      break;
    }
    (void)db.Update(t, fx.r.get(), Row({i++ % 30}), {{2, Value("w")}});
    (void)db.Commit(t);
  }
  EXPECT_GT(coord->priority(), 0.001) << "lag boost never triggered";

  // Let the transformation finish quickly and verify it completes cleanly.
  coord->set_priority(1.0);
  coord->SetSyncHold(false);
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed) << stats->abort_reason;
}

TEST(TransformSyncTest, DoomedTransactionLocksReleaseAfterRollbackPropagates) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.strategy = SyncStrategy::kNonBlockingAbort;
  config.sync_threshold = 1024;
  config.drop_sources = false;
  config.target_lock_wait_micros = 100'000;  // fail fast for the Busy check
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);

  // Old transaction updates r5 (joined with s5 via jv=1005) and then idles,
  // holding its exclusive lock across the switch-over.
  auto old_txn = db.Begin();
  ASSERT_TRUE(db.Update(old_txn, fx.r.get(), Row({5}), {{2, Value("held")}}).ok());

  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, TransformCoordinator::Phase::kDraining);
  ASSERT_EQ(coord.phase(), TransformCoordinator::Phase::kDraining);

  // The old transaction is doomed: its next source access must fail.
  EXPECT_TRUE(
      db.Update(old_txn, fx.r.get(), Row({6}), {{2, Value("x")}}).IsAborted());

  // A new transaction on T hits the mirrored (transferred) lock on the
  // record r5 contributed to: T's key is (r_id, s_sid) = (5, 5).
  auto target = db.catalog()->GetByName("t");
  ASSERT_NE(target, nullptr);
  auto new_txn = db.Begin();
  const Row t_key({5, 5});
  EXPECT_TRUE(db.Read(new_txn, target.get(), t_key).status().IsBusy());
  (void)db.Abort(new_txn);

  // The client aborts the doomed transaction; the propagator processes its
  // rollback and releases the mirrored locks; the drain finishes.
  ASSERT_TRUE(db.Abort(old_txn).ok());
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;
  EXPECT_EQ(stats->txns_doomed, 1u);

  // And the rolled-back update is not visible in T.
  auto rec = target->Get(t_key);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->row[2], Value("p"));  // original payload, not "held"
}

TEST(TransformSyncTest, NonBlockingCommitOldTransactionContinues) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.strategy = SyncStrategy::kNonBlockingCommit;
  config.sync_threshold = 1024;
  config.drop_sources = false;
  config.target_lock_wait_micros = 100'000;
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);

  auto old_txn = db.Begin();
  ASSERT_TRUE(db.Update(old_txn, fx.r.get(), Row({5}), {{2, Value("v1")}}).ok());

  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, TransformCoordinator::Phase::kDraining);
  ASSERT_EQ(coord.phase(), TransformCoordinator::Phase::kDraining);

  // Post-switch, the old transaction continues on the source table (§3.4:
  // non-conflicting transactions are not aborted).
  ASSERT_TRUE(db.Update(old_txn, fx.r.get(), Row({5}), {{2, Value("v2")}}).ok());

  // A new transaction conflicts on the corresponding T record → Busy.
  auto target = db.catalog()->GetByName("t");
  auto new_txn = db.Begin();
  EXPECT_TRUE(db.Read(new_txn, target.get(), Row({5, 5})).status().IsBusy());
  (void)db.Abort(new_txn);

  // A new transaction on an unrelated T record proceeds.
  auto other_txn = db.Begin();
  EXPECT_TRUE(db.Read(other_txn, target.get(), Row({7, 7})).ok());
  ASSERT_TRUE(db.Commit(other_txn).ok());

  // The old transaction commits — never aborted.
  ASSERT_TRUE(db.Commit(old_txn).ok());
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;
  EXPECT_EQ(stats->txns_doomed, 0u);

  // Its final write is visible in T.
  auto rec = target->Get(Row({5, 5}));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->row[2], Value("v2"));
}

TEST(TransformSyncTest, BlockingCommitParksNewTransactionsDuringDrain) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.strategy = SyncStrategy::kBlockingCommit;
  config.sync_threshold = 1024;
  config.drop_sources = false;
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);

  // Old transaction holds a source lock, so the blocking-commit drain waits.
  auto old_txn = db.Begin();
  ASSERT_TRUE(db.Update(old_txn, fx.r.get(), Row({5}), {{2, Value("h")}}).ok());

  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, TransformCoordinator::Phase::kSynchronizing);

  // A new transaction's source op parks in the gate (does not return yet).
  std::atomic<bool> returned{false};
  Status new_status;
  std::thread blocked([&] {
    auto t = db.Begin();
    new_status = db.Update(t, fx.r.get(), Row({8}), {{2, Value("n")}});
    returned.store(true);
    (void)db.Abort(t);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());

  // Let the old transaction finish: the gate lifts, switch-over happens, and
  // the parked operation is redirected (fails: the source is now stale).
  ASSERT_TRUE(db.Commit(old_txn).ok());
  blocked.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(new_status.IsAborted()) << new_status.ToString();

  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->completed) << stats->abort_reason;
  // The old transaction's committed write made it into T.
  auto target = db.catalog()->GetByName("t");
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->Get(Row({5, 5}))->row[2], Value("h"));
}

TEST(TransformSyncTest, SyncLatchPauseIsShort) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.strategy = SyncStrategy::kNonBlockingAbort;
  config.drop_sources = false;
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);
  auto stats = coord.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed);
  // The paper reports < 1 ms; allow generous slack for CI noise but insist
  // on "far below a blocking reorganization".
  EXPECT_LT(stats->sync_latch_micros, 100'000);
  EXPECT_GT(stats->sync_latch_nanos, 0);
}

TEST(TransformSyncTest, DropSourcesRemovesThemFromCatalog) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.drop_sources = true;
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);
  auto stats = coord.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed);
  EXPECT_EQ(db.catalog()->GetByName("r"), nullptr);
  EXPECT_EQ(db.catalog()->GetByName("s"), nullptr);
  ASSERT_NE(db.catalog()->GetByName("t"), nullptr);
  // Post-transformation, T is a perfectly ordinary table.
  auto t = db.Begin();
  auto target = db.catalog()->GetByName("t");
  EXPECT_TRUE(db.Read(t, target.get(), Row({5, 5})).ok());
  EXPECT_TRUE(db.Commit(t).ok());
}

TEST(TransformSyncTest, OnlyOneTransformationAtATime) {
  engine::Database db;
  FojFixture fx(&db);
  TransformConfig config;
  config.drop_sources = false;
  config.priority = 0.05;
  auto rules = fx.MakeRules(&config);
  TransformCoordinator coord(&db, rules, config);
  // An open transaction holding a source lock parks the first transformation
  // in its drain phase, so it is still registered when the second starts.
  auto parked = db.Begin();
  ASSERT_TRUE(db.Update(parked, fx.r.get(), Row({3}), {{2, Value("u")}}).ok());
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  WaitForPhase(coord, TransformCoordinator::Phase::kDraining);
  ASSERT_EQ(coord.phase(), TransformCoordinator::Phase::kDraining);

  FojSpec spec2;
  spec2.r_table = "r";
  spec2.s_table = "s";
  spec2.r_join_column = "jv";
  spec2.s_join_column = "jv";
  spec2.target_table = "t2";
  auto rules2 = FojRules::Make(&db, spec2);
  ASSERT_TRUE(rules2.ok());
  TransformCoordinator coord2(
      &db, std::shared_ptr<FojRules>(std::move(rules2).ValueOrDie()), config);
  auto stats2 = coord2.Run();
  ASSERT_TRUE(stats2.ok());
  EXPECT_FALSE(stats2->completed);
  EXPECT_NE(stats2->abort_reason.find("hook"), std::string::npos)
      << stats2->abort_reason;

  // Release the parked (doomed) transaction so the drain finishes.
  (void)db.Abort(parked);
  auto stats1 = stats_f.get();
  ASSERT_TRUE(stats1.ok());
  EXPECT_TRUE(stats1->completed) << stats1->abort_reason;
}

// Split with §5.3 consistency checking, end to end: inconsistent data blocks
// sync until a repair transaction lands; the CC then blesses the bucket.
TEST(SplitConsistencyIntegrationTest, RepairUnblocksSynchronization) {
  engine::Database db;
  auto t_src = *db.CreateTable("t", morph::testing::TSplitSchema());
  ASSERT_TRUE(db.BulkLoad(t_src.get(),
                          {Row({1, 7050, "Trondheim", "p1"}),
                           Row({2, 7050, "Trnodheim", "p2"}),  // inconsistent
                           Row({3, 5020, "Bergen", "p3"})})
                  .ok());

  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  spec.assume_consistent = false;
  auto rules = SplitRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  auto shared_rules = std::shared_ptr<SplitRules>(std::move(rules).ValueOrDie());

  TransformConfig config;
  config.drop_sources = false;
  config.sync_threshold = 64;
  TransformCoordinator coord(&db, shared_rules, config);
  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });

  // The transformation cannot synchronize while the U flag persists.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(coord.phase(), TransformCoordinator::Phase::kPropagating);
  EXPECT_EQ(shared_rules->CountInconsistent(), 1u);

  // DBA repairs the typo through an ordinary transaction.
  auto txn = db.Begin();
  ASSERT_TRUE(
      db.Update(txn, t_src.get(), Row({2}), {{2, Value("Trondheim")}}).ok());
  ASSERT_TRUE(db.Commit(txn).ok());

  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->completed) << stats->abort_reason;
  auto s_rec = shared_rules->s_table()->Get(Row({7050}));
  ASSERT_TRUE(s_rec.ok());
  EXPECT_TRUE(s_rec->consistent);
  EXPECT_EQ(s_rec->row[1], Value("Trondheim"));
  EXPECT_EQ(s_rec->counter, 2);
}

}  // namespace
}  // namespace morph::transform
