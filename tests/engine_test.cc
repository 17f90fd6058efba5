#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/relops.h"
#include "engine/blocking_transform.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "tests/test_util.h"

namespace morph::engine {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;

Schema AccountSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"balance", ValueType::kInt64, true},
                        {"owner", ValueType::kString, true}},
                       {"id"});
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = CreateTestTable("accounts");
  }

  storage::Table* CreateTestTable(const std::string& name) {
    auto t = db_.CreateTable(name, AccountSchema());
    EXPECT_TRUE(t.ok());
    return t->get();
  }

  Database db_;
  storage::Table* table_ = nullptr;
};

TEST_F(DatabaseTest, InsertReadCommit) {
  auto t = db_.Begin();
  ASSERT_TRUE(db_.Insert(t, table_, Row({1, 100, "alice"})).ok());
  auto row = db_.Read(t, table_, Row({1}));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1], Value(100));
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_EQ(table_->size(), 1u);
  // Locks released after commit: another txn can write the record.
  auto t2 = db_.Begin();
  ASSERT_TRUE(db_.Update(t2, table_, Row({1}), {{1, Value(150)}}).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
  EXPECT_EQ(table_->Get(Row({1}))->row[1], Value(150));
}

TEST_F(DatabaseTest, UpdateLogsPartialImages) {
  auto t = db_.Begin();
  ASSERT_TRUE(db_.Insert(t, table_, Row({1, 100, "alice"})).ok());
  ASSERT_TRUE(db_.Update(t, table_, Row({1}), {{1, Value(42)}}).ok());
  ASSERT_TRUE(db_.Commit(t).ok());
  // Find the update record and verify it carries only the changed column.
  bool found = false;
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type != wal::LogRecordType::kUpdate) return;
    found = true;
    ASSERT_EQ(rec.updated_columns.size(), 1u);
    EXPECT_EQ(rec.updated_columns[0], 1u);
    EXPECT_EQ(rec.before_values[0], Value(100));
    EXPECT_EQ(rec.after_values[0], Value(42));
  });
  EXPECT_TRUE(found);
}

TEST_F(DatabaseTest, UpdateRejectsPrimaryKeyChange) {
  auto t = db_.Begin();
  ASSERT_TRUE(db_.Insert(t, table_, Row({1, 100, "a"})).ok());
  EXPECT_TRUE(
      db_.Update(t, table_, Row({1}), {{0, Value(2)}}).IsInvalidArgument());
  ASSERT_TRUE(db_.Commit(t).ok());
}

TEST_F(DatabaseTest, AbortUndoesInsertUpdateDelete) {
  // Seed committed state.
  auto t0 = db_.Begin();
  ASSERT_TRUE(db_.Insert(t0, table_, Row({1, 100, "a"})).ok());
  ASSERT_TRUE(db_.Insert(t0, table_, Row({2, 200, "b"})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());

  auto t = db_.Begin();
  ASSERT_TRUE(db_.Insert(t, table_, Row({3, 300, "c"})).ok());
  ASSERT_TRUE(db_.Update(t, table_, Row({1}), {{1, Value(111)}}).ok());
  ASSERT_TRUE(db_.Delete(t, table_, Row({2})).ok());
  ASSERT_TRUE(db_.Abort(t).ok());

  EXPECT_EQ(t->state(), txn::TxnState::kAborted);
  EXPECT_FALSE(table_->Contains(Row({3})));
  EXPECT_EQ(table_->Get(Row({1}))->row[1], Value(100));
  ASSERT_TRUE(table_->Contains(Row({2})));
  EXPECT_EQ(table_->Get(Row({2}))->row[1], Value(200));
}

TEST_F(DatabaseTest, AbortWritesClrsWithUndoNextChain) {
  auto t = db_.Begin();
  ASSERT_TRUE(db_.Insert(t, table_, Row({1, 100, "a"})).ok());
  ASSERT_TRUE(db_.Update(t, table_, Row({1}), {{1, Value(101)}}).ok());
  ASSERT_TRUE(db_.Abort(t).ok());

  size_t clrs = 0;
  bool txn_end = false;
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kClr) {
      clrs++;
      EXPECT_NE(rec.undo_next_lsn, kInvalidLsn);
    }
    if (rec.type == wal::LogRecordType::kTxnEnd) txn_end = true;
  });
  EXPECT_EQ(clrs, 2u);  // one per undone operation
  EXPECT_TRUE(txn_end);
}

TEST_F(DatabaseTest, WriteConflictResolvedByWaitDie) {
  auto older = db_.Begin();
  auto younger = db_.Begin();
  ASSERT_TRUE(db_.Insert(older, table_, Row({1, 1, "x"})).ok());
  // Younger transaction conflicts with older holder → dies.
  const Status st = db_.Update(younger, table_, Row({1}), {{1, Value(9)}});
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  ASSERT_TRUE(db_.Abort(younger).ok());
  ASSERT_TRUE(db_.Commit(older).ok());
}

TEST_F(DatabaseTest, SharedReadsDoNotConflict) {
  auto t0 = db_.Begin();
  ASSERT_TRUE(db_.Insert(t0, table_, Row({1, 5, "x"})).ok());
  ASSERT_TRUE(db_.Commit(t0).ok());
  auto t1 = db_.Begin();
  auto t2 = db_.Begin();
  EXPECT_TRUE(db_.Read(t1, table_, Row({1})).ok());
  EXPECT_TRUE(db_.Read(t2, table_, Row({1})).ok());
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
}

TEST_F(DatabaseTest, OperationsOnFinishedTxnRejected) {
  auto t = db_.Begin();
  ASSERT_TRUE(db_.Commit(t).ok());
  EXPECT_TRUE(db_.Insert(t, table_, Row({1, 1, "x"})).IsInvalidArgument());
  EXPECT_TRUE(db_.Read(t, table_, Row({1})).status().IsInvalidArgument());
}

TEST_F(DatabaseTest, BulkLoadIsLoggedAndVisible) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row({i, i * 10, "u"}));
  ASSERT_TRUE(db_.BulkLoad(table_, rows).ok());
  EXPECT_EQ(table_->size(), 100u);
  size_t inserts = 0;
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kInsert) inserts++;
  });
  EXPECT_EQ(inserts, 100u);
}

TEST_F(DatabaseTest, EpochStampsTransactions) {
  auto t1 = db_.Begin();
  EXPECT_EQ(t1->epoch(), 0u);
  EXPECT_EQ(db_.AdvanceEpoch(), 1u);
  auto t2 = db_.Begin();
  EXPECT_EQ(t2->epoch(), 1u);
  ASSERT_TRUE(db_.Commit(t1).ok());
  ASSERT_TRUE(db_.Commit(t2).ok());
}

TEST_F(DatabaseTest, ConcurrentTransfersPreserveTotalBalance) {
  // Classic invariant test: concurrent transfers keep the total constant.
  auto t0 = db_.Begin();
  constexpr int kAccounts = 20;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(db_.Insert(t0, table_, Row({i, 1000, "u"})).ok());
  }
  ASSERT_TRUE(db_.Commit(t0).ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      morph::Random rng(w + 1);
      for (int i = 0; i < 200; ++i) {
        auto t = db_.Begin();
        const int64_t a = static_cast<int64_t>(rng.Uniform(kAccounts));
        int64_t b = static_cast<int64_t>(rng.Uniform(kAccounts));
        if (b == a) b = (b + 1) % kAccounts;
        auto ra = db_.Read(t, table_, Row({a}));
        if (!ra.ok()) {
          (void)db_.Abort(t);
          continue;
        }
        auto rb = db_.Read(t, table_, Row({b}));
        if (!rb.ok()) {
          (void)db_.Abort(t);
          continue;
        }
        const int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(50));
        Status st = db_.Update(t, table_, Row({a}),
                               {{1, Value((*ra)[1].AsInt64() - amount)}});
        if (st.ok()) {
          st = db_.Update(t, table_, Row({b}),
                          {{1, Value((*rb)[1].AsInt64() + amount)}});
        }
        if (st.ok()) {
          (void)db_.Commit(t);
        } else {
          (void)db_.Abort(t);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  int64_t total = 0;
  table_->ForEach([&](const storage::Record& rec) {
    total += rec.row[1].AsInt64();
  });
  EXPECT_EQ(total, int64_t{kAccounts} * 1000);
}

// --- Commit admission under ENOSPC backpressure -----------------------------------------

TEST(CommitBackpressureTest, EnospcRefusalIsRetryableAndLeavesTxnIntact) {
  const morph::testing::TestWalDir wal_dir;
  Database db;
  wal::WalOptions wopts = wal_dir.options();
  wopts.flush_initial_backoff_micros = 50;
  wopts.flush_max_backoff_micros = 2'000;
  wopts.flush_enospc_max_retries = 1'000'000;  // the stall outlives the test
  ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
  auto table = *db.CreateTable("accounts", AccountSchema());
  ASSERT_TRUE(db.BulkLoad(table.get(), {Row({1, 100, "alice"})}).ok());

  // Stage the transaction while the disk is healthy, and drain the writer so
  // its records are already durable when the disk fills.
  auto t = db.Begin();
  ASSERT_TRUE(db.Update(t, table.get(), Row({1}), {{1, Value(42)}}).ok());
  ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());

  // The disk fills with no horizon; an unrelated append triggers the flush
  // that discovers it and stalls the writer.
  ASSERT_TRUE(
      Failpoints::Instance().ConfigureFromString("wal.fsync=enospc").ok());
  wal::LogRecord poke;
  poke.type = wal::LogRecordType::kBegin;
  poke.txn_id = 9999;
  db.wal()->Append(std::move(poke));
  while (Failpoints::Instance().fires("wal.fsync") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Refused pre-commit-apply with a *retryable* status: the engine is not
  // halted and the transaction is still open — its in-place 2PL writes and
  // record locks are untouched, so it can retry or abort cleanly.
  const Status refused = db.Commit(t);
  EXPECT_TRUE(refused.IsNoSpace()) << refused.ToString();
  EXPECT_TRUE(refused.IsRetryable()) << refused.ToString();
  EXPECT_FALSE(db.wal_failed());

  // Space frees (checkpoint truncation nudges the writer): the SAME
  // transaction object retries its Commit and succeeds.
  Failpoints::Instance().DisableAll();
  db.wal()->TruncateBefore(1);
  EXPECT_TRUE(db.Commit(t).ok());
  EXPECT_EQ(table->Get(Row({1}))->row[1], Value(42));
}

// --- Recovery ---------------------------------------------------------------------------

TEST(RecoveryTest, RestartRebuildsCommittedStateAndUndoesLosers) {
  const morph::testing::TestWalDir wal_dir;
  {
    Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto table = *db.CreateTable("accounts", AccountSchema());

    auto t1 = db.Begin();
    ASSERT_TRUE(db.Insert(t1, table.get(), Row({1, 100, "a"})).ok());
    ASSERT_TRUE(db.Insert(t1, table.get(), Row({2, 200, "b"})).ok());
    ASSERT_TRUE(db.Commit(t1).ok());

    auto t2 = db.Begin();
    ASSERT_TRUE(db.Update(t2, table.get(), Row({1}), {{1, Value(999)}}).ok());
    ASSERT_TRUE(db.Insert(t2, table.get(), Row({3, 300, "c"})).ok());
    // t2 never commits: simulated crash.
    morph::testing::SyncAndCrash(db.wal());
  }

  Database db2;
  auto table2 = *db2.CreateTable("accounts", AccountSchema());
  auto stats =
      Recovery::RestartDurable(db2.wal(), wal_dir.options(), db2.catalog());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_EQ(stats->undone, 2u);

  EXPECT_EQ(table2->size(), 2u);
  EXPECT_EQ(table2->Get(Row({1}))->row[1], Value(100));  // update undone
  EXPECT_FALSE(table2->Contains(Row({3})));              // insert undone
  EXPECT_EQ(table2->Get(Row({2}))->row[1], Value(200));
}

TEST(RecoveryTest, RestartIsIdempotent) {
  const morph::testing::TestWalDir wal_dir;
  {
    Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto table = *db.CreateTable("t", AccountSchema());
    auto t1 = db.Begin();
    ASSERT_TRUE(db.Insert(t1, table.get(), Row({1, 10, "x"})).ok());
    // loser
    morph::testing::SyncAndCrash(db.wal());
  }

  Database db2;
  auto table2 = *db2.CreateTable("t", AccountSchema());
  auto s1 =
      Recovery::RestartDurable(db2.wal(), wal_dir.options(), db2.catalog());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->losers, 1u);
  EXPECT_EQ(table2->size(), 0u);

  // Second restart over the extended log: CLRs + TXN_END mean no losers.
  table2->Clear();
  auto s2 = Recovery::Restart(db2.wal(), db2.catalog());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->losers, 0u);
  EXPECT_EQ(table2->size(), 0u);
}

TEST(RecoveryTest, PartialRollbackResumesViaUndoNext) {
  // Simulate a crash mid-rollback: ABORT + one CLR present, no TXN_END.
  const morph::testing::TestWalDir wal_dir;
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
  auto table = *db.CreateTable("t", AccountSchema());
  auto t = db.Begin();
  ASSERT_TRUE(db.Insert(t, table.get(), Row({1, 10, "x"})).ok());
  ASSERT_TRUE(db.Insert(t, table.get(), Row({2, 20, "y"})).ok());

  // Hand-craft the partial rollback: CLR undoing the second insert only.
  wal::LogRecord abort_rec;
  abort_rec.type = wal::LogRecordType::kAbort;
  abort_rec.txn_id = t->id();
  abort_rec.prev_lsn = t->last_lsn();
  const Lsn abort_lsn = db.wal()->Append(abort_rec);

  auto second_insert = *db.wal()->At(t->last_lsn());
  wal::LogRecord clr;
  clr.type = wal::LogRecordType::kClr;
  clr.txn_id = t->id();
  clr.prev_lsn = abort_lsn;
  clr.table_id = second_insert.table_id;
  clr.key = second_insert.key;
  clr.before = second_insert.after;
  clr.clr_action = wal::ClrAction::kUndoInsert;
  clr.undo_next_lsn = second_insert.prev_lsn;
  db.wal()->Append(clr);
  morph::testing::SyncAndCrash(db.wal());

  Database db2;
  auto table2 = *db2.CreateTable("t", AccountSchema());
  auto stats =
      Recovery::RestartDurable(db2.wal(), wal_dir.options(), db2.catalog());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_EQ(stats->undone, 1u);  // only the first insert remains to undo
  EXPECT_EQ(table2->size(), 0u);
}

// --- Blocking baseline ---------------------------------------------------------------------

TEST(BlockingTransformTest, FojMatchesOracle) {
  Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  std::vector<Row> r_rows = {Row({1, 10, "a"}), Row({2, 20, "b"}),
                             Row({3, 77, "c"})};
  std::vector<Row> s_rows = {Row({100, 10, "x"}), Row({200, 55, "y"})};
  ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
  ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());

  auto t_schema = *Schema::Make(
      {{"r_id", ValueType::kInt64, true},
       {"r_jv", ValueType::kInt64, true},
       {"r_payload", ValueType::kString, true},
       {"s_sid", ValueType::kInt64, true},
       {"s_jv", ValueType::kInt64, true},
       {"s_info", ValueType::kString, true}},
      std::vector<std::string>{"r_id", "s_sid"});
  auto t = *db.CreateTable("t", std::move(t_schema));

  auto outcome = BlockingTransform::FullOuterJoin(&db, r.get(), 1, s.get(), 1,
                                                  t.get());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows_written, 4u);
  EXPECT_GT(outcome->blocked_micros, 0);

  auto expected = Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3));
  EXPECT_EQ(SortedRows(*t), expected);
}

TEST(BlockingTransformTest, SplitMatchesOracleWithCounters) {
  Database db;
  auto t = *db.CreateTable("t", morph::testing::TSplitSchema());
  std::vector<Row> t_rows = {
      Row({1, 7050, "Trondheim", "p1"}),
      Row({2, 7050, "Trondheim", "p2"}),
      Row({3, 5020, "Bergen", "p3"}),
  };
  ASSERT_TRUE(db.BulkLoad(t.get(), t_rows).ok());

  auto r_schema = *Schema::Make({{"id", ValueType::kInt64, false},
                                 {"zip", ValueType::kInt64, true},
                                 {"body", ValueType::kString, true}},
                                {"id"});
  auto s_schema = *Schema::Make({{"zip", ValueType::kInt64, false},
                                 {"city", ValueType::kString, true}},
                                {"zip"});
  auto r_out = *db.CreateTable("r_out", std::move(r_schema));
  auto s_out = *db.CreateTable("s_out", std::move(s_schema));

  auto outcome = BlockingTransform::Split(&db, t.get(), {0, 1, 3}, {1, 2},
                                          r_out.get(), s_out.get());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(r_out->size(), 3u);
  EXPECT_EQ(s_out->size(), 2u);
  auto s7050 = s_out->Get(Row({7050}));
  ASSERT_TRUE(s7050.ok());
  EXPECT_EQ(s7050->counter, 2);
  EXPECT_TRUE(s7050->consistent);
  EXPECT_EQ(s7050->row[1], Value("Trondheim"));
}

TEST(BlockingTransformTest, BlocksConcurrentWriters) {
  // While the blocking transform holds the exclusive latch, a user update
  // must stall; with the 50k-row scale of the paper this is the pause that
  // motivates the whole framework.
  Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  std::vector<Row> r_rows;
  for (int i = 0; i < 20000; ++i) r_rows.push_back(Row({i, i % 500, "p"}));
  ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
  std::vector<Row> s_rows;
  for (int i = 0; i < 500; ++i) s_rows.push_back(Row({i, i, "s"}));
  ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());

  auto t_schema = *Schema::Make(
      {{"r_id", ValueType::kInt64, true},
       {"r_jv", ValueType::kInt64, true},
       {"r_payload", ValueType::kString, true},
       {"s_sid", ValueType::kInt64, true},
       {"s_jv", ValueType::kInt64, true},
       {"s_info", ValueType::kString, true}},
      std::vector<std::string>{"r_id", "s_sid"});
  auto t = *db.CreateTable("t", std::move(t_schema));

  std::atomic<int64_t> blocked_micros{0};
  std::thread writer([&] {
    // Give the transform a head start so the latch is held.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto txn = db.Begin();
    const auto start = morph::Clock::Now();
    (void)db.Update(txn, r.get(), Row({5}), {{2, Value("upd")}});
    blocked_micros.store(morph::Clock::MicrosSince(start));
    (void)db.Commit(txn);
  });
  auto outcome =
      BlockingTransform::FullOuterJoin(&db, r.get(), 1, s.get(), 1, t.get());
  writer.join();
  ASSERT_TRUE(outcome.ok());
  // The transform latch window is substantial for 20k rows...
  EXPECT_GT(outcome->blocked_micros, 1000);
}

}  // namespace
}  // namespace morph::engine
