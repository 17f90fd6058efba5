#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/random.h"

#include "engine/checkpoint.h"
#include "engine/database.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace morph::engine {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;

Schema AccountSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"balance", ValueType::kInt64, true}},
                       {"id"});
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/morph_ckpt_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The durable WAL of a checkpoint test, beside the checkpoint files.
wal::WalOptions WalIn(const std::string& dir) {
  wal::WalOptions opts;
  opts.dir = dir + "/wal";
  return opts;
}

// --- TableSnapshot ----------------------------------------------------------

TEST(TableSnapshotTest, RoundTripPreservesMetadata) {
  storage::Table table(1, "t", AccountSchema());
  for (int64_t i = 0; i < 500; ++i) {
    storage::Record rec;
    rec.row = Row({i, i * 10});
    rec.lsn = 100 + i;
    rec.counter = i % 7;
    rec.consistent = (i % 3) != 0;
    ASSERT_TRUE(table.Insert(std::move(rec)).ok());
  }
  const std::string path = ::testing::TempDir() + "/morph_snapshot_test.bin";
  ASSERT_TRUE(storage::TableSnapshot::Save(table, path).ok());

  storage::Table restored(1, "t", AccountSchema());
  ASSERT_TRUE(storage::TableSnapshot::Load(&restored, path).ok());
  EXPECT_EQ(restored.size(), 500u);
  auto rec = restored.Get(Row({42}));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->row[1], Value(420));
  EXPECT_EQ(rec->lsn, 142u);
  EXPECT_EQ(rec->counter, 0);
  EXPECT_FALSE(rec->consistent);  // 42 % 3 == 0
  std::remove(path.c_str());
}

TEST(TableSnapshotTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/morph_snapshot_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a snapshot";
  }
  storage::Table table(1, "t", AccountSchema());
  EXPECT_TRUE(storage::TableSnapshot::Load(&table, path).IsCorruption());
  std::remove(path.c_str());
  EXPECT_TRUE(
      storage::TableSnapshot::Load(&table, "/nonexistent/snap").IsIOError());
}

// --- Checkpointer -----------------------------------------------------------

TEST(CheckpointTest, QuiescentRoundTrip) {
  const std::string dir = FreshDir("quiescent");
  Database db;
  auto a = *db.CreateTable("a", AccountSchema());
  auto b = *db.CreateTable("b", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 300; ++i) rows.push_back(Row({i, i}));
  ASSERT_TRUE(db.BulkLoad(a.get(), rows).ok());
  ASSERT_TRUE(db.BulkLoad(b.get(), {Row({1, 1})}).ok());

  auto meta = Checkpointer::Write(&db, dir);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->tables.size(), 2u);
  EXPECT_TRUE(meta->active_txns.empty());

  Database db2;
  auto a2 = *db2.CreateTable("a", AccountSchema());
  auto b2 = *db2.CreateTable("b", AccountSchema());
  // Empty log suffix: everything comes from the snapshots.
  auto stats = Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->snapshot_records, 301u);
  EXPECT_EQ(stats->losers, 0u);
  EXPECT_EQ(SortedRows(*a2), SortedRows(*a));
  EXPECT_EQ(SortedRows(*b2), SortedRows(*b));
}

TEST(CheckpointTest, SuffixRedoAndLoserUndo) {
  const std::string dir = FreshDir("suffix");
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalIn(dir)).ok());
  auto table = *db.CreateTable("t", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back(Row({i, 0}));
  ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());

  // A transaction that is mid-flight at checkpoint time and NEVER writes
  // again: its undo chain head must come from the checkpoint meta.
  auto loser = db.Begin();
  ASSERT_TRUE(db.Update(loser, table.get(), Row({7}), {{1, Value(777)}}).ok());

  auto meta = Checkpointer::Write(&db, dir);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->active_txns.size(), 1u);

  // Post-checkpoint committed work (the redo suffix); rows 10..39 avoid the
  // record the parked loser still holds exclusively.
  for (int i = 10; i < 40; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(
        db.Update(txn, table.get(), Row({i}), {{1, Value(int64_t{100 + i})}}).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  // And one loser that started after the checkpoint.
  auto late_loser = db.Begin();
  ASSERT_TRUE(
      db.Update(late_loser, table.get(), Row({50}), {{1, Value(5000)}}).ok());

  // Crash: both losers never resolved.
  morph::testing::SyncAndCrash(db.wal());

  Database db2;
  auto t2 = *db2.CreateTable("t", AccountSchema());
  ASSERT_TRUE(db2.wal()->OpenDurable(WalIn(dir)).ok());
  auto stats = Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 2u);
  EXPECT_GE(stats->redone, 30u);

  // Committed suffix is in; both losers are rolled back.
  EXPECT_EQ(t2->Get(Row({20}))->row[1], Value(120));
  EXPECT_EQ(t2->Get(Row({39}))->row[1], Value(139));
  EXPECT_EQ(t2->Get(Row({99}))->row[1], Value(0));
  EXPECT_EQ(t2->Get(Row({7}))->row[1], Value(0));   // checkpoint-time loser undone
  EXPECT_EQ(t2->Get(Row({50}))->row[1], Value(0));  // post-checkpoint loser undone
  EXPECT_EQ(t2->size(), 100u);
}

TEST(CheckpointTest, TruncatedWalSufficesAfterCheckpoint) {
  const std::string dir = FreshDir("truncate");
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalIn(dir)).ok());
  auto table = *db.CreateTable("t", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back(Row({i, i}));
  ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());
  for (int i = 0; i < 50; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Update(txn, table.get(), Row({i}), {{1, Value(int64_t{-1})}}).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  auto meta = Checkpointer::Write(&db, dir);
  ASSERT_TRUE(meta.ok());
  // Archive the log up to the checkpoint floor — the whole point.
  db.wal()->TruncateBefore(meta->truncate_floor());
  EXPECT_GT(db.wal()->FirstLsn(), 1u);

  for (int i = 100; i < 130; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Update(txn, table.get(), Row({i}), {{1, Value(int64_t{-2})}}).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  morph::testing::SyncAndCrash(db.wal());

  Database db2;
  auto t2 = *db2.CreateTable("t", AccountSchema());
  ASSERT_TRUE(db2.wal()->OpenDurable(WalIn(dir)).ok());
  auto stats = Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(SortedRows(*t2), SortedRows(*table));
}

TEST(CheckpointTest, ConcurrentWritersFuzzyCheckpointConverges) {
  const std::string dir = FreshDir("concurrent");
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalIn(dir)).ok());
  auto table = *db.CreateTable("t", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) rows.push_back(Row({i, 0}));
  ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());

  // Writers run THROUGH the checkpoint: the snapshot is fuzzy and the
  // gated redo must reconcile whatever mix the scan caught.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    morph::Random rng(3);
    while (!stop.load()) {
      auto txn = db.Begin();
      const int64_t id = static_cast<int64_t>(rng.Uniform(400));
      (void)db.Update(
          txn, table.get(), Row({id}),
          {{1, Value(static_cast<int64_t>(rng.Next() >> 40))}});
      (void)db.Commit(txn);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto meta = Checkpointer::Write(&db, dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  writer.join();
  ASSERT_TRUE(meta.ok());
  morph::testing::SyncAndCrash(db.wal());

  Database db2;
  auto t2 = *db2.CreateTable("t", AccountSchema());
  ASSERT_TRUE(db2.wal()->OpenDurable(WalIn(dir)).ok());
  auto stats = Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(SortedRows(*t2), SortedRows(*table));
}

TEST(CheckpointTest, RestoreRequiresRecreatedTables) {
  const std::string dir = FreshDir("missing");
  Database db;
  auto table = *db.CreateTable("t", AccountSchema());
  ASSERT_TRUE(db.BulkLoad(table.get(), {Row({1, 1})}).ok());
  ASSERT_TRUE(Checkpointer::Write(&db, dir).ok());

  Database db2;  // table "t" not recreated
  EXPECT_TRUE(Checkpointer::Restore(dir, db2.wal(), db2.catalog())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Checkpointer::ReadMeta("/nonexistent").status().IsIOError());
}

}  // namespace
}  // namespace morph::engine
