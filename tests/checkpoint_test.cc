#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"

#include "engine/checkpoint.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace morph::engine {
namespace {

using morph::testing::RowsToString;
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

TEST(CheckpointTest, FailedWriteKeepsPreviousCheckpoint) {
  const std::string dir = FreshDir("failed_write");
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalIn(dir)).ok());
  auto a = *db.CreateTable("a", AccountSchema());
  auto b = *db.CreateTable("b", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back(Row({i, i}));
  ASSERT_TRUE(db.BulkLoad(a.get(), rows).ok());
  ASSERT_TRUE(db.BulkLoad(b.get(), rows).ok());
  auto first = Checkpointer::Write(&db, dir);
  ASSERT_TRUE(first.ok());

  // Each later checkpoint fails at one step of its file write: the write
  // (hit 2; hit 1 opens the temp file), the fsync, or the rename.
  const std::pair<const char*, uint64_t> faults[] = {
      {"engine.checkpoint.file.write", 2},
      {"engine.checkpoint.file.fsync", 1},
      {"engine.checkpoint.file.rename", 1}};
  int64_t round = 0;
  for (const auto& [site, hit] : faults) {
    round++;
    for (int64_t i = 0; i < 20; ++i) {
      auto txn = db.Begin();
      const Value v(-100 * round - i);
      ASSERT_TRUE(db.Update(txn, a.get(), Row({i}), {{1, v}}).ok());
      ASSERT_TRUE(db.Update(txn, b.get(), Row({i}), {{1, v}}).ok());
      ASSERT_TRUE(db.Commit(txn).ok());
    }
    Failpoints::Config eio;
    eio.action = Failpoints::Action::kEio;
    eio.fire_on_hit = hit;
    eio.max_fires = 1;
    Failpoints::Instance().Enable(site, eio);
    EXPECT_FALSE(Checkpointer::Write(&db, dir).ok()) << site;
    EXPECT_EQ(Failpoints::Instance().fires(site), 1u) << site;
    Failpoints::Instance().DisableAll();
    auto on_disk = Checkpointer::ReadMeta(dir);
    ASSERT_TRUE(on_disk.ok()) << site << ": " << on_disk.status().ToString();
    EXPECT_EQ(on_disk->guard_lsn, first->guard_lsn) << site;
  }
  morph::testing::SyncAndCrash(db.wal());

  // The first checkpoint plus the log suffix still restores the oracle.
  Database db2;
  auto a2 = *db2.CreateTable("a", AccountSchema());
  auto b2 = *db2.CreateTable("b", AccountSchema());
  ASSERT_TRUE(db2.wal()->OpenDurable(WalIn(dir)).ok());
  auto stats = Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(SortedRows(*a2), SortedRows(*a));
  EXPECT_EQ(SortedRows(*b2), SortedRows(*b));
}

TEST(CheckpointTest, BulkLoadDuplicateRecoversAsInMemory) {
  const std::string dir = FreshDir("bulkload_dup");
  Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalIn(dir)).ok());
  auto table = *db.CreateTable("t", AccountSchema());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(Row({i, i}));
  ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());
  ASSERT_TRUE(Checkpointer::Write(&db, dir).ok());
  // Logged before the Insert fails: the log now holds an INSERT of key 3
  // above the LSN the stored (and snapshotted) row carries.
  EXPECT_TRUE(db.BulkLoad(table.get(), {Row({3, 333})}).IsAlreadyExists());
  const std::vector<Row> expected = SortedRows(*table);
  morph::testing::SyncAndCrash(db.wal());
  std::filesystem::copy(dir + "/wal", dir + "/wal_copy",
                        std::filesystem::copy_options::recursive);

  Database restarted;
  auto t1 = *restarted.CreateTable("t", AccountSchema());
  auto restart = Recovery::RestartDurable(restarted.wal(), WalIn(dir),
                                          restarted.catalog());
  ASSERT_TRUE(restart.ok()) << restart.status().ToString();
  EXPECT_EQ(SortedRows(*t1), expected);

  Database restored;
  auto t2 = *restored.CreateTable("t", AccountSchema());
  wal::WalOptions copy;
  copy.dir = dir + "/wal_copy";
  ASSERT_TRUE(restored.wal()->OpenDurable(copy).ok());
  auto restore = Checkpointer::Restore(dir, restored.wal(), restored.catalog());
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_EQ(SortedRows(*t2), expected);
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

// --- Restart and Restore agree ----------------------------------------------

/// Copies `from`'s whole log into the fresh in-memory `to`: the log a crash
/// leaves behind. Appends re-assign the same LSNs, since `from` was never
/// truncated.
void CopyLog(const wal::Wal& from, wal::Wal* to) {
  for (Lsn lsn = from.FirstLsn(); lsn <= from.LastLsn(); ++lsn) {
    auto rec = from.At(lsn);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(to->Append(*rec), lsn);
  }
}

/// One seeded single-threaded history over two tables: inserts, updates and
/// deletes on a small key domain (so keys are deleted and re-inserted),
/// BulkLoads of new and of duplicate rows, and up to four interleaved
/// transactions that commit, abort, or are still open at the crash (the
/// losers). A checkpoint is taken at a random step. Then Restart over the
/// full log and Restore from the checkpoint over the log truncated to its
/// floor must both rebuild the committed state, with the same losers.
void RunRecoveryDifferential(uint64_t seed, const std::string& dir) {
  constexpr int kTables = 2;
  constexpr int64_t kKeys = 12;
  using Key = std::pair<int, int64_t>;  // table index, id
  struct Open {
    TxnPtr txn;
    std::map<Key, std::optional<int64_t>> writes;  // nullopt = deleted
  };

  morph::Random rng(seed);
  Database db;
  std::shared_ptr<storage::Table> tables[kTables] = {
      *db.CreateTable("a", AccountSchema()),
      *db.CreateTable("b", AccountSchema())};
  std::map<int64_t, int64_t> committed[kTables];
  std::vector<Open> open;
  std::map<Key, size_t> owner;  // key -> index into `open` holding its lock
  const auto finish = [&](size_t i, bool commit) {
    if (commit) {
      for (const auto& [key, value] : open[i].writes) {
        if (value) {
          committed[key.first][key.second] = *value;
        } else {
          committed[key.first].erase(key.second);
        }
      }
    }
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
    owner.clear();
    for (size_t j = 0; j < open.size(); ++j) {
      for (const auto& entry : open[j].writes) owner[entry.first] = j;
    }
  };

  const int steps = 30 + static_cast<int>(rng.Uniform(90));
  const int checkpoint_step = static_cast<int>(rng.Uniform(steps));
  CheckpointMeta meta;
  for (int step = 0; step < steps; ++step) {
    if (step == checkpoint_step) {
      auto written = Checkpointer::Write(&db, dir);
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      meta = *written;
    }
    const uint64_t roll = rng.Uniform(100);
    if (open.empty() || (roll < 12 && open.size() < 4)) {
      open.push_back(Open{db.Begin(), {}});
      continue;
    }
    const size_t i = rng.Uniform(open.size());
    if (roll < 20) {
      ASSERT_TRUE(db.Commit(open[i].txn).ok());
      finish(i, /*commit=*/true);
      continue;
    }
    if (roll < 27) {
      ASSERT_TRUE(db.Abort(open[i].txn).ok());
      finish(i, /*commit=*/false);
      continue;
    }
    const int t = static_cast<int>(rng.Uniform(kTables));
    const Key key{t, static_cast<int64_t>(rng.Uniform(kKeys))};
    auto locked = owner.find(key);
    const int64_t value = rng.UniformRange(-1000, 1000);
    if (roll < 33) {
      // BulkLoad takes no locks; it logs even when the key is stored.
      if (locked != owner.end()) continue;
      const bool stored = committed[t].count(key.second) > 0;
      const Status st =
          db.BulkLoad(tables[t].get(), {Row({key.second, value})});
      if (stored) {
        ASSERT_TRUE(st.IsAlreadyExists()) << st.ToString();
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        committed[t][key.second] = value;
      }
      continue;
    }
    if (locked != owner.end() && locked->second != i) continue;
    Open& txn = open[i];
    auto own = txn.writes.find(key);
    const bool present = own != txn.writes.end()
                             ? own->second.has_value()
                             : committed[t].count(key.second) > 0;
    storage::Table* table = tables[t].get();
    if (!present) {
      ASSERT_TRUE(db.Insert(txn.txn, table, Row({key.second, value})).ok());
      txn.writes[key] = value;
    } else if (rng.Bernoulli(0.6)) {
      ASSERT_TRUE(
          db.Update(txn.txn, table, Row({key.second}), {{1, Value(value)}})
              .ok());
      txn.writes[key] = value;
    } else {
      ASSERT_TRUE(db.Delete(txn.txn, table, Row({key.second})).ok());
      txn.writes[key] = std::nullopt;
    }
    owner[key] = i;
  }
  // Crash: the transactions still open are the losers.

  Database restarted;
  Database restored;
  for (Database* r : {&restarted, &restored}) {
    ASSERT_TRUE(r->CreateTable("a", AccountSchema()).ok());
    ASSERT_TRUE(r->CreateTable("b", AccountSchema()).ok());
  }
  CopyLog(*db.wal(), restarted.wal());
  CopyLog(*db.wal(), restored.wal());
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  restored.wal()->TruncateBefore(meta.truncate_floor());

  auto restart = Recovery::Restart(restarted.wal(), restarted.catalog());
  ASSERT_TRUE(restart.ok()) << restart.status().ToString();
  auto restore = Checkpointer::Restore(dir, restored.wal(), restored.catalog());
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_EQ(restart->losers, open.size());
  EXPECT_EQ(restore->losers, restart->losers);
  for (int t = 0; t < kTables; ++t) {
    std::vector<Row> expected;
    for (const auto& [id, balance] : committed[t]) {
      expected.push_back(Row({id, balance}));
    }
    const std::string name = t == 0 ? "a" : "b";
    const auto from_restart = SortedRows(*restarted.catalog()->GetByName(name));
    const auto from_restore = SortedRows(*restored.catalog()->GetByName(name));
    EXPECT_EQ(from_restart, expected) << "table " << name << " after Restart:\n"
                                      << RowsToString(from_restart);
    EXPECT_EQ(from_restore, from_restart)
        << "table " << name << " after Restore:\n"
        << RowsToString(from_restore);
  }
}

TEST(RecoveryDifferentialTest, RestartAndRestoreAgreeOnSeededHistories) {
  const std::string dir = FreshDir("differential");
  for (uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRecoveryDifferential(seed, dir);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "recovery differential failed at seed " << seed;
      return;
    }
  }
}

}  // namespace
}  // namespace morph::engine
