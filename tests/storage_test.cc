#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace morph::storage {
namespace {

using morph::testing::Numbered;

Schema TwoColSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"val", ValueType::kString, true}},
                       {"id"});
}

Record Rec(int64_t id, const std::string& val, Lsn lsn = 1) {
  Record r;
  r.row = Row({id, val});
  r.lsn = lsn;
  return r;
}

// --- Table CRUD -------------------------------------------------------------------

TEST(TableTest, InsertGetDelete) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a")).ok());
  EXPECT_TRUE(t.Insert(Rec(1, "b")).IsAlreadyExists());
  auto rec = t.Get(Row({1}));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->row[1], Value("a"));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(Row({1})));
  ASSERT_TRUE(t.Delete(Row({1})).ok());
  EXPECT_TRUE(t.Delete(Row({1})).IsNotFound());
  EXPECT_FALSE(t.Contains(Row({1})));
}

TEST(TableTest, UpdateReplacesRowAndLsn) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a", 5)).ok());
  ASSERT_TRUE(t.Update(Row({1}), Rec(1, "b", 9)).ok());
  auto rec = t.Get(Row({1}));
  EXPECT_EQ(rec->row[1], Value("b"));
  EXPECT_EQ(rec->lsn, 9u);
  EXPECT_TRUE(t.Update(Row({2}), Rec(2, "x")).IsNotFound());
  // Key changes are rejected.
  EXPECT_TRUE(t.Update(Row({1}), Rec(3, "z")).IsInvalidArgument());
}

TEST(TableTest, MutateAtomicReadModifyWrite) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "a")).ok());
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->counter = 42;
                 r->consistent = false;
                 return true;
               }).ok());
  auto rec = t.Get(Row({1}));
  EXPECT_EQ(rec->counter, 42);
  EXPECT_FALSE(rec->consistent);
  // fn returning false leaves the record unchanged.
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->counter = 99;
                 return false;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 42);
  EXPECT_TRUE(t.Mutate(Row({7}), [](Record*) { return true; }).IsNotFound());
}

TEST(TableTest, FuzzyScanSeesAllQuiescentRecords) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  size_t n = 0;
  t.FuzzyScan([&](const Record&) { n++; });
  EXPECT_EQ(n, 1000u);
}

TEST(TableTest, FuzzyScanToleratesConcurrentWriters) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 2000;
    while (!stop.load()) {
      (void)t.Insert(Rec(i, "w"));
      (void)t.Delete(Row({i - 1000}));
      (void)t.Mutate(Row({i % 500}), [](Record* r) {
        r->row[1] = Value("mut");
        return true;
      });
      ++i;
    }
  });
  for (int round = 0; round < 30; ++round) {
    size_t n = 0;
    t.FuzzyScan([&](const Record& rec) {
      // Records are never torn: each row still has 2 columns and an int key.
      ASSERT_EQ(rec.row.size(), 2u);
      ASSERT_EQ(rec.row[0].type(), ValueType::kInt64);
      n++;
    });
    EXPECT_GT(n, 0u);
  }
  stop.store(true);
  writer.join();
}

// --- Secondary indexes -----------------------------------------------------------------

TEST(TableTest, IndexMaintainedAcrossCrud) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  SecondaryIndex* idx = t.GetIndex("by_val");
  ASSERT_NE(idx, nullptr);

  ASSERT_TRUE(t.Insert(Rec(1, "x")).ok());
  ASSERT_TRUE(t.Insert(Rec(2, "x")).ok());
  ASSERT_TRUE(t.Insert(Rec(3, "y")).ok());
  EXPECT_EQ(idx->Count(Row({"x"})), 2u);
  EXPECT_EQ(idx->Count(Row({"y"})), 1u);

  ASSERT_TRUE(t.Update(Row({1}), Rec(1, "y")).ok());
  EXPECT_EQ(idx->Count(Row({"x"})), 1u);
  EXPECT_EQ(idx->Count(Row({"y"})), 2u);

  ASSERT_TRUE(t.Delete(Row({3})).ok());
  EXPECT_EQ(idx->Count(Row({"y"})), 1u);
  auto pks = idx->Lookup(Row({"y"}));
  ASSERT_EQ(pks.size(), 1u);
  EXPECT_EQ(pks[0], Row({1}));
}

TEST(TableTest, IndexBackfillsExistingRecords) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Insert(Rec(i, i % 2 ? "a" : "b")).ok());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 50u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 50u);
}

TEST(TableTest, IndexMutateMaintainsEntries) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Insert(Rec(1, "x")).ok());
  ASSERT_TRUE(t.Mutate(Row({1}), [](Record* r) {
                 r->row[1] = Value("z");
                 return true;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"x"})), 0u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"z"})), 1u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("i", {"val"}).ok());
  EXPECT_TRUE(t.CreateIndex("i", {"val"}).IsAlreadyExists());
  EXPECT_TRUE(t.CreateIndex("j", {"nope"}).IsInvalidArgument());
  EXPECT_EQ(t.GetIndex("missing"), nullptr);
}

TEST(IndexTest, AddIsDeduplicating) {
  SecondaryIndex idx("i", {0});
  idx.Add(Row({1}), Row({10}));
  idx.Add(Row({1}), Row({10}));
  idx.Add(Row({1}), Row({11}));
  EXPECT_EQ(idx.Count(Row({1})), 2u);
  idx.Remove(Row({1}), Row({10}));
  EXPECT_EQ(idx.Count(Row({1})), 1u);
  idx.Remove(Row({1}), Row({11}));
  EXPECT_EQ(idx.Count(Row({1})), 0u);
  EXPECT_TRUE(idx.Lookup(Row({1})).empty());
}

TEST(IndexTest, AddBatchDeduplicatesStoredAndInBatchPairs) {
  SecondaryIndex idx("i", {1});
  idx.Add(Row({"k1"}), Row({1}));
  idx.AddBatch({Row({"k1"}), Row({"k1"}), Row({"k2"}), Row({"k2"})},
               {Row({1}), Row({2}), Row({1}), Row({1})});
  EXPECT_EQ(morph::testing::Sorted(idx.Lookup(Row({"k1"}))),
            (std::vector<Row>{Row({1}), Row({2})}));
  EXPECT_EQ(idx.Lookup(Row({"k2"})), std::vector<Row>{Row({1})});
  EXPECT_EQ(idx.num_entries(), 3u);
}

// --- NULL keys in index (padding records) -------------------------------------------------

TEST(IndexTest, NullKeysGroupTogether) {
  SecondaryIndex idx("i", {0});
  idx.Add(Row({Value::Null()}), Row({1}));
  idx.Add(Row({Value::Null()}), Row({2}));
  EXPECT_EQ(idx.Count(Row({Value::Null()})), 2u);
}

// --- Catalog -------------------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto t = cat.CreateTable("users", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "users");
  EXPECT_EQ(cat.GetByName("users"), *t);
  EXPECT_EQ(cat.GetById((*t)->id()), *t);
  EXPECT_TRUE(cat.CreateTable("users", TwoColSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(cat.DropTable("users").ok());
  EXPECT_EQ(cat.GetByName("users"), nullptr);
  EXPECT_TRUE(cat.DropTable("users").IsNotFound());
}

TEST(CatalogTest, DroppedTableSurvivesViaSharedPtr) {
  Catalog cat;
  auto t = *cat.CreateTable("tmp", TwoColSchema());
  ASSERT_TRUE(t->Insert(Rec(1, "a")).ok());
  ASSERT_TRUE(cat.DropTable("tmp").ok());
  // A holder (e.g. a propagator mid-scan) can still use the storage.
  EXPECT_EQ(t->size(), 1u);
}

TEST(CatalogTest, RenameTable) {
  Catalog cat;
  auto t = *cat.CreateTable("old", TwoColSchema());
  ASSERT_TRUE(cat.RenameTable("old", "new").ok());
  EXPECT_EQ(cat.GetByName("old"), nullptr);
  EXPECT_EQ(cat.GetByName("new"), t);
  EXPECT_EQ(t->name(), "new");
  auto other = cat.CreateTable("other", TwoColSchema());
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(cat.RenameTable("new", "other").IsAlreadyExists());
  EXPECT_TRUE(cat.RenameTable("ghost", "x").IsNotFound());
}

TEST(CatalogTest, IdsAreUniqueAndIncreasing) {
  Catalog cat;
  auto a = *cat.CreateTable("a", TwoColSchema());
  auto b = *cat.CreateTable("b", TwoColSchema());
  EXPECT_LT(a->id(), b->id());
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.TableNames().size(), 2u);
}

TEST(TableTest, ClearEmptiesTableAndIndexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("i", {"val"}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.GetIndex("i")->Count(Row({"v"})), 0u);
}

// --- Rmw --------------------------------------------------------------------------

TEST(TableTest, RmwInsertsWhenAbsentAndErasesOnDemand) {
  Table t(1, "t", TwoColSchema());
  // Absent + kKeep: stays absent.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool exists) {
                 EXPECT_FALSE(exists);
                 return Table::RmwAction::kKeep;
               }).ok());
  EXPECT_FALSE(t.Contains(Row({1})));
  // Absent + kPut: inserts.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool exists) {
                 EXPECT_FALSE(exists);
                 rec->row = Row({1, "a"});
                 rec->counter = 1;
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 1);
  // Present + kPut: replaces.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool exists) {
                 EXPECT_TRUE(exists);
                 rec->counter++;
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.Get(Row({1}))->counter, 2);
  // Present + kErase: removes.
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool) {
                 return Table::RmwAction::kErase;
               }).ok());
  EXPECT_FALSE(t.Contains(Row({1})));
}

TEST(TableTest, RmwMaintainsIndexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool) {
                 rec->row = Row({1, "a"});
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 1u);
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record* rec, bool) {
                 rec->row = Row({1, "b"});
                 return Table::RmwAction::kPut;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"a"})), 0u);
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 1u);
  ASSERT_TRUE(t.Rmw(Row({1}), [](Record*, bool) {
                 return Table::RmwAction::kErase;
               }).ok());
  EXPECT_EQ(t.GetIndex("by_val")->Count(Row({"b"})), 0u);
}

// --- ForEach action consistency ---------------------------------------------------

// Regression test: ForEach used to alias FuzzyScan, which releases shard
// locks between shards — a concurrent writer could then produce a *torn*
// view matching no prefix of the action sequence. The writer below keeps a
// cross-shard invariant: each round first adds +1 to every "credit" record,
// then -1 to every "debit" record, so after any prefix of single-record
// actions sum(counters) ∈ [0, kPairs]. A fuzzy view can miss a credit
// increment but catch the matching debit decrement (negative sum) or see
// extra credits from a later round (sum > kPairs); an action-consistent
// ForEach pass never can.
TEST(TableTest, ForEachIsActionConsistentUnderConcurrentWriter) {
  constexpr int64_t kPairs = 16;
  Table t(1, "t", TwoColSchema());
  // Even ids are credits, odd ids debits; ids spread over all shards.
  for (int64_t i = 0; i < 2 * kPairs; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, i % 2 == 0 ? "credit" : "debit")).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int64_t i = 0; i < 2 * kPairs; i += 2) {
        ASSERT_TRUE(t.Mutate(Row({i}), [](Record* rec) {
                       rec->counter++;
                       return true;
                     }).ok());
      }
      for (int64_t i = 1; i < 2 * kPairs; i += 2) {
        ASSERT_TRUE(t.Mutate(Row({i}), [](Record* rec) {
                       rec->counter--;
                       return true;
                     }).ok());
      }
    }
  });
  for (int pass = 0; pass < 400; ++pass) {
    int64_t sum = 0;
    size_t seen = 0;
    t.ForEach([&](const Record& rec) {
      sum += rec.counter;
      seen++;
      // Hand the writer the CPU mid-scan: a shard-at-a-time fuzzy scan tears
      // here, an all-shards-locked pass cannot.
      std::this_thread::yield();
    });
    EXPECT_EQ(seen, static_cast<size_t>(2 * kPairs));
    EXPECT_GE(sum, 0) << "torn view: caught a debit without its credit";
    EXPECT_LE(sum, kPairs) << "torn view: caught credits of a later round";
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// --- Batch inserts and per-shard snapshots (population pipeline) ------------------

TEST(TableBatchTest, InsertBatchGroupsAcrossShardsAndMaintainsIndexes) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/4);
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  // Keys spread across all shards; a shared index value exercises the
  // amortized index pass.
  std::vector<Record> batch;
  for (int64_t i = 0; i < 64; ++i) {
    batch.push_back(Rec(i, i % 2 == 0 ? "even" : "odd", /*lsn=*/10 + i));
  }
  auto stats = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 64u);
  EXPECT_EQ(stats->replaced, 0u);
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(t.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) {
    auto rec = t.Get(Row({i}));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->lsn, static_cast<Lsn>(10 + i));
  }
  SecondaryIndex* idx = t.GetIndex("by_val");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Count(Row({"even"})), 32u);
  EXPECT_EQ(idx->Count(Row({"odd"})), 32u);
}

TEST(TableBatchTest, InsertBatchToleratesDuplicatesFirstWins) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.Insert(Rec(1, "stored", 5)).ok());
  // Key 1 duplicates a stored record, key 2 duplicates within the batch:
  // the stored / first occurrence wins, exactly like an Insert loop that
  // ignores AlreadyExists.
  std::vector<Record> batch = {Rec(1, "late", 9), Rec(2, "first", 6),
                               Rec(2, "second", 7), Rec(3, "fresh", 8)};
  auto stats = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 2u);  // keys 2 and 3
  EXPECT_EQ(stats->skipped, 2u);
  EXPECT_EQ(t.Get(Row({1}))->row[1], Value("stored"));
  EXPECT_EQ(t.Get(Row({2}))->row[1], Value("first"));
  EXPECT_EQ(t.Get(Row({3}))->row[1], Value("fresh"));
}

TEST(TableBatchTest, UpsertBatchLsnGatedNewestWinsAndReindexes) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Insert(Rec(1, "old", 5)).ok());
  ASSERT_TRUE(t.Insert(Rec(2, "keep", 9)).ok());
  // Key 1: higher LSN replaces (and the index entry moves). Key 2: lower
  // LSN loses. Key 3: within-batch duplicate — the higher-LSN occurrence
  // wins regardless of order. Tie on key 2 at LSN 9 keeps the stored row.
  std::vector<Record> batch = {Rec(1, "new", 8), Rec(2, "late", 4),
                               Rec(3, "young", 3), Rec(3, "newest", 6),
                               Rec(2, "tie", 9)};
  auto stats = t.UpsertBatchLsnGated(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 1u);  // key 3
  EXPECT_EQ(stats->replaced, 1u);  // key 1
  EXPECT_EQ(stats->skipped, 3u);   // key 2 twice + key 3's in-batch loser
  EXPECT_EQ(t.Get(Row({1}))->row[1], Value("new"));
  EXPECT_EQ(t.Get(Row({1}))->lsn, 8u);
  EXPECT_EQ(t.Get(Row({2}))->row[1], Value("keep"));
  EXPECT_EQ(t.Get(Row({3}))->row[1], Value("newest"));
  SecondaryIndex* idx = t.GetIndex("by_val");
  EXPECT_EQ(idx->Count(Row({"old"})), 0u);  // replaced image de-indexed
  EXPECT_EQ(idx->Count(Row({"new"})), 1u);
  EXPECT_EQ(idx->Count(Row({"newest"})), 1u);
}

TEST(TableBatchTest, InBatchDuplicatesAcrossShardsFirstWins) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/4);
  Table reference(2, "ref", TwoColSchema(), /*num_shards=*/4);
  ASSERT_TRUE(t.CreateIndex("by_val", {"val"}).ok());
  ASSERT_TRUE(t.Insert(Rec(7, "stored")).ok());
  ASSERT_TRUE(reference.Insert(Rec(7, "stored")).ok());
  // Keys 0..15 land in every shard; each appears twice, the copies apart
  // in the batch, and key 7 is also stored already.
  std::vector<Record> batch;
  for (int64_t i = 0; i < 16; ++i) batch.push_back(Rec(i, "first"));
  for (int64_t i = 15; i >= 0; --i) batch.push_back(Rec(i, "second"));
  // The counts a loop of Insert calls ignoring AlreadyExists produces.
  size_t inserted = 0, skipped = 0;
  for (const Record& rec : batch) {
    const Status st = reference.Insert(rec);
    ASSERT_TRUE(st.ok() || st.IsAlreadyExists()) << st.ToString();
    (st.ok() ? inserted : skipped)++;
  }
  auto stats = t.InsertBatch(std::move(batch));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, inserted);
  EXPECT_EQ(stats->skipped, skipped);
  EXPECT_EQ(stats->replaced, 0u);
  EXPECT_EQ(stats->inserted, 15u);
  EXPECT_EQ(stats->skipped, 17u);
  EXPECT_EQ(morph::testing::SortedRows(t),
            morph::testing::SortedRows(reference));
  // Only the stored records are indexed: no loser left an entry behind.
  SecondaryIndex* idx = t.GetIndex("by_val");
  EXPECT_EQ(idx->Count(Row({"first"})), 15u);
  EXPECT_EQ(idx->Count(Row({"second"})), 0u);
  EXPECT_EQ(idx->Lookup(Row({"stored"})), std::vector<Row>{Row({7})});
  EXPECT_EQ(idx->num_entries(), t.size());
}

TEST(TableBatchTest, ReserveLeavesContentsAndLookupsUnchanged) {
  auto fill = [](Table* t) {
    ASSERT_TRUE(t->Insert(Rec(1000, "v0")).ok());
    for (int64_t b = 0; b < 4; ++b) {
      std::vector<Record> batch;
      for (int64_t i = b * 100; i < (b + 1) * 100; ++i) {
        batch.push_back(Rec(i, Numbered("v", i % 7), i + 1));
      }
      ASSERT_TRUE(t->InsertBatch(std::move(batch)).ok());
    }
  };
  Table plain(1, "plain", TwoColSchema());
  Table before(2, "before", TwoColSchema());
  Table after(3, "after", TwoColSchema());
  for (Table* t : {&plain, &before, &after}) {
    ASSERT_TRUE(t->CreateIndex("by_val", {"val"}).ok());
  }
  before.Reserve(10'000);
  fill(&plain);
  fill(&before);
  fill(&after);
  after.Reserve(10'000);
  after.Reserve(1);  // a smaller hint shrinks nothing
  const std::vector<Row> expected = morph::testing::SortedRows(plain);
  ASSERT_EQ(expected.size(), 401u);
  for (Table* t : {&before, &after}) {
    EXPECT_EQ(morph::testing::SortedRows(*t), expected) << t->name();
    for (int64_t v = 0; v < 7; ++v) {
      const Row key({Numbered("v", v)});
      EXPECT_EQ(morph::testing::Sorted(t->GetIndex("by_val")->Lookup(key)),
                morph::testing::Sorted(plain.GetIndex("by_val")->Lookup(key)))
          << t->name() << " " << key.ToString();
    }
    EXPECT_EQ(t->GetIndex("by_val")->num_entries(), t->size());
    for (int64_t i = 0; i < 400; ++i) {
      EXPECT_EQ(t->Get(Row({i}))->lsn, static_cast<Lsn>(i + 1));
    }
  }
}

// Indexes created while batches stream in: every record is indexed exactly
// once in each, whether the backfill scan saw it or the batch that stored
// it did. A creation that lands between a batch's index snapshot and its
// shard pass is the case the batch must repair; the pre-existing index
// makes that window as long as the batch's key extraction.
TEST(TableBatchTest, CreateIndexRacingInsertBatchIndexesEveryRecord) {
  constexpr int kWriters = 2;
  constexpr int kIndexes = 4;
  constexpr int64_t kBatchSize = 256;
  constexpr int64_t kMaxBatches = 200;  // per writer
  for (int round = 0; round < 5; ++round) {
    Table t(1, "t", TwoColSchema(), /*num_shards=*/8);
    ASSERT_TRUE(t.CreateIndex("existing", {"val"}).ok());
    std::atomic<bool> stop{false};
    std::atomic<int64_t> done{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int64_t b = 0; b < kMaxBatches && !stop.load(); ++b) {
          std::vector<Record> batch;
          const int64_t first = (w * kMaxBatches + b) * kBatchSize;
          for (int64_t i = first; i < first + kBatchSize; ++i) {
            batch.push_back(Rec(i, Numbered("v", i)));
          }
          EXPECT_TRUE(t.InsertBatch(std::move(batch)).ok());
          done.fetch_add(1);
        }
      });
    }
    while (done.load() < 2 + round) std::this_thread::yield();
    for (int k = 0; k < kIndexes; ++k) {
      ASSERT_TRUE(t.CreateIndex("new_" + std::to_string(k), {"val"}).ok());
    }
    stop.store(true);
    for (auto& w : writers) w.join();

    for (int k = 0; k < kIndexes; ++k) {
      SecondaryIndex* idx = t.GetIndex("new_" + std::to_string(k));
      EXPECT_EQ(idx->num_entries(), t.size()) << "round " << round;
      size_t missing = 0;
      t.ForEach([&](const Record& rec) {
        const std::vector<Row> pks = idx->Lookup(idx->KeyOf(rec.row));
        missing += pks != std::vector<Row>{Row({rec.row[0]})};
      });
      EXPECT_EQ(missing, 0u) << idx->name() << ", round " << round;
    }
  }
}

TEST(TableSnapshotShardTest, ShardsAreDisjointAndCoverTable) {
  Table t(1, "t", TwoColSchema(), /*num_shards=*/8);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v")).ok());
  }
  std::vector<Row> seen;
  for (size_t sh = 0; sh < t.num_shards(); ++sh) {
    for (const Record& rec : t.SnapshotShard(sh)) seen.push_back(rec.row);
  }
  // Every key exactly once across all shards: disjoint and covering.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  // Out-of-range shard index is an empty snapshot, not UB.
  EXPECT_TRUE(t.SnapshotShard(t.num_shards()).empty());
}

TEST(TableSnapshotShardTest, RecordsAreNeverTorn) {
  // The writer keeps both columns of an invariant in one record (counter ==
  // lsn); a snapshot taken under the shard mutex can be stale but never
  // torn, so the invariant must hold in every snapshotted record.
  Table t(1, "t", TwoColSchema(), /*num_shards=*/4);
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(t.Insert(Rec(i, "v", /*lsn=*/0)).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t round = 1;
    while (!stop.load(std::memory_order_acquire)) {
      for (int64_t i = 0; i < 32; ++i) {
        ASSERT_TRUE(t.Mutate(Row({i}), [&](Record* rec) {
                       rec->lsn = round;
                       rec->counter = static_cast<int64_t>(round);
                       return true;
                     }).ok());
      }
      round++;
    }
  });
  for (int pass = 0; pass < 300; ++pass) {
    for (size_t sh = 0; sh < t.num_shards(); ++sh) {
      for (const Record& rec : t.SnapshotShard(sh)) {
        EXPECT_EQ(static_cast<uint64_t>(rec.counter), rec.lsn)
            << "torn record: lsn and counter written together must be read "
               "together";
      }
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(TableTest, CompositeKeys) {
  auto schema = *Schema::Make({{"a", ValueType::kInt64, false},
                               {"b", ValueType::kString, false},
                               {"v", ValueType::kInt64, true}},
                              {"a", "b"});
  Table t(1, "t", std::move(schema));
  Record r1;
  r1.row = Row({1, "x", 7});
  ASSERT_TRUE(t.Insert(r1).ok());
  Record r2;
  r2.row = Row({1, "y", 8});
  ASSERT_TRUE(t.Insert(r2).ok());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.Contains(Row({1, "x"})));
  EXPECT_TRUE(t.Contains(Row({1, "y"})));
  EXPECT_FALSE(t.Contains(Row({1, "z"})));
}

}  // namespace
}  // namespace morph::storage
