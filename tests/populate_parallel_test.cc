#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/relops.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/hsplit.h"
#include "transform/merge.h"
#include "transform/split.h"

namespace morph::transform {
namespace {

using morph::testing::Numbered;
using morph::testing::Sorted;
using morph::testing::SortedRows;
using morph::testing::StripedWriters;
using morph::testing::WithCommittedUpdates;

// ---------------------------------------------------------------------------
// Quiescent differential: the parallel population pipeline must be
// *byte-identical* to its serial (workers = 0) case — full record state, not
// just rows. Every scenario below is deterministic, so any divergence across
// worker counts is a pipeline bug (partitioning, batching, merge rule or
// index maintenance), not a fuzzy anomaly.
// ---------------------------------------------------------------------------

/// Full record state of a table — row image, LSN, counter and consistency
/// flag — as a sorted string vector for exact comparison and readable diffs.
std::vector<std::string> DumpRecords(const storage::Table& table) {
  std::vector<std::string> out;
  table.ForEach([&](const storage::Record& rec) {
    out.push_back(rec.row.ToString() + " lsn=" + std::to_string(rec.lsn) +
                  " ctr=" + std::to_string(rec.counter) +
                  " flag=" + (rec.consistent ? "C" : "U"));
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts that each named secondary index is exactly consistent with the
/// table: every record is findable under its own index key, and the index
/// holds no extra entries.
void ExpectIndexesConsistent(const storage::Table& table,
                             const std::vector<std::string>& index_names) {
  const std::vector<size_t>& key_cols = table.schema().key_indices();
  for (const std::string& name : index_names) {
    SCOPED_TRACE("index " + name);
    storage::SecondaryIndex* idx = table.GetIndex(name);
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->num_entries(), table.size());
    table.ForEach([&](const storage::Record& rec) {
      const Row pk = rec.row.Project(key_cols);
      const std::vector<Row> hits = idx->Lookup(idx->KeyOf(rec.row));
      EXPECT_NE(std::find(hits.begin(), hits.end(), pk), hits.end())
          << rec.row.ToString() << " missing from index " << name;
    });
  }
}

/// Deterministic LSN scrambler: population winners (max-LSN contributor,
/// upsert gate) must not simply be "the last row inserted".
Lsn ScrambledLsn(int64_t i) {
  return static_cast<Lsn>(1 + (static_cast<uint64_t>(i) * 2654435761u) % 100003);
}

Status InsertWithLsn(storage::Table* t, Row row, Lsn lsn) {
  storage::Record rec;
  rec.row = std::move(row);
  rec.lsn = lsn;
  return t->Insert(std::move(rec));
}

// One dump per target table.
using TargetDumps = std::vector<std::vector<std::string>>;

TargetDumps RunFojPopulate(size_t workers) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  // Adversarial join shape: NULL join values on both sides (join nothing,
  // emit padding), R rows with no partner (jv < 120), S rows with no partner
  // (jv >= 240), and duplicated S join values (many-to-many fan-out).
  for (int64_t i = 0; i < 1000; ++i) {
    const Value jv = (i % 13 == 0) ? Value() : Value((i * 7) % 240);
    EXPECT_TRUE(
        InsertWithLsn(r.get(), Row({i, jv, Numbered("p", i % 5)}),
                      ScrambledLsn(i))
            .ok());
  }
  for (int64_t i = 0; i < 300; ++i) {
    const Value jv = (i % 11 == 0) ? Value() : Value((i % 200) + 120);
    EXPECT_TRUE(
        InsertWithLsn(s.get(), Row({i, jv, Numbered("s", i % 3)}),
                      ScrambledLsn(i + 5000))
            .ok());
  }
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t_out";
  auto rules = std::shared_ptr<FojRules>(
      std::move(FojRules::Make(&db, spec)).ValueOrDie());
  EXPECT_TRUE(rules->Prepare().ok());
  PopulateConfig config;
  config.workers = workers;
  rules->set_populate_config(config);
  EXPECT_TRUE(rules->InitialPopulate().ok());
  // The batched insert path must leave the target's four secondary indexes
  // exactly consistent in every worker configuration.
  ExpectIndexesConsistent(*rules->target(),
                          {"r_key", "s_key", "r_join", "s_join"});
  return {DumpRecords(*rules->target())};
}

TargetDumps RunSplitPopulate(size_t workers) {
  engine::Database db;
  auto t = *db.CreateTable("t", morph::testing::TSplitSchema());
  // 400 split groups; in groups with zip % 10 == 3 the city disagrees
  // across contributors, so §5.3 must flag the S record U — and the image
  // stored must be the max-LSN contributor's, which the scrambled LSNs
  // decouple from insertion order.
  for (int64_t i = 0; i < 2000; ++i) {
    const int64_t zip = i % 400;
    const std::string city = (zip % 10 == 3) ? Numbered("c", i)
                                             : Numbered("c", zip);
    EXPECT_TRUE(InsertWithLsn(t.get(),
                              Row({i, zip, city, Numbered("b", i)}),
                              ScrambledLsn(i))
                    .ok());
  }
  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  spec.assume_consistent = false;
  auto rules = std::move(SplitRules::Make(&db, spec)).ValueOrDie();
  EXPECT_TRUE(rules->Prepare().ok());
  PopulateConfig config;
  config.workers = workers;
  rules->set_populate_config(config);
  EXPECT_TRUE(rules->InitialPopulate().ok());
  return {DumpRecords(*rules->r_table()), DumpRecords(*rules->s_table())};
}

TargetDumps RunHsplitPopulate(size_t workers) {
  engine::Database db;
  auto t = *db.CreateTable("t", morph::testing::TSplitSchema());
  for (int64_t i = 0; i < 1500; ++i) {
    EXPECT_TRUE(InsertWithLsn(t.get(),
                              Row({i, (i * 13) % 400, "c", "b"}),
                              ScrambledLsn(i))
                    .ok());
  }
  HorizontalSplitSpec spec;
  spec.t_table = "t";
  spec.predicate = {"zip", RoutePredicate::Comparator::kLt, Value(200)};
  auto rules = std::move(HorizontalSplitRules::Make(&db, spec)).ValueOrDie();
  EXPECT_TRUE(rules->Prepare().ok());
  PopulateConfig config;
  config.workers = workers;
  rules->set_populate_config(config);
  EXPECT_TRUE(rules->InitialPopulate().ok());
  return {DumpRecords(*rules->r_table()), DumpRecords(*rules->s_table())};
}

TargetDumps RunMergePopulate(size_t workers) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::RSchema());
  // Deliberately *overlapping* keys — the transient state fuzzy anomalies
  // produce — so the LSN gate decides every winner: keys 400..799 exist in
  // both tables with different LSNs, and keys 600..699 carry *equal* LSNs
  // on both sides (the tie must deterministically keep the R copy, as the
  // serial two-scan order did).
  for (int64_t i = 0; i < 800; ++i) {
    const Lsn lsn = (i >= 600 && i < 700) ? static_cast<Lsn>(7'000'000 + i)
                                          : ScrambledLsn(i);
    EXPECT_TRUE(InsertWithLsn(r.get(), Row({i, i % 50, "fromR"}), lsn).ok());
  }
  for (int64_t i = 400; i < 1200; ++i) {
    const Lsn lsn = (i >= 600 && i < 700) ? static_cast<Lsn>(7'000'000 + i)
                                          : ScrambledLsn(i + 9000);
    EXPECT_TRUE(InsertWithLsn(s.get(), Row({i, i % 50, "fromS"}), lsn).ok());
  }
  MergeSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.target_table = "t_out";
  auto rules = std::move(MergeRules::Make(&db, spec)).ValueOrDie();
  EXPECT_TRUE(rules->Prepare().ok());
  PopulateConfig config;
  config.workers = workers;
  rules->set_populate_config(config);
  EXPECT_TRUE(rules->InitialPopulate().ok());
  return {DumpRecords(*rules->target())};
}

void RunDifferential(const std::function<TargetDumps(size_t)>& run) {
  const TargetDumps baseline = run(0);
  for (const auto& dump : baseline) EXPECT_FALSE(dump.empty());
  for (size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(run(workers), baseline);
  }
}

TEST(PopulateDifferentialTest, FojByteIdenticalAcrossWorkerCounts) {
  RunDifferential(RunFojPopulate);
}
TEST(PopulateDifferentialTest, SplitByteIdenticalAcrossWorkerCounts) {
  RunDifferential(RunSplitPopulate);
}
TEST(PopulateDifferentialTest, HsplitByteIdenticalAcrossWorkerCounts) {
  RunDifferential(RunHsplitPopulate);
}
TEST(PopulateDifferentialTest, MergeByteIdenticalAcrossWorkerCounts) {
  RunDifferential(RunMergePopulate);
}

// ---------------------------------------------------------------------------
// Fuzzy convergence: concurrent writers commit throughout a full
// transformation whose initial population runs with parallel workers. The
// population image is transactionally inconsistent by design (§3.2) — the
// claim under test is that log propagation converges every anomaly, worker
// count notwithstanding: the final target equals the relational oracle of
// the final committed sources.
// ---------------------------------------------------------------------------

/// Runs `coord` to completion while `writers` commit against the sources.
/// Synchronization is held until the writers stop so the traffic overlaps
/// the populate and propagation phases but never races the switch-over.
void DriveTransform(TransformCoordinator* coord,
                    std::vector<StripedWriters*> writers) {
  for (StripedWriters* w : writers) w->Start();
  for (StripedWriters* w : writers) ASSERT_TRUE(w->WaitForCommits(10));
  coord->SetSyncHold(true);
  auto fut = std::async(std::launch::async, [&] { return coord->Run(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (coord->phase() < TransformCoordinator::Phase::kPropagating &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (StripedWriters* w : writers) w->StopAndJoin();
  coord->SetSyncHold(false);
  auto run = fut.get();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->completed) << run->abort_reason;
}

TransformConfig ConvergenceConfig(size_t workers) {
  TransformConfig config;
  config.strategy = SyncStrategy::kNonBlockingAbort;
  config.drop_sources = false;
  config.max_duration_micros = 30'000'000;
  // Convergence, not lag policy, is under test (see transform_concurrency
  // _test for the rationale; parallel ctest runs starve the coordinator).
  config.lag_iterations = 100'000;
  config.populate_workers = workers;
  return config;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> keys(n);
  for (int64_t i = 0; i < n; ++i) keys[i] = i;
  return keys;
}

void RunFojConvergence(size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  std::vector<Row> r_rows, s_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    r_rows.push_back(Row({i, i % 300, "p"}));
  }
  for (int64_t i = 0; i < 300; ++i) s_rows.push_back(Row({i, i, "s"}));
  ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
  ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());
  // Writers on both sides: R payload updates race the probe scan, S info
  // updates race the build scan — the image may land in the target either
  // pre- or post-update and the propagation rules must converge both.
  StripedWriters r_writers(&db, r.get(), Iota(2000), /*value_column=*/2);
  StripedWriters s_writers(&db, s.get(), Iota(300), /*value_column=*/2);

  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t_out";
  auto rules = std::shared_ptr<FojRules>(
      std::move(FojRules::Make(&db, spec)).ValueOrDie());
  TransformCoordinator coord(&db, rules, ConvergenceConfig(workers));
  DriveTransform(&coord, {&r_writers, &s_writers});

  std::vector<Row> final_r, final_s;
  r->ForEach([&](const storage::Record& rec) { final_r.push_back(rec.row); });
  s->ForEach([&](const storage::Record& rec) { final_s.push_back(rec.row); });
  EXPECT_EQ(SortedRows(*rules->target()),
            Sorted(FullOuterJoin(final_r, 1, final_s, 1, 3, 3)));
  ExpectIndexesConsistent(*rules->target(),
                          {"r_key", "s_key", "r_join", "s_join"});
}

void RunSplitConvergence(size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  engine::Database db;
  auto t = *db.CreateTable("t", morph::testing::TSplitSchema());
  std::vector<Row> t_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    const int64_t zip = i % 250;
    t_rows.push_back(Row({i, zip, Numbered("c", zip), "b"}));
  }
  ASSERT_TRUE(db.BulkLoad(t.get(), t_rows).ok());
  StripedWriters writers(&db, t.get(), Iota(2000), /*value_column=*/3);

  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  auto rules = std::shared_ptr<SplitRules>(
      std::move(SplitRules::Make(&db, spec)).ValueOrDie());
  TransformCoordinator coord(&db, rules, ConvergenceConfig(workers));
  DriveTransform(&coord, {&writers});

  std::vector<Row> final_t;
  t->ForEach([&](const storage::Record& rec) { final_t.push_back(rec.row); });
  const SplitResult oracle = Split(final_t, {0, 1, 3}, {1, 2}, {0});
  EXPECT_EQ(SortedRows(*rules->r_table()), Sorted(oracle.r_rows));
  // S must match row *and* reference counter (flags are all-C in §5.2 mode).
  std::vector<std::string> expected_s, actual_s;
  for (size_t i = 0; i < oracle.s_rows.size(); ++i) {
    expected_s.push_back(oracle.s_rows[i].ToString() +
                         " ctr=" + std::to_string(oracle.s_counters[i]));
  }
  rules->s_table()->ForEach([&](const storage::Record& rec) {
    actual_s.push_back(rec.row.ToString() +
                       " ctr=" + std::to_string(rec.counter));
    EXPECT_TRUE(rec.consistent);
  });
  std::sort(expected_s.begin(), expected_s.end());
  std::sort(actual_s.begin(), actual_s.end());
  EXPECT_EQ(actual_s, expected_s);
}

void RunHsplitConvergence(size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  engine::Database db;
  auto t = *db.CreateTable("t", morph::testing::TSplitSchema());
  std::vector<Row> t_rows;
  for (int64_t i = 0; i < 2000; ++i) {
    t_rows.push_back(Row({i, (i * 13) % 400, "c", "b"}));
  }
  ASSERT_TRUE(db.BulkLoad(t.get(), t_rows).ok());
  StripedWriters writers(&db, t.get(), Iota(2000), /*value_column=*/3);

  HorizontalSplitSpec spec;
  spec.t_table = "t";
  spec.predicate = {"zip", RoutePredicate::Comparator::kLt, Value(200)};
  auto rules = std::shared_ptr<HorizontalSplitRules>(
      std::move(HorizontalSplitRules::Make(&db, spec)).ValueOrDie());
  TransformCoordinator coord(&db, rules, ConvergenceConfig(workers));
  DriveTransform(&coord, {&writers});

  std::vector<Row> expect_r, expect_s;
  t->ForEach([&](const storage::Record& rec) {
    (rec.row[1] < Value(200) ? expect_r : expect_s).push_back(rec.row);
  });
  EXPECT_EQ(SortedRows(*rules->r_table()), Sorted(expect_r));
  EXPECT_EQ(SortedRows(*rules->s_table()), Sorted(expect_s));
}

void RunMergeConvergence(size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::RSchema());
  std::vector<Row> r_rows, s_rows;
  std::vector<int64_t> r_keys, s_keys;
  for (int64_t i = 0; i < 1000; ++i) {
    r_rows.push_back(Row({i, i % 50, "r"}));
    r_keys.push_back(i);
  }
  for (int64_t i = 1000; i < 2000; ++i) {
    s_rows.push_back(Row({i, i % 50, "s"}));
    s_keys.push_back(i);
  }
  ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
  ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());
  StripedWriters r_writers(&db, r.get(), r_keys, /*value_column=*/2);
  StripedWriters s_writers(&db, s.get(), s_keys, /*value_column=*/2);

  MergeSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.target_table = "t_out";
  auto rules = std::shared_ptr<MergeRules>(
      std::move(MergeRules::Make(&db, spec)).ValueOrDie());
  TransformCoordinator coord(&db, rules, ConvergenceConfig(workers));
  DriveTransform(&coord, {&r_writers, &s_writers});

  std::vector<Row> expect;
  r->ForEach([&](const storage::Record& rec) { expect.push_back(rec.row); });
  s->ForEach([&](const storage::Record& rec) { expect.push_back(rec.row); });
  EXPECT_EQ(SortedRows(*rules->target()), Sorted(expect));
}

TEST(PopulateConvergenceTest, FojUnderConcurrentWriters) {
  for (size_t workers : {0u, 2u, 4u}) RunFojConvergence(workers);
}
TEST(PopulateConvergenceTest, SplitUnderConcurrentWriters) {
  for (size_t workers : {0u, 2u, 4u}) RunSplitConvergence(workers);
}
TEST(PopulateConvergenceTest, HsplitUnderConcurrentWriters) {
  for (size_t workers : {0u, 2u, 4u}) RunHsplitConvergence(workers);
}
TEST(PopulateConvergenceTest, MergeUnderConcurrentWriters) {
  for (size_t workers : {0u, 2u, 4u}) RunMergeConvergence(workers);
}

}  // namespace
}  // namespace morph::transform
