#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/relops.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/hsplit.h"
#include "transform/split.h"

namespace morph::transform {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;
using morph::testing::StripedWriters;
using morph::testing::WithCommittedUpdates;

// The crash-recovery matrix: for every failpoint the transformation path of
// an operator actually crosses (discovered by a tracing run, not hand-listed,
// so a newly added site is covered automatically) × every SyncStrategy, run
// the transformation under concurrent writer traffic, kill the coordinator
// at the site, and verify the ARIES-lite recovery contract:
//
//   (a) restart recovery rebuilds the source tables to exactly the serial
//       oracle (committed writer updates present, the loser rolled back);
//   (b) a second Restart is a strict no-op (idempotence);
//   (c) the transformation can simply be re-run to completion and produces
//       the relational-operator oracle of the recovered sources — a crash
//       mid-transformation is equivalent to an abort (paper §6).
//
// The durable WAL is the only state that survives a cell's "crash": the
// dying incarnation syncs its log and abandons the writer (SyncAndCrash),
// and the next incarnation is a fresh Database that recreates the source
// schemas (ids line up because creation order is fixed) and recovers
// through Recovery::RestartDurable.

/// Key reserved for the deterministic loser transaction; writers never
/// touch it, so the loser's lock acquisition cannot conflict.
constexpr int64_t kReservedKey = 1000;

/// Key reserved for the deterministic *straddler* transaction: begun (and
/// its update logged) before the transformation starts, still active at the
/// fuzzy mark, committed right after. Being in the mark's active snapshot
/// drags the propagation start below its update, so every cell replays at
/// least one source-table op through the apply path — pinning the
/// data-dependent "transform.propagate.apply" site on the deterministic
/// path regardless of writer timing.
constexpr int64_t kStraddlerKey = 1001;

/// Blocks until the coordinator has logged the fuzzy mark (entered
/// kPopulating) or the run ended first (e.g. an armed crash fired earlier).
void AwaitMarkOrEnd(const TransformCoordinator& coord,
                    std::future<Result<TransformStats>>& fut) {
  while (coord.phase() < TransformCoordinator::Phase::kPopulating &&
         fut.wait_for(std::chrono::milliseconds(0)) !=
             std::future_status::ready) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

struct Scenario {
  std::string name;
  /// Creates the source tables in a fixed order (table ids must line up
  /// across incarnations) and returns them.
  std::function<std::vector<std::shared_ptr<storage::Table>>(
      engine::Database*)>
      create_sources;
  /// Initial rows, parallel to create_sources' result. The writer table
  /// additionally holds kReservedKey.
  std::vector<std::vector<Row>> initial_rows;
  size_t writer_table = 0;
  size_t writer_column = 0;
  std::vector<int64_t> writer_keys;
  std::function<std::shared_ptr<OperatorRules>(engine::Database*)> make_rules;
  /// Expected target images (by table name) for given source images.
  std::function<std::map<std::string, std::vector<Row>>(
      const std::vector<std::vector<Row>>&)>
      oracle;
};

Scenario FojScenario() {
  Scenario sc;
  sc.name = "foj";
  sc.create_sources = [](engine::Database* db) {
    std::vector<std::shared_ptr<storage::Table>> out;
    out.push_back(*db->CreateTable("r", morph::testing::RSchema()));
    out.push_back(*db->CreateTable("s", morph::testing::SSchema()));
    return out;
  };
  std::vector<Row> r_rows;
  for (int i = 0; i < 60; ++i) {
    r_rows.push_back(Row({i, static_cast<int64_t>(i % 12), "p"}));
    sc.writer_keys.push_back(i);
  }
  r_rows.push_back(Row({kReservedKey, 5, "z"}));
  r_rows.push_back(Row({kStraddlerKey, 5, "z"}));
  std::vector<Row> s_rows;
  for (int i = 0; i < 12; ++i) s_rows.push_back(Row({i, i, "s"}));
  sc.initial_rows = {r_rows, s_rows};
  sc.writer_table = 0;
  sc.writer_column = 2;  // payload
  sc.make_rules = [](engine::Database* db) -> std::shared_ptr<OperatorRules> {
    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t_out";
    auto rules = FojRules::Make(db, spec);
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    return std::shared_ptr<OperatorRules>(std::move(rules).ValueOrDie());
  };
  sc.oracle = [](const std::vector<std::vector<Row>>& sources) {
    std::map<std::string, std::vector<Row>> out;
    out["t_out"] = FullOuterJoin(sources[0], 1, sources[1], 1, 3, 3);
    return out;
  };
  return sc;
}

std::vector<Row> SplitSourceRows(std::vector<int64_t>* writer_keys) {
  std::vector<Row> t_rows;
  for (int i = 0; i < 60; ++i) {
    const int64_t zip = 7000 + i % 8;
    t_rows.push_back(Row({i, zip, "city" + std::to_string(zip), "b"}));
    if (writer_keys != nullptr) writer_keys->push_back(i);
  }
  t_rows.push_back(Row({kReservedKey, 7000, "city7000", "z"}));
  t_rows.push_back(Row({kStraddlerKey, 7000, "city7000", "z"}));
  return t_rows;
}

Scenario VSplitScenario() {
  Scenario sc;
  sc.name = "vsplit";
  sc.create_sources = [](engine::Database* db) {
    std::vector<std::shared_ptr<storage::Table>> out;
    out.push_back(*db->CreateTable("t", morph::testing::TSplitSchema()));
    return out;
  };
  sc.initial_rows = {SplitSourceRows(&sc.writer_keys)};
  sc.writer_table = 0;
  sc.writer_column = 3;  // body: not projected into S, so the split stays
                         // FD-consistent under writer traffic
  sc.make_rules = [](engine::Database* db) -> std::shared_ptr<OperatorRules> {
    SplitSpec spec;
    spec.t_table = "t";
    spec.r_columns = {"id", "zip", "body"};
    spec.s_columns = {"zip", "city"};
    spec.split_columns = {"zip"};
    auto rules = SplitRules::Make(db, spec);
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    return std::shared_ptr<OperatorRules>(std::move(rules).ValueOrDie());
  };
  sc.oracle = [](const std::vector<std::vector<Row>>& sources) {
    auto split = Split(sources[0], {0, 1, 3}, {1, 2}, {0});
    std::map<std::string, std::vector<Row>> out;
    out["r_split"] = split.r_rows;
    out["s_split"] = split.s_rows;
    return out;
  };
  return sc;
}

Scenario HSplitScenario() {
  Scenario sc;
  sc.name = "hsplit";
  sc.create_sources = [](engine::Database* db) {
    std::vector<std::shared_ptr<storage::Table>> out;
    out.push_back(*db->CreateTable("t", morph::testing::TSplitSchema()));
    return out;
  };
  sc.initial_rows = {SplitSourceRows(&sc.writer_keys)};
  sc.writer_table = 0;
  sc.writer_column = 3;  // body: does not move rows across the predicate
  sc.make_rules = [](engine::Database* db) -> std::shared_ptr<OperatorRules> {
    HorizontalSplitSpec spec;
    spec.t_table = "t";
    spec.predicate.column = "zip";
    spec.predicate.comparator = RoutePredicate::Comparator::kLt;
    spec.predicate.operand = Value(static_cast<int64_t>(7004));
    auto rules = HorizontalSplitRules::Make(db, spec);
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    return std::shared_ptr<OperatorRules>(std::move(rules).ValueOrDie());
  };
  sc.oracle = [](const std::vector<std::vector<Row>>& sources) {
    std::map<std::string, std::vector<Row>> out;
    for (const Row& row : sources[0]) {
      (row[1].AsInt64() < 7004 ? out["t_match"] : out["t_rest"])
          .push_back(row);
    }
    return out;
  };
  return sc;
}

TransformConfig CellConfig(SyncStrategy strategy, size_t tablets = 1) {
  TransformConfig config;
  config.strategy = strategy;
  config.tablets = tablets;
  config.drop_sources = false;  // recovery recreates sources; keep symmetric
  // Bounds the whole run, the drain, and — critically — how long a writer
  // stays parked at the blocking gate when a crash cell kills the
  // coordinator with the gate up: joining those writers costs up to this
  // long, so keep it small but comfortably above a clean run's duration.
  config.max_duration_micros = 3'000'000;
  return config;
}

/// The scenario's rules with `populate_workers` population threads. The
/// rows that crash at a site's Nth hit pin one worker unless they test the
/// parallel shape, so the hit order, and with it the enumeration, is the
/// same in every run.
std::shared_ptr<OperatorRules> MakeRules(const Scenario& sc,
                                         engine::Database* db,
                                         size_t populate_workers = 1) {
  auto rules = sc.make_rules(db);
  PopulateConfig populate;
  populate.workers = populate_workers;
  rules->set_populate_config(populate);
  return rules;
}

/// Runs the transformation once, cleanly, with tracing on, and returns the
/// transform-path failpoints this (operator, strategy) pair crosses.
std::vector<std::string> EnumerateSites(const Scenario& sc,
                                        SyncStrategy strategy,
                                        size_t populate_workers,
                                        size_t tablets) {
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();
  fps.SetTracing(true);

  engine::DatabaseOptions db_options;
  db_options.table_tablets = tablets;
  engine::Database db(db_options);
  auto sources = sc.create_sources(&db);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(db.BulkLoad(sources[i].get(), sc.initial_rows[i]).ok());
  }
  StripedWriters writers(&db, sources[sc.writer_table].get(), sc.writer_keys,
                         sc.writer_column);
  writers.Start();
  EXPECT_TRUE(writers.WaitForCommits(5));

  auto rules = MakeRules(sc, &db, populate_workers);
  TransformCoordinator coord(&db, rules, CellConfig(strategy, tablets));
  auto straddler = db.Begin();
  EXPECT_TRUE(db.Update(straddler, sources[sc.writer_table].get(),
                        Row({kStraddlerKey}),
                        {{sc.writer_column, Value("straddle")}})
                  .ok());
  auto fut = std::async(std::launch::async, [&] { return coord.Run(); });
  AwaitMarkOrEnd(coord, fut);
  // Under non-blocking abort a fast run can doom the straddler (it is a
  // source-lock holder at switch-over) before this commit lands; its
  // update was logged before the mark either way, which is all the site
  // enumeration needs.
  (void)db.Commit(straddler);
  auto run = fut.get();
  writers.StopAndJoin();
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) {
    EXPECT_TRUE(run->completed) << run->abort_reason;
  }

  fps.SetTracing(false);
  auto sites = fps.HitSitesMatching("transform.");
  fps.ResetCounters();
  return sites;
}

/// One matrix cell: crash at `site`, recover, verify (a)-(c) above.
void RunCrashCell(const Scenario& sc, SyncStrategy strategy,
                  size_t populate_workers, size_t tablets,
                  const std::string& site) {
  SCOPED_TRACE(sc.name + " / " + std::string(SyncStrategyToString(strategy)) +
               " / populate_workers=" + std::to_string(populate_workers) +
               " / tablets=" + std::to_string(tablets) + " / crash at " +
               site);
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();

  // One directory per row (test case) and site.
  const morph::testing::TestWalDir wal_dir(site);
  const wal::WalOptions wopts = wal_dir.options();

  // --- Phase A: run under traffic, crash at the site. ---------------------
  std::vector<std::vector<Row>> expected_sources;
  {
    engine::DatabaseOptions db_options;
    db_options.table_tablets = tablets;
    engine::Database db(db_options);
    ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
    auto sources = sc.create_sources(&db);
    for (size_t i = 0; i < sources.size(); ++i) {
      ASSERT_TRUE(db.BulkLoad(sources[i].get(), sc.initial_rows[i]).ok());
    }
    StripedWriters writers(&db, sources[sc.writer_table].get(), sc.writer_keys,
                           sc.writer_column);
    writers.Start();
    ASSERT_TRUE(writers.WaitForCommits(5));

    auto rules = MakeRules(sc, &db, populate_workers);
    TransformCoordinator coord(&db, rules, CellConfig(strategy, tablets));
    auto straddler = db.Begin();
    ASSERT_TRUE(db.Update(straddler, sources[sc.writer_table].get(),
                          Row({kStraddlerKey}),
                          {{sc.writer_column, Value("straddle")}})
                    .ok());
    fps.Crash(site);
    auto fut = std::async(std::launch::async, [&] { return coord.Run(); });
    // Commit the straddler once the mark (and with it the active snapshot
    // containing the straddler) is logged; as a source-lock holder it is
    // never parked at the blocking gate, so this cannot deadlock whichever
    // phase the armed crash leaves behind.
    AwaitMarkOrEnd(coord, fut);
    const bool straddler_committed = db.Commit(straddler).ok();
    bool crashed = false;
    try {
      auto run = fut.get();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    } catch (const CrashException& e) {
      crashed = true;
      EXPECT_EQ(e.point(), site);
    }
    fps.DisableAll();
    writers.StopAndJoin();
    // The dead coordinator's hook must not gate the post-crash loser (a real
    // next incarnation would not have it registered either).
    db.ClearTransformHook();

    // Every enumerated site is on the deterministic path of its strategy, so
    // the armed crash must actually have fired.
    ASSERT_TRUE(crashed) << "site " << site << " was not reached";
    EXPECT_GE(fps.fires(site), 1u);

    // What recovery must rebuild: initial rows + the writers' committed
    // updates (each thread owns disjoint keys; maps merge exactly).
    const auto committed = writers.Committed();
    for (size_t i = 0; i < sources.size(); ++i) {
      expected_sources.push_back(
          i == sc.writer_table
              ? WithCommittedUpdates(sc.initial_rows[i], sc.writer_column,
                                     committed)
              : sc.initial_rows[i]);
    }
    if (straddler_committed) {
      for (Row& row : expected_sources[sc.writer_table]) {
        if (row[0] == Value(kStraddlerKey)) {
          row[sc.writer_column] = Value("straddle");
        }
      }
    }

    // One deterministic loser: an update left uncommitted at the crash
    // point. Recovery must roll it back.
    auto loser = db.Begin();
    ASSERT_TRUE(db.Update(loser, sources[sc.writer_table].get(),
                          Row({kReservedKey}),
                          {{sc.writer_column, Value("loser")}})
                    .ok());
    morph::testing::SyncAndCrash(db.wal());
  }

  // --- Phase B: fresh incarnation, recover, verify, re-run. ---------------
  engine::DatabaseOptions db2_options;
  db2_options.table_tablets = tablets;
  engine::Database db2(db2_options);
  auto sources2 = sc.create_sources(&db2);
  auto stats1 =
      engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats1.ok()) << stats1.status().ToString();
  EXPECT_EQ(stats1->losers, 1u);
  for (size_t i = 0; i < sources2.size(); ++i) {
    EXPECT_EQ(SortedRows(*sources2[i]), Sorted(expected_sources[i]))
        << "source " << sources2[i]->name();
  }
  // The half-built targets belong to the dead incarnation: they are not
  // logged, so they simply do not exist after restart.
  for (const auto& [name, rows] : sc.oracle(expected_sources)) {
    EXPECT_EQ(db2.catalog()->GetByName(name), nullptr) << name;
  }

  // Idempotence: a second restart finds no losers, undoes nothing, appends
  // nothing, changes nothing.
  const size_t wal_size = db2.wal()->size();
  auto stats2 = engine::Recovery::Restart(db2.wal(), db2.catalog());
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(stats2->losers, 0u);
  EXPECT_EQ(stats2->undone, 0u);
  EXPECT_EQ(db2.wal()->size(), wal_size);
  for (size_t i = 0; i < sources2.size(); ++i) {
    EXPECT_EQ(SortedRows(*sources2[i]), Sorted(expected_sources[i]));
  }

  // Crash == abort: the transformation is simply runnable again — staggered
  // again when the cell is a tablets row, so a half-staggered crash re-runs
  // the per-tablet pipeline from scratch — and produces the relational
  // oracle of the recovered sources.
  auto rules2 = MakeRules(sc, &db2);
  TransformCoordinator coord2(&db2, rules2, CellConfig(strategy, tablets));
  auto run2 = coord2.Run();
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ASSERT_TRUE(run2->completed) << run2->abort_reason;
  const auto expected_targets = sc.oracle(expected_sources);
  for (const auto& target : rules2->Targets()) {
    auto it = expected_targets.find(target->name());
    ASSERT_NE(it, expected_targets.end()) << target->name();
    EXPECT_EQ(SortedRows(*target), Sorted(it->second)) << target->name();
  }
}

void RunMatrixRow(const Scenario& sc, SyncStrategy strategy,
                  size_t populate_workers = 1, size_t tablets = 1) {
  const auto sites = EnumerateSites(sc, strategy, populate_workers, tablets);
  ASSERT_FALSE(sites.empty());
  // Sanity-pin the coverage: the phase boundaries every strategy crosses.
  // Every run is a per-tablet sequence (the whole table is one tablet), so
  // every row crosses the tablet seams and both sites of the latched pass.
  const std::vector<const char*> expected_sites = {
      "transform.prepare.before",      "transform.fuzzy.begin",
      "transform.populate.batch",      "transform.propagate.iteration",
      "transform.tablet.boundary",     "transform.tablet.sync",
      "transform.sync.latched",        "transform.drain.iteration",
      "transform.finalize.before_drop"};
  for (const char* expected : expected_sites) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "tracing run did not cross " << expected;
  }
  for (const std::string& site : sites) {
    RunCrashCell(sc, strategy, populate_workers, tablets, site);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, FojBlockingCommit) {
  RunMatrixRow(FojScenario(), SyncStrategy::kBlockingCommit);
}
TEST(CrashMatrixTest, FojNonBlockingAbort) {
  RunMatrixRow(FojScenario(), SyncStrategy::kNonBlockingAbort);
}
TEST(CrashMatrixTest, FojNonBlockingCommit) {
  RunMatrixRow(FojScenario(), SyncStrategy::kNonBlockingCommit);
}
TEST(CrashMatrixTest, VSplitBlockingCommit) {
  RunMatrixRow(VSplitScenario(), SyncStrategy::kBlockingCommit);
}
TEST(CrashMatrixTest, VSplitNonBlockingAbort) {
  RunMatrixRow(VSplitScenario(), SyncStrategy::kNonBlockingAbort);
}
TEST(CrashMatrixTest, VSplitNonBlockingCommit) {
  RunMatrixRow(VSplitScenario(), SyncStrategy::kNonBlockingCommit);
}
TEST(CrashMatrixTest, HSplitBlockingCommit) {
  RunMatrixRow(HSplitScenario(), SyncStrategy::kBlockingCommit);
}
TEST(CrashMatrixTest, HSplitNonBlockingAbort) {
  RunMatrixRow(HSplitScenario(), SyncStrategy::kNonBlockingAbort);
}
TEST(CrashMatrixTest, HSplitNonBlockingCommit) {
  RunMatrixRow(HSplitScenario(), SyncStrategy::kNonBlockingCommit);
}

// --- parallel population rows ------------------------------------------------
//
// Same matrix again with *population* workers: the populate-phase sites
// ("transform.populate.batch" and anything else the scan bodies cross) now
// fire on a population worker thread, and RunPopulatePhase must funnel the
// CrashException across the thread join back to the coordinator. Recovery
// semantics are identical — the half-populated targets were never logged, so
// the dead incarnation leaves nothing but the WAL behind.
TEST(CrashMatrixTest, FojNonBlockingAbortParallelPopulate) {
  RunMatrixRow(FojScenario(), SyncStrategy::kNonBlockingAbort,
               /*populate_workers=*/3);
}
TEST(CrashMatrixTest, VSplitNonBlockingAbortParallelPopulate) {
  RunMatrixRow(VSplitScenario(), SyncStrategy::kNonBlockingAbort,
               /*populate_workers=*/3);
}
TEST(CrashMatrixTest, HSplitNonBlockingAbortParallelPopulate) {
  RunMatrixRow(HSplitScenario(), SyncStrategy::kNonBlockingAbort,
               /*populate_workers=*/3);
}

// --- staggered-tablet rows ---------------------------------------------------
//
// Same matrix with the transformation staggered over 4 hash-range tablets:
// the tablet sites ("transform.tablet.boundary", "transform.tablet.sync")
// now fire once per tablet, and the first hit — the one the matrix crashes
// at — lands on tablet 0 with three tablets still pending. The recovery
// contract is unchanged — the half-migrated
// targets were never logged, so restart sees only the recovered sources and
// a staggered re-run rebuilds everything from scratch.
TEST(CrashMatrixTest, VSplitNonBlockingAbortStaggered) {
  RunMatrixRow(VSplitScenario(), SyncStrategy::kNonBlockingAbort,
               /*populate_workers=*/1, /*tablets=*/4);
}
TEST(CrashMatrixTest, HSplitNonBlockingAbortStaggered) {
  RunMatrixRow(HSplitScenario(), SyncStrategy::kNonBlockingAbort,
               /*populate_workers=*/1, /*tablets=*/4);
}

// The matrix crashes at a site's *first* hit, which for the tablet sites is
// tablet 0 — before anything has migrated. These two cells arm a later hit
// so the crash lands with tablets already migrated, and assert the
// partial-migration contract *within the dying incarnation*: migrated
// tablets stay migrated (their keys answer "use the transformed table"),
// untouched tablets keep taking writes, and after restart the staggered
// re-run converges to the oracle — re-running the mid-flight tablet is
// idempotent because the unlogged targets are rebuilt from zero.
void RunStaggeredPartialCrashCell(const std::string& site, size_t fire_on_hit,
                                  size_t expect_migrated) {
  SCOPED_TRACE(site + " hit " + std::to_string(fire_on_hit));
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();
  const morph::testing::TestWalDir wal_dir;
  const wal::WalOptions wopts = wal_dir.options();

  constexpr size_t kTablets = 4;
  const Scenario sc = VSplitScenario();
  std::vector<Row> expected_source = sc.initial_rows[0];
  {
    engine::DatabaseOptions db_options;
    db_options.table_tablets = kTablets;
    engine::Database db(db_options);
    ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
    auto sources = sc.create_sources(&db);
    ASSERT_TRUE(db.BulkLoad(sources[0].get(), sc.initial_rows[0]).ok());
    auto rules = MakeRules(sc, &db);
    TransformCoordinator coord(
        &db, rules, CellConfig(SyncStrategy::kNonBlockingAbort, kTablets));
    fps.Crash(site, fire_on_hit);
    bool crashed = false;
    try {
      auto run = coord.Run();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    } catch (const CrashException& e) {
      crashed = true;
      EXPECT_EQ(e.point(), site);
    }
    fps.DisableAll();
    ASSERT_TRUE(crashed) << site << " hit " << fire_on_hit
                         << " was not reached";

    const TabletTransformManager* mgr = coord.tablet_manager();
    ASSERT_NE(mgr, nullptr);
    ASSERT_EQ(mgr->num_tablets(), kTablets);
    // Migrated tablets stay migrated across the crash (within this
    // incarnation); everything at or past the crash point is still
    // pre-migration.
    EXPECT_EQ(mgr->num_migrated(), expect_migrated);
    for (size_t k = 0; k < expect_migrated; ++k) {
      EXPECT_EQ(mgr->state(k), TabletState::kMigrated) << "tablet " << k;
    }
    for (size_t k = expect_migrated; k < kTablets; ++k) {
      EXPECT_NE(mgr->state(k), TabletState::kMigrated) << "tablet " << k;
    }

    // The hook outlives the dead coordinator thread until the process dies:
    // keys on migrated tablets are referred to the transformed tables, keys
    // on unmigrated tablets keep updating the source normally.
    int64_t migrated_key = -1;
    int64_t untouched_key = -1;
    for (int64_t i = 0; i < 60; ++i) {
      const size_t k = mgr->TabletOf(Row({i}));
      if (k < expect_migrated && migrated_key < 0) migrated_key = i;
      if (k == kTablets - 1 && untouched_key < 0) untouched_key = i;
    }
    ASSERT_GE(migrated_key, 0);
    ASSERT_GE(untouched_key, 0);
    {
      auto t = db.Begin();
      const Status st = db.Update(t, sources[0].get(), Row({migrated_key}),
                                  {{3, Value("after-crash")}});
      EXPECT_FALSE(st.ok()) << "migrated tablet took a source write";
      (void)db.Abort(t);
    }
    {
      auto t = db.Begin();
      const Status st = db.Update(t, sources[0].get(), Row({untouched_key}),
                                  {{3, Value("after-crash")}});
      EXPECT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(db.Commit(t).ok());
      for (Row& row : expected_source) {
        if (row[0] == Value(untouched_key)) row[3] = Value("after-crash");
      }
    }
    db.ClearTransformHook();
    morph::testing::SyncAndCrash(db.wal());
  }

  // Next incarnation: recover, then re-run the whole staggered
  // transformation. The tablet that was mid-flight at the crash re-runs
  // from scratch — its (unlogged) target state vanished with the process.
  engine::DatabaseOptions db2_options;
  db2_options.table_tablets = kTablets;
  engine::Database db2(db2_options);
  auto sources2 = sc.create_sources(&db2);
  auto stats =
      engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(SortedRows(*sources2[0]), Sorted(expected_source));
  for (const auto& [name, rows] :
       sc.oracle(std::vector<std::vector<Row>>{expected_source})) {
    EXPECT_EQ(db2.catalog()->GetByName(name), nullptr) << name;
  }

  auto rules2 = MakeRules(sc, &db2);
  TransformCoordinator coord2(
      &db2, rules2, CellConfig(SyncStrategy::kNonBlockingAbort, kTablets));
  auto run2 = coord2.Run();
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ASSERT_TRUE(run2->completed) << run2->abort_reason;
  EXPECT_EQ(run2->tablets, kTablets);
  const auto expected_targets =
      sc.oracle(std::vector<std::vector<Row>>{expected_source});
  for (const auto& target : rules2->Targets()) {
    auto it = expected_targets.find(target->name());
    ASSERT_NE(it, expected_targets.end()) << target->name();
    EXPECT_EQ(SortedRows(*target), Sorted(it->second)) << target->name();
  }
}

TEST(CrashMatrixTest, StaggeredMidSyncCrashKeepsMigratedTablets) {
  // "transform.tablet.sync" fires once per tablet, under that tablet's
  // latch; hit 3 = inside tablet 2's sync window, tablets 0 and 1 migrated.
  RunStaggeredPartialCrashCell("transform.tablet.sync", /*fire_on_hit=*/3,
                               /*expect_migrated=*/2);
}
TEST(CrashMatrixTest, StaggeredBoundaryCrashAfterFirstMigration) {
  // "transform.tablet.boundary" fires once per tablet in the populate pass
  // (hits 1-4) and once per tablet in the sync pass (hits 5-8); hit 6 = the
  // seam before tablet 1's sync, tablet 0 migrated.
  RunStaggeredPartialCrashCell("transform.tablet.boundary", /*fire_on_hit=*/6,
                               /*expect_migrated=*/1);
}

// --- durable segmented-WAL cells ---------------------------------------------
//
// Same recovery contract, different durability substrate: the WAL lives in an
// on-disk segment chain written by the group-commit thread, and the "crash"
// is SimulateCrash(), which discards every byte staged but not yet flushed —
// exactly what a process death would leave behind. The crash sites are the
// WAL's own: segment rotation (fires mid-Append on whatever thread is
// logging) and the group-commit flush (fires on the writer thread and
// surfaces through Sync on whatever thread is committing). Because a commit
// whose Sync threw may or may not have reached the disk first, the oracle is
// three-valued per key: a commit whose Sync returned OK must survive, a key
// never committed must be rolled back, and the in-flight commit is accepted
// in either state.
void RunDurableCrashCell(const Scenario& sc, const std::string& site) {
  SCOPED_TRACE(sc.name + " / durable crash at " + site);
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();

  const morph::testing::TestWalDir wal_dir;
  wal::WalOptions wopts = wal_dir.options();
  wopts.segment_bytes = 1024;  // a handful of records per segment

  enum class Fate { kOld, kCommitted, kUnknown };
  std::vector<Fate> fates(sc.writer_keys.size(), Fate::kOld);
  const Value new_value(std::string(160, 'd'));  // fat frames force rotations

  // --- Phase A: durable engine, crash at the WAL site, lose the tail. ------
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
    auto sources = sc.create_sources(&db);
    for (size_t i = 0; i < sources.size(); ++i) {
      ASSERT_TRUE(db.BulkLoad(sources[i].get(), sc.initial_rows[i]).ok());
    }
    ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());

    auto rules = MakeRules(sc, &db);
    TransformCoordinator coord(&db, rules,
                               CellConfig(SyncStrategy::kBlockingCommit));
    auto fut = std::async(std::launch::async, [&] { return coord.Run(); });
    AwaitMarkOrEnd(coord, fut);

    bool coord_done = false;
    bool crashed = false;
    for (size_t i = 0; i < sc.writer_keys.size() && !crashed; ++i) {
      if (!coord_done && fut.wait_for(std::chrono::milliseconds(0)) ==
                             std::future_status::ready) {
        coord_done = true;
        try {
          (void)fut.get();  // any Result is fine; the cell only needs the WAL
        } catch (const CrashException&) {
          crashed = true;  // the coordinator's own appends crossed the site
        }
        db.ClearTransformHook();
        if (crashed) break;
      }
      // The first few commits land before the crash is armed, so every cell
      // has a non-empty durable committed-set to check for survival.
      if (i == 10) fps.Crash(site);
      engine::TxnPtr t;
      bool updated = false;
      try {
        // BEGIN is a WAL append too, so it can cross the site as well.
        t = db.Begin();
        updated = db.Update(t, sources[sc.writer_table].get(),
                            Row({sc.writer_keys[i]}),
                            {{sc.writer_column, new_value}})
                      .ok();
      } catch (const CrashException&) {
        crashed = true;  // the append never finished: the txn never committed
        break;
      }
      if (!updated) {
        // A racing switch-over legitimately rejects this update (the txn
        // began just before the switch epoch and is doomed, or the table
        // was just transformed and the hook is not cleared yet). Roll back
        // and move to the next key — the next iteration observes the
        // finished coordinator and clears the hook. Ending the loop here is
        // only right when no coordinator is left to get out of the way
        // (its gate was left up by a simulated death).
        try {
          (void)db.Abort(t);
        } catch (const CrashException&) {
          crashed = true;  // died writing the rollback: the txn never committed
          break;
        }
        if (coord_done) break;
        continue;
      }
      try {
        if (db.Commit(t).ok()) {
          fates[i] = Fate::kCommitted;  // Sync returned: durable, must survive
        } else {
          fates[i] = Fate::kUnknown;
          crashed = true;
        }
      } catch (const CrashException&) {
        fates[i] = Fate::kUnknown;  // commit record may or may not be on disk
        crashed = true;
      }
    }
    fps.DisableAll();
    if (!coord_done) {
      try {
        (void)fut.get();
      } catch (const CrashException&) {
      }
      db.ClearTransformHook();
    }
    ASSERT_GE(fps.fires(site), 1u) << "site " << site << " never fired";
    // Process death: everything staged but not flushed is gone.
    db.wal()->SimulateCrash();
  }

  // --- Phase B: next incarnation recovers from the segment chain. ----------
  engine::Database db2;
  auto sources2 = sc.create_sources(&db2);
  auto stats =
      engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::map<int64_t, Value> recovered;
  std::map<int64_t, Value> original;
  for (const Row& row : SortedRows(*sources2[sc.writer_table])) {
    recovered.emplace(row[0].AsInt64(), row[sc.writer_column]);
  }
  for (const Row& row : sc.initial_rows[sc.writer_table]) {
    original.emplace(row[0].AsInt64(), row[sc.writer_column]);
  }
  for (size_t i = 0; i < sc.writer_keys.size(); ++i) {
    const int64_t key = sc.writer_keys[i];
    ASSERT_EQ(recovered.count(key), 1u) << "key " << key << " lost";
    const Value& got = recovered.at(key);
    switch (fates[i]) {
      case Fate::kCommitted:
        EXPECT_EQ(got, new_value) << "durable commit lost, key " << key;
        break;
      case Fate::kOld:
        EXPECT_EQ(got, original.at(key))
            << "uncommitted update survived, key " << key;
        break;
      case Fate::kUnknown:
        EXPECT_TRUE(got == new_value || got == original.at(key))
            << "key " << key;
        break;
    }
  }
  // Half-built targets were never logged: they do not exist after restart.
  for (const auto& [name, rows] : sc.oracle(sc.initial_rows)) {
    EXPECT_EQ(db2.catalog()->GetByName(name), nullptr) << name;
  }

  // Idempotence: a second restart pass over the recovered log is a no-op.
  const size_t wal_size = db2.wal()->size();
  auto stats2 = engine::Recovery::Restart(db2.wal(), db2.catalog());
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(stats2->losers, 0u);
  EXPECT_EQ(stats2->undone, 0u);
  EXPECT_EQ(db2.wal()->size(), wal_size);

  // Crash == abort: the transformation runs to completion on the recovered
  // sources — over the reopened durable WAL — and produces their oracle.
  std::vector<std::vector<Row>> recovered_sources;
  recovered_sources.reserve(sources2.size());
  for (const auto& s : sources2) recovered_sources.push_back(SortedRows(*s));
  auto rules2 = MakeRules(sc, &db2);
  TransformCoordinator coord2(&db2, rules2,
                              CellConfig(SyncStrategy::kBlockingCommit));
  auto run2 = coord2.Run();
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ASSERT_TRUE(run2->completed) << run2->abort_reason;
  const auto expected_targets = sc.oracle(recovered_sources);
  for (const auto& target : rules2->Targets()) {
    auto it = expected_targets.find(target->name());
    ASSERT_NE(it, expected_targets.end()) << target->name();
    EXPECT_EQ(SortedRows(*target), Sorted(it->second)) << target->name();
  }
}

TEST(CrashMatrixTest, FojDurableCrashAtSegmentRotate) {
  RunDurableCrashCell(FojScenario(), "wal.segment.rotate");
}
TEST(CrashMatrixTest, FojDurableCrashAtGroupCommitFlush) {
  RunDurableCrashCell(FojScenario(), "wal.group_commit.flush");
}
TEST(CrashMatrixTest, VSplitDurableCrashAtSegmentRotate) {
  RunDurableCrashCell(VSplitScenario(), "wal.segment.rotate");
}
TEST(CrashMatrixTest, VSplitDurableCrashAtGroupCommitFlush) {
  RunDurableCrashCell(VSplitScenario(), "wal.group_commit.flush");
}

// --- engine-seam crashes ----------------------------------------------------

// A crash between logging an operation and applying it to the table (the
// classic WAL window) leaves a loser whose logged-but-unapplied update the
// redo pass applies and the undo pass rolls back — net effect: nothing.
TEST(CrashMatrixTest, CrashAfterUpdateLoggedIsUndoneOnRestart) {
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();
  const morph::testing::TestWalDir wal_dir;

  std::vector<Row> initial;
  for (int i = 0; i < 20; ++i) {
    initial.push_back(Row({i, static_cast<int64_t>(i), "p"}));
  }
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    ASSERT_TRUE(db.BulkLoad(r.get(), initial).ok());
    auto t = db.Begin();
    fps.Crash("engine.update.after_log");
    EXPECT_THROW(
        (void)db.Update(t, r.get(), Row({7}), {{2, Value("phantom")}}),
        CrashException);
    fps.DisableAll();
    // The update is in the log but was never applied to the table.
    EXPECT_EQ((*r->Get(Row({7}))).row[2], Value("p"));
    morph::testing::SyncAndCrash(db.wal());
  }

  engine::Database db2;
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wal_dir.options(),
                                                db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_EQ(stats->undone, 1u);
  EXPECT_EQ(SortedRows(*r2), Sorted(initial));
}

// A crash *during recovery's own undo pass* leaves some CLRs written; the
// next restart must resume via undo_next_lsn (skipping what was already
// compensated) and still converge to the pre-loser image.
TEST(CrashMatrixTest, CrashDuringRecoveryUndoResumes) {
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  fps.ResetCounters();
  const morph::testing::TestWalDir wal_dir;

  std::vector<Row> initial;
  for (int i = 0; i < 20; ++i) {
    initial.push_back(Row({i, static_cast<int64_t>(i), "p"}));
  }
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    ASSERT_TRUE(db.BulkLoad(r.get(), initial).ok());
    auto loser = db.Begin();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          db.Update(loser, r.get(), Row({i}), {{2, Value("u")}}).ok());
    }
    morph::testing::SyncAndCrash(db.wal());
  }

  // First recovery attempt crashes after compensating one of the loser's
  // three operations; the CLR it wrote reaches the log before the crash.
  {
    engine::Database db;
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    fps.Crash("engine.recovery.undo_record", /*fire_on_hit=*/2);
    EXPECT_THROW((void)engine::Recovery::RestartDurable(
                     db.wal(), wal_dir.options(), db.catalog()),
                 CrashException);
    fps.DisableAll();
    morph::testing::SyncAndCrash(db.wal());
  }

  // Second attempt on the partially-undone log converges.
  engine::Database db2;
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wal_dir.options(),
                                                db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_EQ(stats->undone, 2u);  // one op was already compensated
  EXPECT_EQ(SortedRows(*r2), Sorted(initial));

  auto stats2 = engine::Recovery::Restart(db2.wal(), db2.catalog());
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->losers, 0u);
  EXPECT_EQ(SortedRows(*r2), Sorted(initial));
}

// --- observability across a crash cell --------------------------------------

// Registry counters are process-cumulative within one engine incarnation:
// they only move forward while a cell runs, and a "restart" (WAL survives,
// process dies) is modelled by metrics::ResetAll() — the next incarnation
// counts from zero while the cached instrument pointers on every hot path
// stay valid.
TEST(CrashMatrixTest, CountersMonotonicWithinRunAndResetAcrossRestart) {
  auto& fps = Failpoints::Instance();
  fps.DisableAll();
  const morph::testing::TestWalDir wal_dir;
  auto& registry = metrics::Registry::Instance();

  std::vector<Row> initial;
  for (int i = 0; i < 20; ++i) {
    initial.push_back(Row({i, static_cast<int64_t>(i), "p"}));
  }
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wal_dir.options()).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    ASSERT_TRUE(db.BulkLoad(r.get(), initial).ok());

    const uint64_t appends_0 = registry.CounterValue("wal.appends");
    const uint64_t commits_0 = registry.CounterValue("engine.txn.commits");
    auto commit_updates = [&](int lo, int hi) {
      for (int i = lo; i < hi; ++i) {
        auto t = db.Begin();
        ASSERT_TRUE(
            db.Update(t, r.get(), Row({i}), {{2, Value("m")}}).ok());
        ASSERT_TRUE(db.Commit(t).ok());
      }
    };
    commit_updates(0, 10);
    const uint64_t appends_1 = registry.CounterValue("wal.appends");
    const uint64_t commits_1 = registry.CounterValue("engine.txn.commits");
    // 10 txns × (BEGIN-less update + commit records): strictly monotonic.
    EXPECT_GE(appends_1, appends_0 + 10);
    EXPECT_EQ(commits_1, commits_0 + 10);
    commit_updates(10, 20);
    EXPECT_GE(registry.CounterValue("wal.appends"), appends_1 + 10);
    EXPECT_EQ(registry.CounterValue("engine.txn.commits"), commits_1 + 10);

    // Leave a loser, then "crash": only the WAL survives.
    auto loser = db.Begin();
    ASSERT_TRUE(
        db.Update(loser, r.get(), Row({5}), {{2, Value("lost")}}).ok());
    morph::testing::SyncAndCrash(db.wal());
  }

  // Process death: the next incarnation's counters start from zero.
  metrics::ResetAll();
  EXPECT_EQ(registry.CounterValue("wal.appends"), 0u);
  EXPECT_EQ(registry.CounterValue("engine.txn.commits"), 0u);
  EXPECT_EQ(registry.CounterValue("engine.recovery.runs"), 0u);

  engine::Database db2;
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wal_dir.options(),
                                                db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 1u);

  // The new incarnation's counters reflect only post-restart activity: it
  // replayed the chain once, and redo scanned exactly what was replayed.
  EXPECT_EQ(registry.CounterValue("wal.segment.replayed_records"),
            stats->records_scanned);
  EXPECT_EQ(registry.CounterValue("engine.recovery.runs"), 1u);
  EXPECT_EQ(registry.CounterValue("engine.recovery.records_undone"),
            stats->undone);
  // Undo wrote CLR + TXN_END records through the same instrumented path.
  EXPECT_GE(registry.CounterValue("wal.appends"), stats->undone);
  EXPECT_EQ(SortedRows(*r2),
            Sorted(WithCommittedUpdates(
                initial, 2,
                [] {
                  std::map<int64_t, Value> m;
                  for (int64_t i = 0; i < 20; ++i) m.emplace(i, Value("m"));
                  return m;
                }())));
}

}  // namespace
}  // namespace morph::transform
