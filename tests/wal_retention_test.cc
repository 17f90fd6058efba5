// Regression tests for the WAL-truncation / online-transformation interplay:
// log-archiving housekeeping (a fuzzy checkpoint followed by
// Wal::TruncateBefore) used to be able to truncate records the running
// transformation had not propagated yet. The log scan then silently clamped
// its start to the retained prefix, so the lost records were skipped without
// any error and the transformed table silently diverged from its sources.
// The fix is the retention-pin mechanism: TruncateBefore clamps below every
// registered pin, and TransformCoordinator::Run pins its propagation
// watermark for the whole run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/relops.h"
#include "engine/checkpoint.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "wal/wal.h"

namespace morph::transform {
namespace {

using morph::testing::Sorted;
using morph::testing::SortedRows;

// --- Pin mechanics on a bare WAL -------------------------------------------

TEST(WalRetentionPinTest, PinClampsTruncationToItsFloor) {
  wal::Wal wal;
  for (int i = 0; i < 100; ++i) wal.Append(wal::LogRecord{});  // LSNs 1..100
  std::atomic<Lsn> floor{50};
  const uint64_t pin = wal.AddRetentionPin(
      [&floor]() -> Lsn { return floor.load(std::memory_order_acquire); });

  const uint64_t clamped_before =
      metrics::Registry::Instance().CounterValue("wal.truncate_clamped");
  wal.TruncateBefore(80);
  EXPECT_EQ(wal.FirstLsn(), 50u);
  EXPECT_GT(metrics::Registry::Instance().CounterValue("wal.truncate_clamped"),
            clamped_before);

  // A pin above the requested point never *extends* the truncation.
  floor.store(95, std::memory_order_release);
  wal.TruncateBefore(70);
  EXPECT_EQ(wal.FirstLsn(), 70u);

  wal.RemoveRetentionPin(pin);
  wal.TruncateBefore(90);
  EXPECT_EQ(wal.FirstLsn(), 90u);
}

TEST(WalRetentionPinTest, InvalidLsnPinDoesNotConstrain) {
  wal::Wal wal;
  for (int i = 0; i < 20; ++i) wal.Append(wal::LogRecord{});
  const uint64_t pin =
      wal.AddRetentionPin([]() -> Lsn { return kInvalidLsn; });
  wal.TruncateBefore(15);
  EXPECT_EQ(wal.FirstLsn(), 15u);
  wal.RemoveRetentionPin(pin);
}

// Regression (LSN reuse): a checkpoint that truncates the WHOLE log (no
// active transformation, quiescent engine) used to lose base_lsn_ across a
// restart — the reloaded log reset to base 1 and re-issued already-consumed
// LSNs, corrupting every consumer that keys state by LSN (propagated_lsn()
// bookkeeping, checkpoint guard horizons). The segment chain's manifest
// persists the base LSN, through a crash as through a clean shutdown.
TEST(WalRetentionPinTest, FullTruncationSurvivesSaveLoadWithoutLsnReuse) {
  const morph::testing::TestWalDir wal_dir;
  {
    wal::Wal wal;
    ASSERT_TRUE(wal.OpenDurable(wal_dir.options()).ok());
    for (int i = 0; i < 30; ++i) wal.Append(wal::LogRecord{});  // LSNs 1..30
    // Sync first: truncation never passes the durable horizon.
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    wal.TruncateBefore(31);  // checkpoint consumed everything
    ASSERT_EQ(wal.size(), 0u);
    wal.SimulateCrash();
  }

  wal::Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(wal_dir.options()).ok());
  EXPECT_EQ(reloaded.FirstLsn(), 31u);
  EXPECT_EQ(reloaded.LastLsn(), 30u);
  // The next append must continue the LSN space, not restart at 1: a
  // propagator watermark of (say) 30 would otherwise be "ahead" of brand-new
  // records and propagation would skip them forever.
  EXPECT_EQ(reloaded.Append(wal::LogRecord{}), 31u);
}

// --- The end-to-end regression ---------------------------------------------

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/morph_retention_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct FojFixture {
  engine::Database db;
  std::shared_ptr<storage::Table> r, s;
  std::shared_ptr<FojRules> rules;

  /// In memory, or over the durable WAL `durable` when given.
  explicit FojFixture(const wal::WalOptions* durable = nullptr) {
    if (durable != nullptr) EXPECT_TRUE(db.wal()->OpenDurable(*durable).ok());
    r = *db.CreateTable("r", morph::testing::RSchema());
    s = *db.CreateTable("s", morph::testing::SSchema());
    std::vector<Row> r_rows, s_rows;
    for (int i = 0; i < 40; ++i) {
      r_rows.push_back(Row({i, static_cast<int64_t>(i % 12), "p0"}));
    }
    for (int i = 0; i < 12; ++i) s_rows.push_back(Row({i, 1000 + i, "i0"}));
    EXPECT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
    EXPECT_TRUE(db.BulkLoad(s.get(), s_rows).ok());

    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t";
    auto made = FojRules::Make(&db, spec);
    EXPECT_TRUE(made.ok());
    rules = std::shared_ptr<FojRules>(std::move(made).ValueOrDie());
  }

  std::vector<Row> Oracle() const {
    std::vector<Row> r_rows, s_rows;
    r->ForEach([&](const storage::Record& rec) { r_rows.push_back(rec.row); });
    s->ForEach([&](const storage::Record& rec) { s_rows.push_back(rec.row); });
    return Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3));
  }

  // Commits one single-update transaction against R.
  void CommitUpdate(int64_t key, const std::string& payload) {
    auto t = db.Begin();
    ASSERT_TRUE(
        db.Update(t, r.get(), Row({key}), {{2, Value(payload)}}).ok());
    ASSERT_TRUE(db.Commit(t).ok());
  }
};

bool WaitForPhase(const TransformCoordinator& coord,
                  TransformCoordinator::Phase phase,
                  int64_t timeout_micros = 20'000'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  while (coord.phase() != phase) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TransformConfig SlowPropagationConfig() {
  TransformConfig config;
  config.strategy = SyncStrategy::kNonBlockingAbort;
  config.drop_sources = false;  // keep sources for the oracle comparison
  // Heavy throttle so the backlog outlives the housekeeping below; the
  // delay failpoint stretches each iteration further.
  config.priority = 0.02;
  config.sync_threshold = 8;
  config.lag_iterations = 1'000'000;
  config.max_duration_micros = 60'000'000;
  return config;
}

TEST(WalRetentionIntegrationTest, CheckpointTruncationDuringPropagation) {
  const std::string dir = FreshDir("interleave");
  FojFixture fx;
  TransformCoordinator coord(&fx.db, fx.rules, SlowPropagationConfig());
  coord.SetSyncHold(true);
  Failpoints::Instance().Delay("transform.propagate.iteration", 2'000);

  auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
  ASSERT_TRUE(WaitForPhase(coord, TransformCoordinator::Phase::kPropagating));

  // A burst of committed work the throttled propagator has not consumed.
  for (int i = 0; i < 150; ++i) {
    fx.CommitUpdate(i % 40, "ckpt" + std::to_string(i));
  }

  // Housekeeping: fuzzy checkpoint, then archive the log up to its floor —
  // exactly what a janitor thread does. The floor is past the burst, but
  // the transformation still needs the burst.
  auto meta = engine::Checkpointer::Write(&fx.db, dir);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  // The race window must be real for this test to mean anything.
  ASSERT_LT(coord.propagated_lsn(), meta->truncate_floor());
  const uint64_t clamped_before =
      metrics::Registry::Instance().CounterValue("wal.truncate_clamped");
  fx.db.wal()->TruncateBefore(meta->truncate_floor());

  // The coordinator's retention pin clamped the truncation below the
  // requested floor; the unpropagated suffix survives.
  EXPECT_GT(metrics::Registry::Instance().CounterValue("wal.truncate_clamped"),
            clamped_before);
  EXPECT_LT(fx.db.wal()->FirstLsn(), meta->truncate_floor());

  Failpoints::Instance().Disable("transform.propagate.iteration");
  coord.set_priority(1.0);
  coord.SetSyncHold(false);
  auto stats = stats_f.get();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->completed) << stats->abort_reason;

  // Pre-fix, the truncated burst was silently skipped (Wal::Scan clamps to
  // the retained prefix) and this comparison diverged.
  EXPECT_EQ(SortedRows(*fx.rules->target()), fx.Oracle());

  // The pin is gone after Run(): housekeeping may truncate freely again.
  fx.db.wal()->TruncateBefore(fx.db.wal()->LastLsn());
  EXPECT_EQ(fx.db.wal()->FirstLsn(), fx.db.wal()->LastLsn());
}

TEST(WalRetentionIntegrationTest, CrashAfterInterleavedCheckpointRecovers) {
  const std::string dir = FreshDir("crash");
  const morph::testing::TestWalDir wal_dir;
  const wal::WalOptions wopts = wal_dir.options();
  FojFixture fx(&wopts);
  {
    TransformCoordinator coord(&fx.db, fx.rules, SlowPropagationConfig());
    coord.SetSyncHold(true);
    Failpoints::Instance().Delay("transform.propagate.iteration", 2'000);

    auto stats_f = std::async(std::launch::async, [&] { return coord.Run(); });
    ASSERT_TRUE(WaitForPhase(coord, TransformCoordinator::Phase::kPropagating));
    for (int i = 0; i < 100; ++i) {
      fx.CommitUpdate(i % 40, "pre_crash" + std::to_string(i));
    }

    // Checkpoint + truncate mid-propagation (pin clamps, as above)...
    auto meta = engine::Checkpointer::Write(&fx.db, dir);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    fx.db.wal()->TruncateBefore(meta->truncate_floor());

    // ...then crash the transformation at the synchronization latch.
    Failpoints::Instance().Disable("transform.propagate.iteration");
    Failpoints::Instance().Crash("transform.sync.latched");
    coord.set_priority(1.0);
    coord.SetSyncHold(false);
    EXPECT_THROW(stats_f.get(), CrashException);
    Failpoints::Instance().DisableAll();
  }

  // Process death: only the durable log and the checkpoint survive. Restart
  // from the checkpoint and verify every committed pre-crash update is back.
  morph::testing::SyncAndCrash(fx.db.wal());

  engine::Database db2;
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto s2 = *db2.CreateTable("s", morph::testing::SSchema());
  // The checkpoint also snapshotted the half-built target; recreate it with
  // the crashed incarnation's schema so Restore can load (then discard) it.
  auto t_live = fx.db.catalog()->GetByName("t");
  ASSERT_NE(t_live, nullptr);
  ASSERT_TRUE(db2.CreateTable("t", t_live->schema()).ok());
  ASSERT_TRUE(db2.wal()->OpenDurable(wopts).ok());
  auto restore = engine::Checkpointer::Restore(dir, db2.wal(), db2.catalog());
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_EQ(SortedRows(*r2), SortedRows(*fx.r));
  EXPECT_EQ(SortedRows(*s2), SortedRows(*fx.s));

  // Phase B of the crash protocol: drop the garbage target and re-run the
  // transformation to completion on the recovered engine.
  ASSERT_TRUE(db2.DropTable("t").ok());
  FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t";
  auto rules2 = FojRules::Make(&db2, spec);
  ASSERT_TRUE(rules2.ok());
  auto shared2 = std::shared_ptr<FojRules>(std::move(rules2).ValueOrDie());
  TransformConfig config2;
  config2.strategy = SyncStrategy::kNonBlockingAbort;
  config2.drop_sources = false;
  TransformCoordinator coord2(&db2, shared2, config2);
  auto stats2 = coord2.Run();
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  ASSERT_TRUE(stats2->completed) << stats2->abort_reason;

  std::vector<Row> r_rows, s_rows;
  r2->ForEach([&](const storage::Record& rec) { r_rows.push_back(rec.row); });
  s2->ForEach([&](const storage::Record& rec) { s_rows.push_back(rec.row); });
  EXPECT_EQ(SortedRows(*shared2->target()),
            Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3)));
}

}  // namespace
}  // namespace morph::transform
