// The disk-fault matrix: deterministic storage faults (the eio, enospc,
// short and eintr failpoint actions) crossed with the WAL's I/O sites and
// three workloads — idle commit traffic, an FOJ transformation
// mid-propagation, and a staggered tablet sync.
//
// The contract under test:
//
//   * transient cells (recoverable EIO, a bounded ENOSPC window, short
//     writes, EINTR) survive: every acked commit stays durable, the engine
//     never halts, and a restart replays exactly the acked state;
//   * permanent cells (persistent EIO, an exhausted retry budget) halt
//     cleanly: the failing commit gets a descriptive Status, the engine
//     refuses further commits, and a follow-up restart with the fault gone
//     recovers everything acked before the halt;
//   * an unbounded ENOSPC window stalls admission (retryable NoSpace out of
//     Database::Commit, never a halt) and unwedges on its own once space
//     frees;
//   * a scrubbed chain detects silent mid-chain corruption, and
//     quarantine-on-open turns a permanently unopenable chain into a
//     recovered prefix plus a quarantine-<id>.bad file.
//
// The acked-commit oracle is the crash matrix's three-valued Fate: a key is
// kCommitted once Commit returned OK, kUnknown when its commit was in
// flight at the fault, kOld otherwise. Recovery must agree.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/io_env.h"
#include "common/metrics.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "wal/segment.h"
#include "wal/wal.h"

namespace morph::transform {
namespace {

using morph::testing::SortedRows;
using morph::testing::StripedWriters;
using morph::testing::WithCommittedUpdates;

uint64_t CounterValue(const std::string& name) {
  return metrics::Registry::Instance().CounterValue(name);
}

// ---------------------------------------------------------------------------
// IoFile primitives: the short-write / EINTR loops themselves
// ---------------------------------------------------------------------------

class IoFilePrimitiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DisableAll();
    Failpoints::Instance().ResetCounters();
    path_ = ::testing::TempDir() + "/morph_iofile_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    Failpoints::Instance().DisableAll();
    std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_F(IoFilePrimitiveTest, ShortWritesAreLoopedToCompletion) {
  ASSERT_TRUE(Failpoints::Instance().ConfigureFromString("t.write=short*4").ok());
  std::string data;
  for (int i = 0; i < 100; ++i) data += "0123456789";
  {
    auto file = IoEnv::Default().OpenForWrite(path_, "t.open");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(data, "t.write").ok());
    ASSERT_TRUE((*file)->Sync("t.fsync").ok());
  }
  EXPECT_EQ(Failpoints::Instance().fires("t.write"), 4u);
  auto read_back = IoEnv::Default().ReadFile(path_, "t.read");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, data);
}

TEST_F(IoFilePrimitiveTest, EintrIsRetriedOnWriteAndSync) {
  ASSERT_TRUE(Failpoints::Instance()
                  .ConfigureFromString("t.write=eintr*3;t.fsync=eintr*2")
                  .ok());
  const std::string data(4096, 'x');
  {
    auto file = IoEnv::Default().OpenForWrite(path_, "t.open");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(data, "t.write").ok());
    ASSERT_TRUE((*file)->Sync("t.fsync").ok());
  }
  EXPECT_EQ(Failpoints::Instance().fires("t.write"), 3u);
  EXPECT_EQ(Failpoints::Instance().fires("t.fsync"), 2u);
  auto read_back = IoEnv::Default().ReadFile(path_, "t.read");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, data);
}

TEST_F(IoFilePrimitiveTest, UnbudgetedEintrCompletesInsteadOfSpinning) {
  // Regression: without the single-fire default, the retried syscall
  // re-evaluates the same site, the fault fires again, and the writer
  // thread spins in the EINTR loop forever.
  ASSERT_TRUE(Failpoints::Instance()
                  .ConfigureFromString("t.write=eintr;t.fsync=eintr")
                  .ok());
  const std::string data(1024, 'y');
  {
    auto file = IoEnv::Default().OpenForWrite(path_, "t.open");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(data, "t.write").ok());
    ASSERT_TRUE((*file)->Sync("t.fsync").ok());
  }
  EXPECT_EQ(Failpoints::Instance().fires("t.write"), 1u);
  EXPECT_EQ(Failpoints::Instance().fires("t.fsync"), 1u);
  auto read_back = IoEnv::Default().ReadFile(path_, "t.read");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, data);
}

// ---------------------------------------------------------------------------
// The matrix harness
// ---------------------------------------------------------------------------

class IoFaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DisableAll();
    Failpoints::Instance().ResetCounters();
    dir_ = ::testing::TempDir() + "/morph_iofault_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisableAll();
    std::filesystem::remove_all(dir_);
  }

  /// Small segments force rotations mid-workload (covering the header,
  /// manifest and recycle sites); tiny backoffs keep retry storms fast.
  wal::WalOptions FaultCellOptions(size_t segment_bytes = 1024) {
    wal::WalOptions opts;
    opts.dir = dir_;
    opts.segment_bytes = segment_bytes;
    opts.flush_initial_backoff_micros = 50;
    opts.flush_max_backoff_micros = 2'000;
    return opts;
  }

  std::string dir_;
};

enum class CellOutcome { kSurvive, kHalt };
enum class Fate { kOld, kCommitted, kUnknown };

constexpr int kIdleKeys = 30;

std::string NewValue(int key) {
  // Fat values make frames large relative to the 1 KiB test segments, so a
  // 30-commit run crosses several rotations.
  return std::string(160, 'n') + "_" + std::to_string(key);
}

/// One idle-workload matrix cell: serial committed updates with `spec`
/// armed, then a restart with the fault gone. `fire_site` is the site whose
/// fault must actually have fired (a cell that never reaches its site is a
/// vacuous pass — fail loudly instead).
void RunIdleFaultCell(const std::string& dir, const wal::WalOptions& wopts,
                      const std::string& spec, const std::string& fire_site,
                      CellOutcome expect) {
  SCOPED_TRACE("fault spec: " + spec);
  std::map<int64_t, Fate> fates;
  Status halt_status;
  int halt_key = -1;
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
    auto table = *db.CreateTable("r", morph::testing::RSchema());
    std::vector<Row> rows;
    for (int i = 0; i < kIdleKeys; ++i) {
      rows.push_back(Row({i, 0, "old"}));
      fates[i] = Fate::kOld;
    }
    ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());
    ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());

    // Arm after the initial load so @N hit ordinals count from here.
    ASSERT_TRUE(Failpoints::Instance().ConfigureFromString(spec).ok());

    for (int i = 0; i < kIdleKeys; ++i) {
      auto t = db.Begin();
      const Status up = db.Update(t, table.get(), Row({static_cast<int64_t>(i)}),
                                  {{2, Value(NewValue(i))}});
      if (!up.ok()) {
        (void)db.Abort(t);
        ADD_FAILURE() << "update " << i << " failed: " << up.ToString();
        break;
      }
      fates[i] = Fate::kUnknown;  // commit in flight: recovery may go either way
      const Status st = db.Commit(t);
      if (st.ok()) {
        fates[i] = Fate::kCommitted;
      } else {
        halt_status = st;
        halt_key = i;
        break;
      }
    }

    if (expect == CellOutcome::kSurvive) {
      EXPECT_TRUE(halt_status.ok()) << halt_status.ToString();
      EXPECT_FALSE(db.wal_failed());
      for (const auto& [key, fate] : fates) {
        EXPECT_EQ(fate, Fate::kCommitted) << "key " << key;
      }
    } else {
      ASSERT_FALSE(halt_status.ok()) << "cell expected a halt, all commits OK";
      // The halting Status must be self-describing: an I/O taxonomy code and
      // a message naming what went wrong.
      EXPECT_TRUE(halt_status.IsIOError() || halt_status.IsNoSpace())
          << halt_status.ToString();
      EXPECT_FALSE(halt_status.IsRetryable()) << halt_status.ToString();
      EXPECT_GT(halt_status.ToString().size(), 20u) << halt_status.ToString();
      // Two clean shapes, depending on where the writer died relative to
      // the failing commit's Sync: the post-apply sync failure halts the
      // whole engine (wal_failed), while a writer that died flushing the
      // transaction's *operation* records is caught by Commit's admission
      // check pre-apply — no divergence, so no halt, just refusal. Either
      // way every subsequent commit must be refused, not wedged. Probe
      // with a key the failed transaction never locked (its record locks
      // are never released — the engine is dead, not recovering).
      if (halt_key >= 0 && halt_key + 1 < kIdleKeys) {
        auto t = db.Begin();
        ASSERT_TRUE(db.Update(t, table.get(),
                              Row({static_cast<int64_t>(halt_key + 1)}),
                              {{2, Value("after-halt")}})
                        .ok());
        EXPECT_FALSE(db.Commit(t).ok());
      }
    }
    EXPECT_GT(Failpoints::Instance().fires(fire_site), 0u)
        << "cell never reached its fault site " << fire_site;

    Failpoints::Instance().DisableAll();
    db.wal()->SimulateCrash();
  }

  // Phase B: restart with the fault gone. Every acked commit must be there;
  // kUnknown keys may hold either value, but nothing else.
  engine::Database db2;
  auto table2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::map<int64_t, std::string> recovered;
  for (const Row& row : SortedRows(*table2)) {
    recovered[row[0].AsInt64()] = row[2].AsString();
  }
  ASSERT_EQ(recovered.size(), fates.size());
  for (const auto& [key, fate] : fates) {
    ASSERT_TRUE(recovered.count(key)) << "key " << key << " lost";
    const std::string& got = recovered[key];
    switch (fate) {
      case Fate::kCommitted:
        EXPECT_EQ(got, NewValue(static_cast<int>(key))) << "acked key " << key;
        break;
      case Fate::kOld:
        EXPECT_EQ(got, "old") << "key " << key;
        break;
      case Fate::kUnknown:
        EXPECT_TRUE(got == "old" || got == NewValue(static_cast<int>(key)))
            << "key " << key << " holds '" << got << "'";
        break;
    }
  }
  (void)dir;
}

// --- transient cells: every WAL I/O site survives its recoverable fault ---

TEST_F(IoFaultMatrixTest, TransientEioOnAppendWrite) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.write=eio@3:transient",
                   "wal.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnGroupCommitFsync) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=eio@2:transient",
                   "wal.fsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, RepeatedTransientEioWithinBudget) {
  // Three consecutive flush failures — still within the 8-retry budget.
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=eio@2*3:transient",
                   "wal.fsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, EnospcWindowOnWrite) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.write=enospc@3*4",
                   "wal.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, EnospcWindowOnFsync) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=enospc@2*5",
                   "wal.fsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, ShortWritesOnAppendPath) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.write=short@2*6",
                   "wal.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, EintrOnAppendAndFsync) {
  RunIdleFaultCell(dir_, FaultCellOptions(),
                   "wal.write=eintr*4;wal.fsync=eintr*2", "wal.write",
                   CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnRotationHeaderWrite) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.header.write=eio@1:transient",
                   "wal.header.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnRotationHeaderFsync) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.header.fsync=eio@1:transient",
                   "wal.header.fsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnSegmentOpen) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.open=eio@1:transient",
                   "wal.open", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, ShortWriteOnRotationHeader) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.header.write=short@1*2",
                   "wal.header.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnManifestTmpWrite) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.manifest.write=eio@1:transient",
                   "wal.manifest.write", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnManifestRename) {
  RunIdleFaultCell(dir_, FaultCellOptions(),
                   "wal.manifest.rename=eio@1:transient", "wal.manifest.rename",
                   CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnManifestFsync) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.manifest.fsync=eio@1:transient",
                   "wal.manifest.fsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, TransientEioOnDirectorySync) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.dirsync=eio@1:transient",
                   "wal.dirsync", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, FsyncGateRepairSurvivesFailedTruncate) {
  // The flush fails, then the repair's own truncate fails once too — the
  // repair state machine must retry the truncate, not lose it.
  RunIdleFaultCell(dir_, FaultCellOptions(),
                   "wal.fsync=eio@2:transient;wal.segment.truncate=eio@1:transient",
                   "wal.segment.truncate", CellOutcome::kSurvive);
}

TEST_F(IoFaultMatrixTest, FsyncGateRepairRotatesSegments) {
  const uint64_t repairs_before = CounterValue("wal.segment.fsync_gate_repairs");
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=eio@2:transient",
                   "wal.fsync", CellOutcome::kSurvive);
  // The failed fsync's descriptor was abandoned and the staged records
  // rewritten into a fresh segment — never re-fsynced in place.
  EXPECT_GT(CounterValue("wal.segment.fsync_gate_repairs"), repairs_before);
}

// --- permanent cells: clean halt, descriptive Status, recovery ------------

TEST_F(IoFaultMatrixTest, PermanentEioOnFsyncHaltsAndRecovers) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=eio@5", "wal.fsync",
                   CellOutcome::kHalt);
}

TEST_F(IoFaultMatrixTest, PermanentEioOnWriteHaltsAndRecovers) {
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.write=eio@8", "wal.write",
                   CellOutcome::kHalt);
}

TEST_F(IoFaultMatrixTest, ExhaustedRetryBudgetBecomesPermanent) {
  // A "transient" fault that never stops firing: the writer burns its
  // 8-retry budget, converts the fault to a permanent halt, and the death
  // status says so.
  RunIdleFaultCell(dir_, FaultCellOptions(), "wal.fsync=eio@2*500:transient",
                   "wal.fsync", CellOutcome::kHalt);
  EXPECT_GT(CounterValue("wal.flush.retries"), 0u);
}

// --- ENOSPC backpressure: stall, retryable refusal, unwedge ---------------

TEST_F(IoFaultMatrixTest, EnospcStallsAdmissionAndUnwedges) {
  engine::Database db;
  wal::WalOptions wopts = FaultCellOptions(4096);
  // The stall must outlive the test's probes: a patient budget so the
  // writer retries for far longer than the window stays open.
  wopts.flush_enospc_max_retries = 1'000'000;
  ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
  auto table = *db.CreateTable("r", morph::testing::RSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 8; ++i) rows.push_back(Row({i, 0, "old"}));
  ASSERT_TRUE(db.BulkLoad(table.get(), rows).ok());
  ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());

  const uint64_t stalls_before = CounterValue("wal.stall.entered");
  const uint64_t backpressure_before =
      CounterValue("engine.txn.commit_backpressure");
  const uint64_t gated_before = CounterValue("wal.stall.appends_gated");

  // The probe transaction stages its writes *before* the disk fills: during
  // a stall the Append admission gate makes every new log record wait (new
  // work feels latency, the log does not balloon), so only a transaction
  // whose operations predate the stall reaches Commit's admission check.
  auto probe = db.Begin();
  ASSERT_TRUE(db.Update(probe, table.get(), Row({int64_t{1}}),
                        {{2, Value("refused-then-retried")}})
                  .ok());

  // The disk fills with no horizon: every fsync reports ENOSPC until the
  // test "frees space" by disarming the site. The test's own append (a
  // fuzzy mark, which recovery skips) triggers the first failed flush;
  // wait for the stall to engage — the counter, then the admission gate
  // itself — before any transaction starts.
  ASSERT_TRUE(Failpoints::Instance().ConfigureFromString("wal.fsync=enospc").ok());
  {
    wal::LogRecord trigger;
    trigger.type = wal::LogRecordType::kFuzzyMark;
    db.wal()->Append(std::move(trigger));
  }
  while (CounterValue("wal.stall.entered") == stalls_before ||
         db.wal()->WaitWritable(/*timeout_millis=*/0).ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Status stalled_commit;
  std::thread committer([&] {
    // Started inside the stall: the BEGIN append parks on the admission
    // gate until space frees, so the transaction never reaches Commit's
    // admission check while the disk is full. The committer observes the
    // whole episode as latency, never as an error.
    auto t = db.Begin();
    const Status up = db.Update(t, table.get(), Row({int64_t{0}}),
                                {{2, Value("stalled-then-durable")}});
    stalled_commit = up.ok() ? db.Commit(t) : up;
  });
  while (CounterValue("wal.stall.appends_gated") <= gated_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Wait until the writer is demonstrably stuck in its ENOSPC retry loop.
  while (Failpoints::Instance().fires("wal.fsync") < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(CounterValue("wal.stall.entered"), stalls_before);

  // A transaction born *during* the stall: its very first append (BEGIN)
  // parks on the admission gate, so new work feels the full episode as
  // latency and the log does not grow while the disk is full.
  Status gated_commit;
  std::thread gated([&] {
    auto t = db.Begin();
    const Status up = db.Update(t, table.get(), Row({int64_t{2}}),
                                {{2, Value("gated-then-durable")}});
    gated_commit = up.ok() ? db.Commit(t) : up;
  });
  // The committer's BEGIN was the first gated append; this is the second.
  while (CounterValue("wal.stall.appends_gated") <= gated_before + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Admission sees the stall as a *retryable* NoSpace, not a halt.
  const Status admit = db.wal()->WaitWritable(/*timeout_millis=*/50);
  EXPECT_TRUE(admit.IsNoSpace()) << admit.ToString();
  EXPECT_TRUE(admit.IsRetryable()) << admit.ToString();

  // Database::Commit under the stall: refused pre-apply with a retryable
  // Status; the transaction is untouched, the engine healthy.
  {
    const Status st = db.Commit(probe);
    EXPECT_TRUE(st.IsNoSpace()) << st.ToString();
    EXPECT_TRUE(st.IsRetryable()) << st.ToString();
    EXPECT_FALSE(db.wal_failed());
  }
  EXPECT_GT(CounterValue("engine.txn.commit_backpressure"), backpressure_before);

  // Space frees: a checkpoint-driven truncation nudges the writer past its
  // backoff timer — the stalled commit completes durably. Truncating at the
  // log base frees nothing here (this test recovers purely from the log),
  // but exercises the exact call the real checkpointer makes.
  Failpoints::Instance().Disable("wal.fsync");
  db.wal()->TruncateBefore(1);
  committer.join();
  gated.join();
  EXPECT_TRUE(stalled_commit.ok()) << stalled_commit.ToString();
  EXPECT_TRUE(gated_commit.ok()) << gated_commit.ToString();
  EXPECT_FALSE(db.wal_failed());
  EXPECT_GT(CounterValue("wal.stall.exited"), stalls_before);
  EXPECT_GT(CounterValue("wal.stall.appends_gated"), gated_before);

  // The engine is fully unwedged: the refused commit retries successfully.
  EXPECT_TRUE(db.Commit(probe).ok());
  ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());
  db.wal()->SimulateCrash();

  // Both the stalled and the retried commit are durable.
  engine::Database db2;
  auto table2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::map<int64_t, std::string> recovered;
  for (const Row& row : SortedRows(*table2)) {
    recovered[row[0].AsInt64()] = row[2].AsString();
  }
  EXPECT_EQ(recovered[0], "stalled-then-durable");
  EXPECT_EQ(recovered[1], "refused-then-retried");
  EXPECT_EQ(recovered[2], "gated-then-durable");
}

// --- scrub & quarantine ---------------------------------------------------

void CorruptClosedSegment(const std::string& dir, std::string* victim) {
  // Pick the middle of the sorted closed-segment list (the last file is the
  // open, possibly empty, tail segment) and flip one payload byte.
  std::vector<std::string> segs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_GT(segs.size(), 3u);
  *victim = segs[segs.size() / 2];
  std::fstream f(*victim, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(40);  // well past the 24-byte header, inside the first frame
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5a;
  f.seekp(40);
  f.write(&byte, 1);
  f.close();
}

TEST_F(IoFaultMatrixTest, ScrubFindsSilentCorruptionInClosedSegment) {
  wal::Wal wal;
  ASSERT_TRUE(wal.OpenDurable(FaultCellOptions()).ok());
  for (int i = 0; i < 40; ++i) {
    wal::LogRecord rec;
    rec.type = wal::LogRecordType::kInsert;
    rec.txn_id = 1;
    rec.table_id = 1;
    rec.key = Row({static_cast<int64_t>(i)});
    rec.after = Row({static_cast<int64_t>(i), NewValue(i)});
    wal.Append(std::move(rec));
  }
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  ASSERT_TRUE(wal.Scrub().ok());  // intact chain scrubs clean

  std::string victim;
  CorruptClosedSegment(dir_, &victim);
  if (victim.empty()) return;  // assertion already failed

  const Status scrub = wal.Scrub();
  EXPECT_TRUE(scrub.IsCorruption()) << scrub.ToString();
  // Loud and precise: the damaged file and the LSN range at risk.
  EXPECT_NE(scrub.ToString().find(victim), std::string::npos)
      << scrub.ToString();
  EXPECT_NE(scrub.ToString().find("at risk"), std::string::npos)
      << scrub.ToString();
  EXPECT_GT(CounterValue("wal.scrub.corruptions"), 0u);
}

TEST_F(IoFaultMatrixTest, QuarantineOnOpenRecoversThePrefix) {
  wal::WalOptions wopts = FaultCellOptions();
  {
    wal::Wal wal;
    ASSERT_TRUE(wal.OpenDurable(wopts).ok());
    for (int i = 0; i < 40; ++i) {
      wal::LogRecord rec;
      rec.type = wal::LogRecordType::kInsert;
      rec.txn_id = 1;
      rec.table_id = 1;
      rec.key = Row({static_cast<int64_t>(i)});
      rec.after = Row({static_cast<int64_t>(i), NewValue(i)});
      wal.Append(std::move(rec));
    }
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  std::string victim;
  CorruptClosedSegment(dir_, &victim);
  if (victim.empty()) return;

  // Without quarantine the chain is unopenable, and stays that way.
  for (int attempt = 0; attempt < 2; ++attempt) {
    wal::Wal w;
    const Status st = w.OpenDurable(wopts);
    EXPECT_TRUE(st.IsCorruption()) << attempt << ": " << st.ToString();
  }

  // scrub_on_open: still Corruption — data *was* lost and the caller must
  // hear about it — but the damage is set aside with the lost LSN range
  // named, and the next open succeeds on the surviving prefix.
  wopts.scrub_on_open = true;
  {
    wal::Wal w;
    const Status st = w.OpenDurable(wopts);
    ASSERT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("quarantine"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("LSN"), std::string::npos) << st.ToString();
    // The failed open left this Wal fresh (any partially replayed prefix
    // dropped), so the documented recovery flow — retry OpenDurable on the
    // same object — succeeds on the surviving prefix.
    const Status retry = w.OpenDurable(wopts);
    ASSERT_TRUE(retry.ok()) << retry.ToString();
    EXPECT_EQ(w.FirstLsn(), 1u);
  }
  wal::Wal survivor;
  ASSERT_TRUE(survivor.OpenDurable(wopts).ok());
  EXPECT_EQ(survivor.FirstLsn(), 1u);
  EXPECT_GT(survivor.size(), 0u);
  EXPECT_LT(survivor.LastLsn(), 40u);  // the quarantined suffix is gone
  EXPECT_TRUE(survivor.At(1).ok());

  // The evidence file survives the sweep for offline salvage.
  bool quarantine_file = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("quarantine-", 0) == 0 &&
        name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bad") == 0) {
      quarantine_file = true;
    }
  }
  EXPECT_TRUE(quarantine_file);
}

// --- transform workloads: faults mid-propagation and mid-stagger ----------

/// Runs the FOJ transformation under concurrent writer traffic with `spec`
/// armed mid-run. Transient cells only: the transformation must complete,
/// no commit may fail, and a restart must replay every acked writer update.
void RunTransformFaultCell(const std::string& dir, const std::string& spec,
                           const std::string& fire_site, size_t tablets) {
  SCOPED_TRACE("fault spec: " + spec + " tablets=" + std::to_string(tablets));
  wal::WalOptions wopts;
  wopts.dir = dir;
  wopts.segment_bytes = 4096;
  wopts.flush_initial_backoff_micros = 50;
  wopts.flush_max_backoff_micros = 2'000;

  std::vector<Row> r_rows;
  std::vector<int64_t> writer_keys;
  for (int i = 0; i < 48; ++i) {
    r_rows.push_back(Row({i, static_cast<int64_t>(i % 8), "p"}));
    writer_keys.push_back(i);
  }
  std::vector<Row> s_rows;
  for (int i = 0; i < 8; ++i) s_rows.push_back(Row({i, i, "s"}));

  std::map<int64_t, Value> committed;
  {
    engine::DatabaseOptions dbo;
    dbo.table_tablets = tablets;
    engine::Database db(dbo);
    ASSERT_TRUE(db.wal()->OpenDurable(wopts).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    auto s = *db.CreateTable("s", morph::testing::SSchema());
    ASSERT_TRUE(db.BulkLoad(r.get(), r_rows).ok());
    ASSERT_TRUE(db.BulkLoad(s.get(), s_rows).ok());
    ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());

    StripedWriters writers(&db, r.get(), writer_keys, /*value_column=*/2);
    writers.Start();
    ASSERT_TRUE(writers.WaitForCommits(5));

    // Arm once traffic is flowing, so the fault lands mid-propagation.
    ASSERT_TRUE(Failpoints::Instance().ConfigureFromString(spec).ok());

    FojSpec fspec;
    fspec.r_table = "r";
    fspec.s_table = "s";
    fspec.r_join_column = "jv";
    fspec.s_join_column = "jv";
    fspec.target_table = "t_out";
    auto rules = FojRules::Make(&db, fspec);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();

    TransformConfig config;
    config.strategy = SyncStrategy::kBlockingCommit;
    config.tablets = tablets;
    config.drop_sources = false;
    config.max_duration_micros = 20'000'000;
    TransformCoordinator coord(
        &db, std::shared_ptr<OperatorRules>(std::move(rules).ValueOrDie()),
        config);
    auto run = coord.Run();
    writers.StopAndJoin();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->completed) << run->abort_reason;
    EXPECT_FALSE(db.wal_failed());
    EXPECT_GT(Failpoints::Instance().fires(fire_site), 0u)
        << "cell never reached its fault site " << fire_site;

    committed = writers.Committed();
    Failpoints::Instance().DisableAll();
    ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());
    db.wal()->SimulateCrash();
  }

  // Restart: the source table must hold the initial image plus exactly the
  // acked writer updates (target-table records fall to unknown table ids
  // and are skipped — sources are the acked-commit oracle here).
  engine::DatabaseOptions dbo;
  dbo.table_tablets = tablets;
  engine::Database db2(dbo);
  auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
  auto s2 = *db2.CreateTable("s", morph::testing::SSchema());
  auto stats = engine::Recovery::RestartDurable(db2.wal(), wopts, db2.catalog());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const auto expected = morph::testing::Sorted(
      WithCommittedUpdates(r_rows, /*column=*/2, committed));
  EXPECT_EQ(SortedRows(*r2), expected);
  EXPECT_EQ(SortedRows(*s2), morph::testing::Sorted(s_rows));
}

// Fault windows open on the first post-arming hit (@1): group commit
// coalesces the writers' flushes, so a deep @N ordinal may never be reached
// before the (small) transformation completes.

TEST_F(IoFaultMatrixTest, FojPropagationSurvivesTransientEioOnWrite) {
  RunTransformFaultCell(dir_, "wal.write=eio@1*2:transient", "wal.write",
                        /*tablets=*/1);
}

TEST_F(IoFaultMatrixTest, FojPropagationSurvivesEnospcWindowOnFsync) {
  RunTransformFaultCell(dir_, "wal.fsync=enospc@1*6", "wal.fsync",
                        /*tablets=*/1);
}

TEST_F(IoFaultMatrixTest, StaggeredTabletSyncSurvivesTransientEioOnFsync) {
  RunTransformFaultCell(dir_, "wal.fsync=eio@1*2:transient", "wal.fsync",
                        /*tablets=*/4);
}

TEST_F(IoFaultMatrixTest, StaggeredTabletSyncSurvivesEnospcWindowOnWrite) {
  RunTransformFaultCell(dir_, "wal.write=enospc@1*4", "wal.write",
                        /*tablets=*/4);
}

}  // namespace
}  // namespace morph::transform
