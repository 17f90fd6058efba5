// Unit tests for the durable segmented WAL backend: segment rotation,
// recycling gated by retention pins, manifest base-LSN persistence, chain
// recovery with torn-tail discipline, group-commit durability, and the
// wal.segment.* / wal.group_commit.* crash failpoints.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/segment.h"
#include "wal/wal.h"
#include "wal/wal_writer.h"

namespace morph::wal {
namespace {

LogRecord MakeInsert(TxnId txn, TableId table, int64_t key) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.txn_id = txn;
  rec.table_id = table;
  rec.key = Row({key});
  rec.after = Row({key, "payload-payload-payload"});
  return rec;
}

class WalSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/morph_seg_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisableAll();
    std::filesystem::remove_all(dir_);
  }

  WalOptions SmallSegments(size_t bytes = 512) {
    WalOptions opts;
    opts.dir = dir_;
    opts.segment_bytes = bytes;
    return opts;
  }

  std::string dir_;
};

TEST_F(WalSegmentTest, DurableRoundTrip) {
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(WalOptions{dir_}).ok());
    ASSERT_TRUE(wal.durable());
    for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    EXPECT_EQ(wal.durable_lsn(), 100u);
  }  // clean shutdown drains the writer
  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(WalOptions{dir_}).ok());
  EXPECT_EQ(reloaded.size(), 100u);
  EXPECT_EQ(reloaded.FirstLsn(), 1u);
  EXPECT_EQ(reloaded.LastLsn(), 100u);
  auto rec = reloaded.At(42);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->key, Row({int64_t{41}}));
  // Replayed records are durable: Sync must not block.
  EXPECT_TRUE(reloaded.Sync(reloaded.LastLsn()).ok());
  // LSNs continue where the previous incarnation stopped.
  EXPECT_EQ(reloaded.Append(MakeInsert(2, 1, 1000)), 101u);
}

TEST_F(WalSegmentTest, RotationProducesMultiSegmentChain) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  ASSERT_NE(wal.segmented_log(), nullptr);
  EXPECT_GT(wal.segmented_log()->num_segments(), 3u);

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  EXPECT_EQ(reloaded.size(), 200u);
  EXPECT_EQ(reloaded.LastLsn(), 200u);
  for (Lsn l = 1; l <= 200; ++l) {
    ASSERT_TRUE(reloaded.At(l).ok()) << "lsn " << l;
  }
}

TEST_F(WalSegmentTest, TruncateRecyclesSegmentsAndReusesFiles) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  const size_t before = wal.segmented_log()->num_segments();
  ASSERT_GT(before, 3u);

  wal.TruncateBefore(150);
  EXPECT_EQ(wal.FirstLsn(), 150u);
  EXPECT_LT(wal.segmented_log()->num_segments(), before);
  EXPECT_GT(wal.segmented_log()->segments_recycled(), 0u);
  EXPECT_GT(wal.segmented_log()->pool_size(), 0u);

  // New appends reuse pooled files instead of creating fresh ones.
  for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, 1000 + i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  EXPECT_GT(wal.segmented_log()->segments_reused(), 0u);

  // The truncated prefix is gone after restart; the rest survives.
  Wal reloaded;
  Wal* r = &reloaded;
  ASSERT_TRUE(r->OpenDurable(SmallSegments()).ok());
  EXPECT_EQ(r->FirstLsn(), 150u);
  EXPECT_EQ(r->LastLsn(), 400u);
  EXPECT_TRUE(r->At(149).status().IsNotFound());
  EXPECT_TRUE(r->At(150).ok());
}

TEST_F(WalSegmentTest, EmptyClosedSegmentsDoNotWedgeRecycling) {
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 50; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  // Append-free restarts: each Open starts a fresh segment, so the previous
  // incarnation's fresh segment is left closed and EMPTY (header only) in
  // the middle of the chain.
  for (int i = 0; i < 2; ++i) {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  }
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  for (int i = 0; i < 3; ++i) wal.Append(MakeInsert(1, 1, 100 + i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  ASSERT_GT(wal.segmented_log()->num_segments(), 3u);

  // Truncating past every closed segment's records must recycle the whole
  // closed prefix. The empty restart segments used to stop the victim scan,
  // permanently leaking them and every segment queued behind them.
  wal.TruncateBefore(51);
  EXPECT_EQ(wal.FirstLsn(), 51u);
  EXPECT_EQ(wal.segmented_log()->num_segments(), 1u);

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  EXPECT_EQ(reloaded.FirstLsn(), 51u);
  EXPECT_EQ(reloaded.LastLsn(), 53u);
}

TEST_F(WalSegmentTest, RetentionPinBlocksSegmentRecycling) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  const size_t before = wal.segmented_log()->num_segments();

  // A propagator-style pin holding the very first record: nothing may be
  // recycled.
  const uint64_t pin = wal.AddRetentionPin([] { return Lsn{1}; });
  wal.TruncateBefore(180);
  EXPECT_EQ(wal.FirstLsn(), 1u);  // clamped
  EXPECT_EQ(wal.segmented_log()->num_segments(), before);
  EXPECT_EQ(wal.segmented_log()->segments_recycled(), 0u);

  // Pin released: the same truncate now recycles.
  wal.RemoveRetentionPin(pin);
  wal.TruncateBefore(180);
  EXPECT_EQ(wal.FirstLsn(), 180u);
  EXPECT_GT(wal.segmented_log()->segments_recycled(), 0u);
}

TEST_F(WalSegmentTest, FullTruncationPreservesLsnSpaceAcrossRestart) {
  // The segmented flavor of the base-LSN persistence bug: a fully truncated
  // chain must reopen with its LSN space intact, not reset to 1.
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 50; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    wal.TruncateBefore(51);
    EXPECT_EQ(wal.size(), 0u);
    EXPECT_EQ(wal.FirstLsn(), 51u);
    EXPECT_EQ(wal.LastLsn(), 50u);  // last assigned, per contract
  }
  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  EXPECT_EQ(reloaded.size(), 0u);
  EXPECT_EQ(reloaded.FirstLsn(), 51u);
  EXPECT_EQ(reloaded.LastLsn(), 50u);
  EXPECT_EQ(reloaded.Append(MakeInsert(1, 1, 7)), 51u);  // no LSN reuse
}

TEST_F(WalSegmentTest, TornTailAtChainEndIsTrimmed) {
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  // Find the chain's last segment (largest id) and tear its tail.
  uint64_t max_id = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      max_id = std::max<uint64_t>(
          max_id, std::strtoull(name.c_str() + 4, nullptr, 10));
    }
  }
  ASSERT_GT(max_id, 1u);
  const std::string last = SegmentedLog::SegmentPath(dir_, max_id);
  const auto full = std::filesystem::file_size(last);
  std::filesystem::resize_file(last, full - 3);  // torn mid-frame

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  // A strict prefix survives; the torn record is gone.
  EXPECT_LT(reloaded.LastLsn(), 100u);
  EXPECT_GT(reloaded.size(), 0u);
  Lsn prev = 0;
  ASSERT_TRUE(reloaded
                  .ScanChecked(1, reloaded.LastLsn(),
                               [&](const LogRecord& rec) {
                                 EXPECT_EQ(rec.lsn, prev + 1);
                                 prev = rec.lsn;
                               })
                  .ok());
}

TEST_F(WalSegmentTest, TornTailSpanningSegmentBoundaryIsTrimmedToBoundary) {
  // Tear the ENTIRE last segment's payload (every frame after its header):
  // the valid chain now ends exactly at the previous segment's last record
  // — the rotation boundary — and recovery must resume from there.
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  uint64_t max_id = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      max_id = std::max<uint64_t>(
          max_id, std::strtoull(name.c_str() + 4, nullptr, 10));
    }
  }
  ASSERT_GT(max_id, 1u);
  constexpr size_t kHeaderBytes = 24;
  std::filesystem::resize_file(SegmentedLog::SegmentPath(dir_, max_id),
                               kHeaderBytes);

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  const Lsn tail = reloaded.LastLsn();
  EXPECT_LT(tail, 100u);
  EXPECT_GT(tail, 0u);
  // Contiguous prefix up to the boundary, appends continue after it.
  Lsn prev = 0;
  ASSERT_TRUE(reloaded
                  .ScanChecked(1, tail,
                               [&](const LogRecord& rec) {
                                 EXPECT_EQ(rec.lsn, prev + 1);
                                 prev = rec.lsn;
                               })
                  .ok());
  EXPECT_EQ(prev, tail);
  EXPECT_EQ(reloaded.Append(MakeInsert(2, 1, 0)), tail + 1);
}

TEST_F(WalSegmentTest, MidChainDamageIsFatal) {
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  // Damage the FIRST segment (not the chain tail): flip a payload byte.
  const std::string first = SegmentedLog::SegmentPath(dir_, 1);
  ASSERT_TRUE(std::filesystem::exists(first));
  {
    std::fstream f(first, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char c;
    f.seekg(64);
    f.get(c);
    f.seekp(64);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  Wal reloaded;
  const Status st = reloaded.OpenDurable(SmallSegments());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(WalSegmentTest, ConcurrentCommittersAllDurable) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments(4096)).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Lsn lsn = wal.Append(MakeInsert(t + 1, 1, i));
        if (!wal.Sync(lsn).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal.durable_lsn(), static_cast<Lsn>(kThreads * kPerThread));

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments(4096)).ok());
  EXPECT_EQ(reloaded.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalSegmentTest, CrashAtRotateLosesNoSyncedRecord) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  Failpoints::Instance().Crash("wal.segment.rotate");
  Lsn last_synced = kInvalidLsn;
  bool crashed = false;
  for (int i = 0; i < 500 && !crashed; ++i) {
    try {
      const Lsn lsn = wal.Append(MakeInsert(1, 1, i));
      if (wal.Sync(lsn).ok()) last_synced = lsn;
    } catch (const CrashException&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << "rotation failpoint never fired";
  ASSERT_NE(last_synced, kInvalidLsn);
  wal.SimulateCrash();
  Failpoints::Instance().DisableAll();

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  // Every record whose Sync returned OK must have survived.
  EXPECT_GE(reloaded.LastLsn(), last_synced);
  for (Lsn l = 1; l <= last_synced; ++l) {
    EXPECT_TRUE(reloaded.At(l).ok()) << "synced record " << l << " lost";
  }
}

TEST_F(WalSegmentTest, CrashAtGroupCommitFlushLosesOnlyUnsyncedTail) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments(1 << 20)).ok());
  // First batch becomes durable normally.
  for (int i = 0; i < 20; ++i) wal.Append(MakeInsert(1, 1, i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  const Lsn durable_before = wal.durable_lsn();
  ASSERT_EQ(durable_before, 20u);

  // The writer crashes on its next flush; Sync rethrows the simulated
  // process death on the committer's thread.
  Failpoints::Instance().Crash("wal.group_commit.flush");
  const Lsn doomed = wal.Append(MakeInsert(1, 1, 999));
  EXPECT_THROW((void)wal.Sync(doomed), CrashException);
  wal.SimulateCrash();
  Failpoints::Instance().DisableAll();

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments(1 << 20)).ok());
  EXPECT_EQ(reloaded.LastLsn(), durable_before);  // doomed record lost
  EXPECT_TRUE(reloaded.At(doomed).status().IsNotFound());
}

TEST_F(WalSegmentTest, CrashAtRecycleKeepsChainOpenable) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, i));
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());

  Failpoints::Instance().Crash("wal.segment.recycle");
  EXPECT_THROW(wal.TruncateBefore(150), CrashException);
  wal.SimulateCrash();
  Failpoints::Instance().DisableAll();

  // The manifest was not rewritten: the next incarnation sees the chain as
  // it was before the truncate — conservative, never corrupt.
  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  EXPECT_EQ(reloaded.FirstLsn(), 1u);
  EXPECT_EQ(reloaded.LastLsn(), 200u);
}

TEST_F(WalSegmentTest, ErrorFailpointOnFlushSurfacesThroughSync) {
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
  Failpoints::Instance().Error("wal.group_commit.flush",
                               Status::IOError("injected"));
  const Lsn lsn = wal.Append(MakeInsert(1, 1, 1));
  const Status st = wal.Sync(lsn);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  Failpoints::Instance().DisableAll();
}

TEST_F(WalSegmentTest, CommitSyncFailureHaltsEngine) {
  engine::Database db;
  ASSERT_TRUE(db.wal()->OpenDurable(WalOptions{dir_}).ok());
  auto table = *db.CreateTable("r", morph::testing::RSchema());

  auto t1 = db.Begin();
  ASSERT_TRUE(db.Insert(t1, table.get(), Row({1, 1, "a"})).ok());
  ASSERT_TRUE(db.Commit(t1).ok());

  // The writer dies on its next flush: Commit applies the transaction in
  // memory, then Sync surfaces the I/O error. In-memory state has diverged
  // from the durable log, so the engine must halt instead of acknowledging
  // commits the log can no longer persist. Drain the writer before arming
  // so the fatal flush is deterministically the post-apply COMMIT flush —
  // if the writer instead died flushing the INSERT record, Commit's
  // admission check would refuse it pre-apply and no halt would be needed.
  auto t2 = db.Begin();
  ASSERT_TRUE(db.Insert(t2, table.get(), Row({2, 2, "b"})).ok());
  ASSERT_TRUE(db.wal()->Sync(db.wal()->LastLsn()).ok());
  Failpoints::Instance().Error("wal.group_commit.flush",
                               Status::IOError("injected"));
  EXPECT_TRUE(db.Commit(t2).IsIOError());
  EXPECT_TRUE(db.wal_failed());
  Failpoints::Instance().DisableAll();

  // Halted for good: even a commit whose flush would now succeed is refused.
  auto t3 = db.Begin();
  ASSERT_TRUE(db.Insert(t3, table.get(), Row({3, 3, "c"})).ok());
  EXPECT_TRUE(db.Commit(t3).IsInternal());
}

TEST_F(WalSegmentTest, PermanentFlushFailureIsFinal) {
  // A permanent fsync failure kills the writer while the failed batch is
  // still staged (written to the segment, never synced). No later call may
  // write those frames again. Before the fix, the first append that filled
  // the segment rotated, and the rotation's flush rewrote the staged frames
  // into the same file: the chain then held one LSN twice and the next Open
  // failed with "LSN gap". The halt orders every later append: Sync returns
  // only once the writer is dead.
  Lsn doomed = kInvalidLsn;
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    wal.Append(MakeInsert(1, 1, 0));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    ASSERT_TRUE(Failpoints::Instance().ConfigureFromString("wal.fsync=eio").ok());
    doomed = wal.Append(MakeInsert(1, 1, 1));
    const Status halt = wal.Sync(doomed);
    ASSERT_FALSE(halt.ok());
    EXPECT_FALSE(halt.IsRetryable()) << halt.ToString();
    // Far more than one 512-byte segment holds: these appends must rotate.
    for (int i = 2; i < 40; ++i) wal.Append(MakeInsert(1, 1, i));
    EXPECT_FALSE(wal.Sync(wal.LastLsn()).ok());
    wal.SimulateCrash();
    Failpoints::Instance().DisableAll();
  }
  Wal reloaded;
  const Status open = reloaded.OpenDurable(SmallSegments());
  ASSERT_TRUE(open.ok()) << open.ToString();
  // The acked record survives. The doomed one was written but never synced,
  // so it may or may not; nothing appended after the halt does.
  EXPECT_GE(reloaded.LastLsn(), 1u);
  EXPECT_LE(reloaded.LastLsn(), doomed);
  ASSERT_TRUE(reloaded.At(1).ok());
}

TEST_F(WalSegmentTest, ShortWritesAndEintrAcrossRotationsAreInvisible) {
  // Regression for the partial-write family: POSIX write(2) may return
  // having consumed any prefix of the buffer, and both write and fsync may
  // be interrupted by a signal. Inject short writes on every write site the
  // rotation path touches (record frames, segment headers, manifest temp
  // file) plus EINTR on the fsync path, run a multi-rotation workload, and
  // demand the faults are completely invisible: no error surfaces and every
  // record survives reopen byte-for-byte.
  constexpr const char* kSpec =
      "wal.write=short@2*8;wal.header.write=short@1*2;"
      "wal.manifest.write=short@1*2;wal.fsync=eintr*4";
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    ASSERT_TRUE(Failpoints::Instance().ConfigureFromString(kSpec).ok());
    for (int i = 0; i < 200; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    ASSERT_GT(wal.segmented_log()->num_segments(), 3u);
    // Each injected site must actually have fired — a spec that never
    // reaches its site proves nothing.
    EXPECT_GT(Failpoints::Instance().fires("wal.write"), 0u);
    EXPECT_GT(Failpoints::Instance().fires("wal.header.write"), 0u);
    EXPECT_GT(Failpoints::Instance().fires("wal.manifest.write"), 0u);
    EXPECT_GT(Failpoints::Instance().fires("wal.fsync"), 0u);
    Failpoints::Instance().DisableAll();
  }
  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  ASSERT_EQ(reloaded.size(), 200u);
  for (Lsn l = 1; l <= 200; ++l) {
    auto rec = reloaded.At(l);
    ASSERT_TRUE(rec.ok()) << "lsn " << l;
    EXPECT_EQ(rec->key, Row({static_cast<int64_t>(l - 1)}));
  }
}

TEST_F(WalSegmentTest, RepairCullRewritesManifestBeforeMovingFiles) {
  // Regression: RepairLocked's empty-segment cull must rewrite the manifest
  // BEFORE renaming culled files into the recycle pool — the same ordering
  // RecycleBefore uses. The old file-first order let a failed manifest
  // rewrite (entirely plausible on the sick disk that triggered the repair)
  // leave the on-disk manifest listing segments whose files were already
  // renamed to recycle-<id>.pool, making every subsequent Open fail with
  // Corruption — a permanently unopenable WAL.
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 20; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  // An append-free restart leaves its fresh segment closed and empty in the
  // chain — a cull victim for the next repair.
  { Wal wal; ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok()); }

  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    // One transient fsync failure forces a fsync-gate repair, whose rotation
    // leaves the truncated stub empty and culls it together with the empty
    // restart segment; the permanent manifest fault then fails the repair's
    // manifest rewrite mid-cull and halts the writer.
    ASSERT_TRUE(Failpoints::Instance()
                    .ConfigureFromString(
                        "wal.fsync=eio:transient;wal.manifest.write=eio")
                    .ok());
    wal.Append(MakeInsert(1, 1, 100));
    const Status st = wal.Sync(wal.LastLsn());
    EXPECT_FALSE(st.ok());
    EXPECT_GT(Failpoints::Instance().fires("wal.fsync"), 0u);
    EXPECT_GT(Failpoints::Instance().fires("wal.manifest.write"), 0u);
    Failpoints::Instance().DisableAll();
    wal.SimulateCrash();
  }
  // Every file the on-disk manifest lists must still be where the manifest
  // says it is: the chain reopens and the acked prefix is intact.
  Wal reloaded;
  const Status open = reloaded.OpenDurable(SmallSegments());
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_EQ(reloaded.LastLsn(), 20u);
  for (Lsn l = 1; l <= 20; ++l) {
    ASSERT_TRUE(reloaded.At(l).ok()) << "lsn " << l;
  }
}

TEST_F(WalSegmentTest, OpenSweepsOrphansButPreservesQuarantine) {
  {
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(SmallSegments()).ok());
    for (int i = 0; i < 50; ++i) wal.Append(MakeInsert(1, 1, i));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  }
  // Garbage a dead incarnation can leave behind: a segment file created
  // right before the crash but never listed in the manifest, and the
  // manifest rewrite's temp file. Plus one file that is NOT garbage: a
  // quarantined segment set aside by a previous scrub for offline salvage.
  const std::string orphan_seg = SegmentedLog::SegmentPath(dir_, 999);
  const std::string stale_tmp = dir_ + "/wal.manifest.tmp";
  const std::string quarantined = dir_ + "/quarantine-7.bad";
  for (const std::string& path : {orphan_seg, stale_tmp, quarantined}) {
    std::ofstream f(path, std::ios::binary);
    f << "leftover bytes from a dead incarnation";
    ASSERT_TRUE(f.good());
  }

  Wal reloaded;
  ASSERT_TRUE(reloaded.OpenDurable(SmallSegments()).ok());
  EXPECT_FALSE(std::filesystem::exists(orphan_seg))
      << "unlisted segment file must be swept";
  EXPECT_FALSE(std::filesystem::exists(stale_tmp))
      << "stale manifest temp file must be swept";
  EXPECT_TRUE(std::filesystem::exists(quarantined))
      << "quarantined evidence must never be swept";
  // The sweep touched nothing the manifest lists: all records intact.
  EXPECT_EQ(reloaded.size(), 50u);
  for (Lsn l = 1; l <= 50; ++l) {
    ASSERT_TRUE(reloaded.At(l).ok()) << "lsn " << l;
  }
}

TEST_F(WalSegmentTest, OpenDurableRejectsUsedWal) {
  Wal wal;
  wal.Append(MakeInsert(1, 1, 1));
  EXPECT_TRUE(wal.OpenDurable(WalOptions{dir_}).IsInvalidArgument());
}

}  // namespace
}  // namespace morph::wal
