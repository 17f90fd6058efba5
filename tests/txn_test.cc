#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "txn/lock_manager.h"
#include "txn/transform_locks.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace morph::txn {
namespace {

RecordId Rid(TableId table, int64_t key) { return RecordId{table, Row({key})}; }

// --- LockManager -----------------------------------------------------------------

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_EQ(lm.num_locks(), 2u);
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager lm(/*wait_timeout_micros=*/50'000);
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kShared).ok());
  // Txn 2 is younger than holder 1 -> wait-die kills it immediately.
  EXPECT_TRUE(lm.Acquire(2, Rid(1, 5), LockMode::kExclusive).IsDeadlock());
}

TEST(LockManagerTest, OlderTransactionWaitsForRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(2, Rid(1, 5), LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  // Txn 1 is older than holder 2: it must wait, then get the lock.
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kExclusive).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(2);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lm.Holds(1, Rid(1, 5), LockMode::kExclusive));
}

TEST(LockManagerTest, ReentrantAcquire) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_EQ(lm.num_locks(), 1u);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, Rid(1, 5), LockMode::kExclusive));
  EXPECT_EQ(lm.num_locks(), 1u);
}

TEST(LockManagerTest, UpgradeDiesAgainstOlderSharer) {
  LockManager lm(/*wait_timeout_micros=*/50'000);
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, Rid(1, 5), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, Rid(1, 5), LockMode::kExclusive).IsDeadlock());
}

TEST(LockManagerTest, ReleaseAllWakesWaiters) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(5, Rid(1, 1), LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(5, Rid(1, 2), LockMode::kExclusive).ok());
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(1, Rid(1, 1), LockMode::kExclusive).ok());
    EXPECT_TRUE(lm.Acquire(1, Rid(1, 2), LockMode::kExclusive).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lm.ReleaseAll(5);
  waiter.join();
  EXPECT_EQ(lm.LocksOf(1).size(), 2u);
  EXPECT_TRUE(lm.LocksOf(5).empty());
}

TEST(LockManagerTest, DistinctRecordsDoNotConflict) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, Rid(1, 5), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, Rid(1, 6), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(3, Rid(2, 5), LockMode::kExclusive).ok());
}

TEST(LockManagerTest, StressManyThreads) {
  LockManager lm;
  constexpr int kThreads = 8;
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const TxnId txn = t + 1;
      for (int i = 0; i < 500; ++i) {
        const Status st = lm.Acquire(txn, Rid(1, i % 17), LockMode::kExclusive);
        if (st.ok()) granted++;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(granted.load(), 0);
  EXPECT_EQ(lm.num_locks(), 0u);
}

// --- TransformLockTable (Figure 2) --------------------------------------------------

using O = LockOrigin;
using A = Access;

// The paper's Figure 2 matrix, entry by entry. Row/column order:
// R.r, S.r, T.r, R.w, S.w, T.w.
TEST(TransformLockMatrixTest, Figure2EntryByEntry) {
  struct Mode {
    O origin;
    A access;
  };
  const Mode modes[6] = {
      {O::kSource0, A::kRead},  {O::kSource1, A::kRead},
      {O::kTarget, A::kRead},   {O::kSource0, A::kWrite},
      {O::kSource1, A::kWrite}, {O::kTarget, A::kWrite},
  };
  const bool expected[6][6] = {
      // R.r   S.r   T.r   R.w   S.w   T.w
      {true, true, true, true, true, false},    // R.r
      {true, true, true, true, true, false},    // S.r
      {true, true, true, false, false, false},  // T.r
      {true, true, false, true, true, false},   // R.w
      {true, true, false, true, true, false},   // S.w
      {false, false, false, false, false, false},  // T.w
  };
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(TransformLockTable::Compatible(modes[i].origin, modes[i].access,
                                               modes[j].origin, modes[j].access),
                expected[i][j])
          << "matrix entry (" << i << ", " << j << ")";
    }
  }
}

TEST(TransformLockTest, TransferredLocksNeverConflict) {
  TransformLockTable tl;
  // Conflicting-looking source writes on the same T record coexist (their
  // real conflict, if any, is resolved in the source tables).
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  tl.AddTransferred(2, Rid(9, 5), O::kSource1, A::kWrite);
  tl.AddTransferred(3, Rid(9, 5), O::kSource0, A::kWrite);
  EXPECT_EQ(tl.num_locks(), 3u);
}

TEST(TransformLockTest, TargetWaitsForTransferredWrite) {
  TransformLockTable tl(/*wait_timeout_micros=*/50'000);
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  EXPECT_TRUE(tl.WouldBlockTarget(Rid(9, 5), A::kRead, /*self=*/7));
  EXPECT_TRUE(tl.AcquireTarget(7, Rid(9, 5), A::kRead, /*wait=*/false).IsBusy());
  tl.ReleaseTxn(1);
  EXPECT_TRUE(tl.AcquireTarget(7, Rid(9, 5), A::kRead, false).ok());
}

TEST(TransformLockTest, TargetReadCompatibleWithTransferredRead) {
  TransformLockTable tl;
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kRead);
  EXPECT_TRUE(tl.AcquireTarget(7, Rid(9, 5), A::kRead, false).ok());
  // But a target write conflicts with everything.
  EXPECT_TRUE(tl.AcquireTarget(8, Rid(9, 5), A::kWrite, false).IsBusy());
}

TEST(TransformLockTest, SourceBlockedByTargetWrite) {
  TransformLockTable tl;
  ASSERT_TRUE(tl.AcquireTarget(7, Rid(9, 5), A::kWrite, false).ok());
  EXPECT_TRUE(tl.WouldBlockSource(Rid(9, 5), A::kRead, /*self=*/1));
  EXPECT_TRUE(tl.WouldBlockSource(Rid(9, 5), A::kWrite, /*self=*/1));
  tl.ReleaseTxn(7);
  EXPECT_FALSE(tl.WouldBlockSource(Rid(9, 5), A::kWrite, /*self=*/1));
}

TEST(TransformLockTest, WaiterWokenByRelease) {
  TransformLockTable tl;
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(tl.AcquireTarget(7, Rid(9, 5), A::kWrite, /*wait=*/true).ok());
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  tl.ReleaseTxn(1);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(TransformLockTest, ReacquisitionIsIdempotent) {
  TransformLockTable tl;
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  EXPECT_EQ(tl.num_locks(), 1u);
  ASSERT_TRUE(tl.AcquireTarget(7, Rid(9, 6), A::kWrite, false).ok());
  ASSERT_TRUE(tl.AcquireTarget(7, Rid(9, 6), A::kWrite, false).ok());
  EXPECT_EQ(tl.num_locks(), 2u);
}

TEST(TransformLockTest, ClearReleasesEverything) {
  TransformLockTable tl;
  tl.AddTransferred(1, Rid(9, 5), O::kSource0, A::kWrite);
  ASSERT_TRUE(tl.AcquireTarget(7, Rid(9, 6), A::kWrite, false).ok());
  tl.Clear();
  EXPECT_EQ(tl.num_locks(), 0u);
  EXPECT_TRUE(tl.AcquireTarget(8, Rid(9, 5), A::kWrite, false).ok());
}

// --- TransactionManager ----------------------------------------------------------------

TEST(TxnManagerTest, BeginLogsAndRegisters) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  auto t1 = tm.Begin();
  auto t2 = tm.Begin();
  EXPECT_EQ(t1->id(), 1u);
  EXPECT_EQ(t2->id(), 2u);
  EXPECT_EQ(tm.num_active(), 2u);
  EXPECT_EQ(wal.size(), 2u);
  EXPECT_EQ(wal.At(1)->type, wal::LogRecordType::kBegin);
  EXPECT_EQ(t1->first_lsn(), 1u);
}

TEST(TxnManagerTest, CommitRemovesFromActiveTable) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  auto t = tm.Begin();
  EXPECT_TRUE(tm.Commit(t).ok());
  EXPECT_EQ(t->state(), TxnState::kCommitted);
  EXPECT_EQ(tm.num_active(), 0u);
  EXPECT_EQ(wal.At(wal.LastLsn())->type, wal::LogRecordType::kCommit);
  // Double commit rejected.
  EXPECT_TRUE(tm.Commit(t).IsInvalidArgument());
}

TEST(TxnManagerTest, AbortLifecycle) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  auto t = tm.Begin();
  EXPECT_TRUE(tm.BeginAbort(t).ok());
  EXPECT_EQ(t->state(), TxnState::kAborting);
  EXPECT_EQ(tm.num_active(), 1u);  // still active until undo completes
  EXPECT_TRUE(tm.EndAbort(t).ok());
  EXPECT_EQ(t->state(), TxnState::kAborted);
  EXPECT_EQ(tm.num_active(), 0u);
  EXPECT_TRUE(t->finished());
}

TEST(TxnManagerTest, SnapshotTracksOldestActive) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  auto snap0 = tm.Snapshot();
  EXPECT_TRUE(snap0.txns.empty());
  EXPECT_EQ(snap0.min_first_lsn, kInvalidLsn);

  auto t1 = tm.Begin();  // BEGIN at lsn 1
  auto t2 = tm.Begin();  // BEGIN at lsn 2
  auto snap = tm.Snapshot();
  EXPECT_EQ(snap.txns.size(), 2u);
  EXPECT_EQ(snap.min_first_lsn, 1u);

  ASSERT_TRUE(tm.Commit(t1).ok());
  snap = tm.Snapshot();
  EXPECT_EQ(snap.txns.size(), 1u);
  EXPECT_EQ(snap.min_first_lsn, 2u);
  ASSERT_TRUE(tm.Commit(t2).ok());
}

TEST(TxnManagerTest, ActiveBeforeFiltersOnEpoch) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  std::atomic<TxnEpoch> epoch{0};
  auto t1 = tm.Begin(&epoch);
  epoch.store(1);
  auto t2 = tm.Begin(&epoch);
  EXPECT_EQ(tm.ActiveBefore(1).size(), 1u);
  EXPECT_EQ(tm.ActiveBefore(1)[0]->id(), t1->id());
  EXPECT_EQ(tm.ActiveBefore(2).size(), 2u);
  EXPECT_EQ(tm.ActiveBefore(0).size(), 0u);
  (void)t2;
}

// Begins racing epoch advances: whichever epoch a transaction reads, a
// switch-over that advanced past it and then scanned ActiveBefore must see
// it — otherwise the drain stops waiting for a transaction that still runs
// with a pre-switch epoch.
TEST(TxnManagerTest, BeginRacingEpochAdvanceIsSeenByActiveBefore) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  std::atomic<TxnEpoch> epoch{0};
  constexpr int kBeginners = 3;
  constexpr int kBeginsEach = 2'000;
  std::atomic<bool> go{false};
  std::atomic<int> running{kBeginners};
  std::vector<std::vector<std::shared_ptr<Transaction>>> begun(kBeginners);
  std::vector<std::thread> threads;
  for (int b = 0; b < kBeginners; ++b) {
    threads.emplace_back([&, b] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kBeginsEach; ++i) {
        begun[b].push_back(tm.Begin(&epoch));
      }
      running.fetch_sub(1);
    });
  }
  // Nothing commits, so ActiveBefore(N) can only miss a transaction with
  // epoch < N, never add one: comparing its size at scan time with the
  // final count of such transactions checks set equality.
  struct Scan {
    TxnEpoch epoch;
    size_t seen;
  };
  std::vector<Scan> scans;
  go.store(true);
  while (running.load() > 0) {
    const TxnEpoch advanced = epoch.fetch_add(1) + 1;
    scans.push_back({advanced, tm.ActiveBefore(advanced).size()});
  }
  for (auto& t : threads) t.join();

  ASSERT_FALSE(scans.empty());
  for (const Scan& scan : scans) {
    size_t below = 0;
    for (const auto& thread_txns : begun) {
      for (const auto& t : thread_txns) below += t->epoch() < scan.epoch;
    }
    ASSERT_EQ(scan.seen, below)
        << "a transaction with epoch < " << scan.epoch
        << " registered after ActiveBefore(" << scan.epoch << ") ran";
  }
}

TEST(TxnManagerTest, FindLocatesActiveOnly) {
  wal::Wal wal;
  TransactionManager tm(&wal);
  auto t = tm.Begin();
  EXPECT_EQ(tm.Find(t->id()), t);
  ASSERT_TRUE(tm.Commit(t).ok());
  EXPECT_EQ(tm.Find(t->id()), nullptr);
}

}  // namespace
}  // namespace morph::txn
