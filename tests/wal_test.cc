#include <gtest/gtest.h>

#include <thread>

#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/wal.h"

namespace morph::wal {
namespace {

LogRecord MakeInsert(TxnId txn, TableId table, int64_t key) {
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.txn_id = txn;
  rec.table_id = table;
  rec.key = Row({key});
  rec.after = Row({key, "payload"});
  return rec;
}

TEST(WalTest, AppendAssignsIncreasingLsns) {
  Wal wal;
  EXPECT_EQ(wal.LastLsn(), kInvalidLsn);
  EXPECT_EQ(wal.Append(MakeInsert(1, 1, 10)), 1u);
  EXPECT_EQ(wal.Append(MakeInsert(1, 1, 11)), 2u);
  EXPECT_EQ(wal.LastLsn(), 2u);
  EXPECT_EQ(wal.size(), 2u);
}

TEST(WalTest, AtReturnsRecordOrNotFound) {
  Wal wal;
  wal.Append(MakeInsert(7, 3, 42));
  auto rec = wal.At(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->txn_id, 7u);
  EXPECT_EQ(rec->table_id, 3u);
  EXPECT_EQ(rec->lsn, 1u);
  EXPECT_TRUE(wal.At(0).status().IsNotFound());
  EXPECT_TRUE(wal.At(2).status().IsNotFound());
}

TEST(WalTest, ScanVisitsRangeInOrder) {
  Wal wal;
  for (int i = 0; i < 1000; ++i) wal.Append(MakeInsert(1, 1, i));
  std::vector<Lsn> seen;
  auto last = wal.ScanChecked(10, 500, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
  });
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 500u);
  ASSERT_EQ(seen.size(), 491u);
  EXPECT_EQ(seen.front(), 10u);
  EXPECT_EQ(seen.back(), 500u);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_EQ(seen[i], seen[i - 1] + 1);
}

TEST(WalTest, ScanClampsToEnd) {
  Wal wal;
  wal.Append(MakeInsert(1, 1, 1));
  size_t n = 0;
  ASSERT_TRUE(wal.ScanChecked(1, 1000000, [&](const LogRecord&) { n++; }).ok());
  EXPECT_EQ(n, 1u);
}

TEST(WalTest, ScanEmptyRange) {
  Wal wal;
  size_t n = 0;
  auto last = wal.ScanChecked(1, 100, [&](const LogRecord&) { n++; });
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, kInvalidLsn);
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, TruncateBeforeDropsPrefix) {
  Wal wal;
  for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
  wal.TruncateBefore(50);
  EXPECT_EQ(wal.FirstLsn(), 50u);
  EXPECT_EQ(wal.LastLsn(), 100u);
  EXPECT_TRUE(wal.At(49).status().IsNotFound());
  ASSERT_TRUE(wal.At(50).ok());
  EXPECT_EQ(wal.At(50)->lsn, 50u);
  // LSNs keep rising after truncation.
  EXPECT_EQ(wal.Append(MakeInsert(1, 1, 200)), 101u);
  // A scan over the dropped prefix reports the gap; from FirstLsn() on, it
  // sees the rest.
  size_t n = 0;
  EXPECT_TRUE(wal.ScanChecked(1, 101, [&](const LogRecord&) { n++; })
                  .status()
                  .IsCorruption());
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(wal.ScanChecked(wal.FirstLsn(), 101, [&](const LogRecord&) { n++; }).ok());
  EXPECT_EQ(n, 52u);
}

TEST(WalTest, ConcurrentAppendersGetDistinctLsns) {
  Wal wal;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        wal.Append(MakeInsert(t + 1, 1, i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wal.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(wal.LastLsn(), static_cast<Lsn>(kThreads * kPerThread));
}

TEST(WalTest, ScannerRunsConcurrentlyWithAppender) {
  Wal wal;
  for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));
  std::thread appender([&wal] {
    for (int i = 0; i < 5000; ++i) wal.Append(MakeInsert(2, 1, i));
  });
  size_t total = 0;
  // Repeatedly scan whatever is visible; must never crash or see gaps.
  for (int round = 0; round < 20; ++round) {
    Lsn prev = 0;
    wal.ScanChecked(1, wal.LastLsn(), [&](const LogRecord& rec) {
      EXPECT_EQ(rec.lsn, prev + 1);
      prev = rec.lsn;
      total++;
    });
  }
  appender.join();
  EXPECT_GT(total, 0u);
}

// --- LogRecord serialization ----------------------------------------------------

TEST(LogRecordTest, RoundTripAllFields) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 42;
  rec.prev_lsn = 17;
  rec.table_id = 3;
  rec.key = Row({7, "k"});
  rec.before = Row({7, "k", 1.5, Value::Null()});
  rec.after = Row({7, "k", 2.5, true});
  rec.updated_columns = {2, 3};
  rec.before_values = {Value(1.5), Value::Null()};
  rec.after_values = {Value(2.5), Value(true)};
  rec.undo_next_lsn = 5;
  rec.clr_action = ClrAction::kUndoUpdate;
  rec.active_txns = {1, 2, 3};
  rec.min_active_lsn = 4;
  rec.lsn = 99;

  std::string buf;
  rec.EncodeTo(&buf);
  size_t offset = 0;
  auto decoded = LogRecord::Decode(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(decoded->lsn, 99u);
  EXPECT_EQ(decoded->type, LogRecordType::kUpdate);
  EXPECT_EQ(decoded->txn_id, 42u);
  EXPECT_EQ(decoded->prev_lsn, 17u);
  EXPECT_EQ(decoded->table_id, 3u);
  EXPECT_EQ(decoded->key, rec.key);
  EXPECT_EQ(decoded->before, rec.before);
  EXPECT_EQ(decoded->after, rec.after);
  EXPECT_EQ(decoded->updated_columns, rec.updated_columns);
  EXPECT_EQ(decoded->before_values[1], Value::Null());
  EXPECT_EQ(decoded->after_values[1], Value(true));
  EXPECT_EQ(decoded->undo_next_lsn, 5u);
  EXPECT_EQ(decoded->active_txns, rec.active_txns);
  EXPECT_EQ(decoded->min_active_lsn, 4u);
}

TEST(LogRecordTest, DecodeTruncatedFails) {
  LogRecord rec = MakeInsert(1, 1, 5);
  std::string buf;
  rec.EncodeTo(&buf);
  for (size_t cut : {size_t{1}, buf.size() / 2, buf.size() - 1}) {
    size_t offset = 0;
    auto decoded = LogRecord::Decode(std::string_view(buf).substr(0, cut),
                                     &offset);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(LogRecordTest, DecodeSequence) {
  std::string buf;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec = MakeInsert(1, 1, i);
    rec.lsn = i + 1;
    rec.EncodeTo(&buf);
  }
  size_t offset = 0;
  int n = 0;
  while (offset < buf.size()) {
    auto rec = LogRecord::Decode(buf, &offset);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->lsn, static_cast<Lsn>(n + 1));
    n++;
  }
  EXPECT_EQ(n, 10);
}

// What one incarnation synced, the next replays, whether it died or shut
// down cleanly.
TEST(WalTest, SaveAndLoadFileRoundTrip) {
  const morph::testing::TestWalDir wal_dir;
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(wal_dir.options()).ok());
  for (int i = 0; i < 500; ++i) wal.Append(MakeInsert(i % 7, 1, i));
  morph::testing::SyncAndCrash(&wal);

  Wal loaded;
  ASSERT_TRUE(loaded.OpenDurable(wal_dir.options()).ok());
  EXPECT_EQ(loaded.size(), wal.size());
  EXPECT_EQ(loaded.LastLsn(), wal.LastLsn());
  auto a = wal.At(250);
  auto b = loaded.At(250);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->txn_id, b->txn_id);
}

// Regression (doc/behavior mismatch): LastLsn() means "last *assigned* LSN".
// It is kInvalidLsn only for a brand-new log; after truncation — including
// full truncation that empties the log — it keeps returning the last
// assigned LSN, which the checkpointer's guard and the coordinator's
// catch-up bounds rely on.
TEST(WalTest, LastLsnContractAfterFullTruncation) {
  Wal wal;
  EXPECT_EQ(wal.LastLsn(), kInvalidLsn);  // never assigned anything
  for (int i = 0; i < 10; ++i) wal.Append(MakeInsert(1, 1, i));
  EXPECT_EQ(wal.LastLsn(), 10u);
  wal.TruncateBefore(11);  // empties the log
  EXPECT_EQ(wal.size(), 0u);
  EXPECT_EQ(wal.LastLsn(), 10u);       // NOT kInvalidLsn: 10 was assigned
  EXPECT_EQ(wal.FirstLsn(), 11u);      // FirstLsn == LastLsn+1 when empty
  EXPECT_EQ(wal.Append(MakeInsert(1, 1, 99)), 11u);
}

// Regression (hang): Sync of an LSN no append assigned used to wait for a
// durable horizon that never reaches it. It is refused, in both modes.
TEST(WalTest, SyncPastLastLsnIsInvalidArgument) {
  Wal in_memory;
  EXPECT_TRUE(in_memory.Sync(in_memory.LastLsn() + 1).IsInvalidArgument());
  in_memory.Append(MakeInsert(1, 1, 1));
  EXPECT_TRUE(in_memory.Sync(in_memory.LastLsn()).ok());
  EXPECT_TRUE(in_memory.Sync(in_memory.LastLsn() + 1).IsInvalidArgument());

  const morph::testing::TestWalDir wal_dir;
  Wal durable;
  ASSERT_TRUE(durable.OpenDurable(wal_dir.options()).ok());
  EXPECT_TRUE(durable.Sync(durable.LastLsn() + 1).IsInvalidArgument());
  durable.Append(MakeInsert(1, 1, 1));
  EXPECT_TRUE(durable.Sync(durable.LastLsn()).ok());
  const Status past = durable.Sync(durable.LastLsn() + 1);
  EXPECT_TRUE(past.IsInvalidArgument()) << past.ToString();
}

// Regression (LSN reuse): an empty (fully truncated) log must survive a
// crash without resetting its LSN space — the manifest persists the base
// LSN.
TEST(WalTest, EmptyLogRoundTripPreservesBaseLsn) {
  const morph::testing::TestWalDir wal_dir;
  Wal wal;
  ASSERT_TRUE(wal.OpenDurable(wal_dir.options()).ok());
  for (int i = 0; i < 20; ++i) wal.Append(MakeInsert(1, 1, i));
  // Sync first: truncation never passes the durable horizon.
  ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
  wal.TruncateBefore(21);
  ASSERT_EQ(wal.size(), 0u);
  wal.SimulateCrash();

  Wal loaded;
  ASSERT_TRUE(loaded.OpenDurable(wal_dir.options()).ok());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.FirstLsn(), 21u);
  EXPECT_EQ(loaded.LastLsn(), 20u);
  // The recovered engine must NOT re-issue consumed LSNs.
  EXPECT_EQ(loaded.Append(MakeInsert(1, 1, 7)), 21u);
}

// Regression (silent gap skip): the scan reports Corruption when a pin-less
// truncate has raced past the reader instead of skipping the dropped range.
TEST(WalTest, ScanCheckedDetectsGapFromTruncation) {
  Wal wal;
  for (int i = 0; i < 100; ++i) wal.Append(MakeInsert(1, 1, i));

  // A reader mid-log: first batch reads fine.
  size_t seen = 0;
  auto first = wal.ScanChecked(1, 10, [&](const LogRecord&) { seen++; });
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 10u);
  EXPECT_EQ(seen, 10u);

  // A pin-less truncate races past the reader's resume point...
  wal.TruncateBefore(50);

  // ...and the resumed scan fails loudly instead of silently skipping
  // records 11..49.
  seen = 0;
  auto resumed = wal.ScanChecked(11, 100, [&](const LogRecord&) { seen++; });
  EXPECT_TRUE(resumed.status().IsCorruption()) << resumed.status().ToString();
  EXPECT_EQ(seen, 0u);

  // From the surviving range the scan reads on.
  auto ok = wal.ScanChecked(50, 100, [&](const LogRecord&) { seen++; });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 100u);
  EXPECT_EQ(seen, 51u);
}

TEST(LogRecordTest, ToStringIsInformative) {
  LogRecord rec = MakeInsert(5, 2, 9);
  rec.lsn = 3;
  const std::string s = rec.ToString();
  EXPECT_NE(s.find("INSERT"), std::string::npos);
  EXPECT_NE(s.find("txn=5"), std::string::npos);
  EXPECT_NE(s.find("tbl=2"), std::string::npos);
}

}  // namespace
}  // namespace morph::wal
