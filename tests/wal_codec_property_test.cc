#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/segment.h"
#include "wal/wal.h"

namespace morph::wal {
namespace {

// Property: every representable log record survives an encode/decode round
// trip bit-exactly, and concatenated streams decode record-by-record. Swept
// over seeds with randomized field contents.

class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Value RandomValue(Random* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(rng->Next()));
    case 2:
      return Value(rng->NextDouble() * 1e6 - 5e5);
    case 3: {
      std::string s;
      const size_t n = rng->Uniform(24);
      for (size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng->Uniform(256)));
      }
      return Value(std::move(s));
    }
    default:
      return Value(rng->Bernoulli(0.5));
  }
}

Row RandomRow(Random* rng, size_t max_width) {
  std::vector<Value> values;
  const size_t n = rng->Uniform(max_width + 1);
  for (size_t i = 0; i < n; ++i) values.push_back(RandomValue(rng));
  return Row(std::move(values));
}

LogRecord RandomRecord(Random* rng) {
  LogRecord rec;
  rec.lsn = rng->Next();
  rec.type = static_cast<LogRecordType>(rng->Uniform(11));
  rec.txn_id = rng->Next();
  rec.prev_lsn = rng->Next();
  rec.table_id = static_cast<TableId>(rng->Next());
  rec.key = RandomRow(rng, 4);
  rec.before = RandomRow(rng, 6);
  rec.after = RandomRow(rng, 6);
  const size_t nupd = rng->Uniform(5);
  for (size_t i = 0; i < nupd; ++i) {
    rec.updated_columns.push_back(static_cast<uint32_t>(rng->Uniform(16)));
    rec.before_values.push_back(RandomValue(rng));
    rec.after_values.push_back(RandomValue(rng));
  }
  rec.undo_next_lsn = rng->Next();
  rec.clr_action = static_cast<ClrAction>(rng->Uniform(3));
  const size_t nact = rng->Uniform(6);
  for (size_t i = 0; i < nact; ++i) rec.active_txns.push_back(rng->Next());
  rec.min_active_lsn = rng->Next();
  return rec;
}

void ExpectEqual(const LogRecord& a, const LogRecord& b) {
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn_id, b.txn_id);
  EXPECT_EQ(a.prev_lsn, b.prev_lsn);
  EXPECT_EQ(a.table_id, b.table_id);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.after, b.after);
  EXPECT_EQ(a.updated_columns, b.updated_columns);
  ASSERT_EQ(a.before_values.size(), b.before_values.size());
  for (size_t i = 0; i < a.before_values.size(); ++i) {
    EXPECT_EQ(a.before_values[i], b.before_values[i]);
    EXPECT_EQ(a.after_values[i], b.after_values[i]);
  }
  EXPECT_EQ(a.undo_next_lsn, b.undo_next_lsn);
  EXPECT_EQ(a.clr_action, b.clr_action);
  EXPECT_EQ(a.active_txns, b.active_txns);
  EXPECT_EQ(a.min_active_lsn, b.min_active_lsn);
}

TEST_P(CodecPropertyTest, RoundTripsBitExactly) {
  Random rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const LogRecord rec = RandomRecord(&rng);
    std::string buf;
    rec.EncodeTo(&buf);
    size_t offset = 0;
    auto decoded = LogRecord::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(offset, buf.size());
    ExpectEqual(rec, *decoded);
  }
}

TEST_P(CodecPropertyTest, StreamsDecodeRecordByRecord) {
  Random rng(GetParam() * 7919);
  std::vector<LogRecord> records;
  std::string buf;
  for (int i = 0; i < 50; ++i) {
    records.push_back(RandomRecord(&rng));
    records.back().EncodeTo(&buf);
  }
  size_t offset = 0;
  for (const LogRecord& expected : records) {
    auto decoded = LogRecord::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    ExpectEqual(expected, *decoded);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST_P(CodecPropertyTest, TruncationAtEveryPrefixFailsCleanly) {
  Random rng(GetParam() * 31 + 1);
  const LogRecord rec = RandomRecord(&rng);
  std::string buf;
  rec.EncodeTo(&buf);
  // Cut at a sample of prefixes: decode must fail, never crash or read OOB.
  for (size_t cut = 0; cut < buf.size(); cut += 1 + cut / 7) {
    size_t offset = 0;
    auto decoded =
        LogRecord::Decode(std::string_view(buf).substr(0, cut), &offset);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- torn-write tolerance of the segment chain ------------------------------
//
// A crash tears only the chain's last segment, the one being appended to.
// The segment framing ([size][checksum][payload] per record) must turn the
// two crash artifacts a real filesystem produces there — a truncated tail
// and garbage bytes in partially-written sectors — into a clean "log ends at
// the last valid record", never a decode of garbage and never an error for a
// plain torn tail.

constexpr size_t kSegmentHeaderBytes = 24;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The chain's last segment: the highest segment id in `dir`.
std::string LastSegmentPath(const std::string& dir) {
  uint64_t max_id = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      max_id = std::max<uint64_t>(max_id,
                                  std::strtoull(name.c_str() + 4, nullptr, 10));
    }
  }
  return SegmentedLog::SegmentPath(dir, max_id);
}

/// Offsets in a segment file where a frame starts or the file ends cleanly:
/// the end of the header, then the end of each frame.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries{kSegmentHeaderBytes};
  size_t offset = kSegmentHeaderBytes;
  while (bytes.size() - offset >= 8) {
    codec::Reader frame{bytes, offset, false};
    offset = frame.pos + 8 + frame.GetU32();
    if (offset > bytes.size()) break;
    boundaries.push_back(offset);
  }
  return boundaries;
}

/// A small multi-segment chain of random records, written once; each trial
/// damages the last segment of a fresh copy and reopens it.
class WalFileTornWriteTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void WriteChain(Random* rng, int n) {
    WalOptions opts = pristine_.options();
    opts.segment_bytes = 512;
    Wal wal;
    ASSERT_TRUE(wal.OpenDurable(opts).ok());
    for (int i = 0; i < n; ++i) wal.Append(RandomRecord(rng));
    ASSERT_TRUE(wal.Sync(wal.LastLsn()).ok());
    ASSERT_GT(wal.segmented_log()->num_segments(), 2u);
    ASSERT_TRUE(wal.ScanChecked(1, wal.LastLsn(), [&](const LogRecord& rec) {
                     canonical_.push_back(rec);
                   }).ok());
    tail_ = ReadFileBytes(LastSegmentPath(pristine_.path()));
    boundaries_ = FrameBoundaries(tail_);
    ASSERT_EQ(boundaries_.back(), tail_.size());
    ASSERT_GT(boundaries_.size(), 1u);
  }

  /// Number of records before the last segment's frame `j`.
  size_t RecordsBefore(size_t j) const {
    return canonical_.size() - (boundaries_.size() - 1) + j;
  }

  /// Reopens a copy of the chain whose last segment holds `tail` and
  /// expects exactly the first `expect` records back.
  void ExpectReopensTo(const std::string& tail, size_t expect) {
    std::filesystem::remove_all(work_.path());
    std::filesystem::copy(pristine_.path(), work_.path());
    WriteFileBytes(LastSegmentPath(work_.path()), tail);
    Wal reopened;
    const Status st = reopened.OpenDurable(work_.options());
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(reopened.size(), expect);
    size_t i = 0;
    ASSERT_TRUE(reopened
                    .ScanChecked(1, reopened.LastLsn(),
                                 [&](const LogRecord& rec) {
                                   ExpectEqual(canonical_[i++], rec);
                                 })
                    .ok());
  }

  const morph::testing::TestWalDir pristine_{"pristine"};
  const morph::testing::TestWalDir work_{"work"};
  std::vector<LogRecord> canonical_;
  std::string tail_;                ///< the last segment, undamaged
  std::vector<size_t> boundaries_;  ///< its frame boundaries
};

TEST_P(WalFileTornWriteTest, TruncatedTailKeepsLongestValidPrefix) {
  Random rng(GetParam() * 104729 + 3);
  WriteChain(&rng, 30);

  // Cut at every frame boundary: exactly the frames before it survive.
  for (size_t j = 0; j < boundaries_.size(); ++j) {
    SCOPED_TRACE("cut at frame boundary " + std::to_string(j));
    ExpectReopensTo(tail_.substr(0, boundaries_[j]), RecordsBefore(j));
  }
  // Cut inside each frame, in its frame header and in its payload: the torn
  // frame is dropped, everything before it survives.
  for (size_t j = 0; j + 1 < boundaries_.size(); ++j) {
    for (const size_t cut : {boundaries_[j] + 3,
                             (boundaries_[j] + boundaries_[j + 1]) / 2}) {
      SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of frame " +
                   std::to_string(j));
      ExpectReopensTo(tail_.substr(0, cut), RecordsBefore(j));
    }
  }
}

TEST_P(WalFileTornWriteTest, CorruptedByteYieldsValidPrefix) {
  Random rng(GetParam() * 7907 + 11);
  WriteChain(&rng, 30);

  // Flip one byte in each tail frame: its checksum (or framing) no longer
  // matches, so replay stops there — the frames before it survive, nothing
  // past the damage is ever decoded.
  for (size_t j = 0; j + 1 < boundaries_.size(); ++j) {
    const size_t at =
        boundaries_[j] + rng.Uniform(boundaries_[j + 1] - boundaries_[j]);
    std::string mutated = tail_;
    mutated[at] = static_cast<char>(mutated[at] ^
                                    static_cast<char>(1 + rng.Uniform(255)));
    SCOPED_TRACE("flip at byte " + std::to_string(at) + " of frame " +
                 std::to_string(j));
    ExpectReopensTo(mutated, RecordsBefore(j));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFileTornWriteTest,
                         ::testing::Values(1, 2, 3));

// Restart recovery on a torn chain: whatever committed prefix survives, the
// recovered state is consistent, and recovery stays idempotent.
TEST(WalFileTornWriteTest, RecoveryOnTruncatedLogConverges) {
  const morph::testing::TestWalDir pristine("pristine");
  const morph::testing::TestWalDir work("work");
  WalOptions opts = pristine.options();
  opts.segment_bytes = 512;
  std::vector<Row> initial;
  for (int i = 0; i < 30; ++i) {
    initial.push_back(Row({i, static_cast<int64_t>(i), "p"}));
  }
  {
    engine::Database db;
    ASSERT_TRUE(db.wal()->OpenDurable(opts).ok());
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    ASSERT_TRUE(db.BulkLoad(r.get(), initial).ok());
    for (int i = 0; i < 10; ++i) {
      auto t = db.Begin();
      ASSERT_TRUE(
          db.Update(t, r.get(), Row({i}), {{2, Value("u")}}).ok());
      ASSERT_TRUE(db.Commit(t).ok());
    }
    auto loser = db.Begin();
    ASSERT_TRUE(
        db.Update(loser, r.get(), Row({29}), {{2, Value("x")}}).ok());
    morph::testing::SyncAndCrash(db.wal());
  }
  const std::string tail = ReadFileBytes(LastSegmentPath(pristine.path()));
  ASSERT_GT(tail.size(), kSegmentHeaderBytes);

  for (double frac : {0.0, 0.55, 0.8, 0.95, 1.0}) {
    const size_t cut =
        kSegmentHeaderBytes +
        static_cast<size_t>(frac * static_cast<double>(tail.size() -
                                                       kSegmentHeaderBytes));
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::filesystem::remove_all(work.path());
    std::filesystem::copy(pristine.path(), work.path());
    WriteFileBytes(LastSegmentPath(work.path()), tail.substr(0, cut));
    engine::Database db2;
    auto r2 = *db2.CreateTable("r", morph::testing::RSchema());
    auto stats = engine::Recovery::RestartDurable(db2.wal(), work.options(),
                                                  db2.catalog());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Update-only traffic: the row set never changes, only images do, and
    // every image is either pristine or a committed update.
    EXPECT_EQ(r2->size(), initial.size());
    for (int i = 0; i < 30; ++i) {
      auto rec = r2->Get(Row({i}));
      ASSERT_TRUE(rec.ok()) << i;
      const Value& payload = rec->row[2];
      EXPECT_TRUE(payload == Value("p") || payload == Value("u"))
          << i << " -> " << payload.ToString();
    }
    const size_t wal_size = db2.wal()->size();
    auto stats2 = engine::Recovery::Restart(db2.wal(), db2.catalog());
    ASSERT_TRUE(stats2.ok());
    EXPECT_EQ(stats2->losers, 0u);
    EXPECT_EQ(db2.wal()->size(), wal_size);
  }
}

}  // namespace
}  // namespace morph::wal
