#include <gtest/gtest.h>

#include "common/relops.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/split.h"

namespace morph::transform {
namespace {

using morph::testing::RowsToString;
using morph::testing::Sorted;
using morph::testing::SortedRows;

// Drives SplitRules directly with hand-constructed ops, pinning down rules
// 8-11 (paper §5). T(id, zip, city, body) splits into R(id, zip, body) and
// S(zip, city) on zip.
class SplitRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t_src_ = *db_.CreateTable("t", morph::testing::TSplitSchema());
  }

  void Populate(const std::vector<Row>& t_rows, bool assume_consistent = true) {
    ASSERT_TRUE(db_.BulkLoad(t_src_.get(), t_rows).ok());
    SplitSpec spec;
    spec.t_table = "t";
    spec.r_columns = {"id", "zip", "body"};
    spec.s_columns = {"zip", "city"};
    spec.split_columns = {"zip"};
    spec.r_name = "r_out";
    spec.s_name = "s_out";
    spec.assume_consistent = assume_consistent;
    auto rules = SplitRules::Make(&db_, spec);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    rules_ = std::move(rules).ValueOrDie();
    ASSERT_TRUE(rules_->Prepare().ok());
    ASSERT_TRUE(rules_->InitialPopulate().ok());
    r_ = rules_->r_table();
    s_ = rules_->s_table();
  }

  Op InsT(int64_t id, int64_t zip, const std::string& city,
          const std::string& body, Lsn lsn) {
    Op op;
    op.type = OpType::kInsert;
    op.lsn = lsn;
    op.txn_id = 1;
    op.table_id = t_src_->id();
    op.key = Row({id});
    op.after = Row({id, zip, city, body});
    return op;
  }

  Op DelT(int64_t id, Lsn lsn) {
    Op op;
    op.type = OpType::kDelete;
    op.lsn = lsn;
    op.txn_id = 1;
    op.table_id = t_src_->id();
    op.key = Row({id});
    return op;
  }

  Op UpdT(int64_t id, std::vector<uint32_t> cols, std::vector<Value> before,
          std::vector<Value> after, Lsn lsn) {
    Op op;
    op.type = OpType::kUpdate;
    op.lsn = lsn;
    op.txn_id = 1;
    op.table_id = t_src_->id();
    op.key = Row({id});
    op.updated_columns = std::move(cols);
    op.before_values = std::move(before);
    op.after_values = std::move(after);
    return op;
  }

  Status Apply(const Op& op) { return rules_->Apply(op, nullptr); }

  int64_t CounterOf(int64_t zip) {
    auto rec = s_->Get(Row({zip}));
    return rec.ok() ? rec->counter : -1;
  }
  bool FlagOf(int64_t zip) {
    auto rec = s_->Get(Row({zip}));
    return rec.ok() ? rec->consistent : false;
  }

  engine::Database db_;
  std::shared_ptr<storage::Table> t_src_, r_, s_;
  std::unique_ptr<SplitRules> rules_;
};

TEST_F(SplitRulesTest, InitialImageProjectsAndCounts) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({2, 7050, "Trondheim", "p2"}),
            Row({3, 5020, "Bergen", "p3"})});
  EXPECT_EQ(r_->size(), 3u);
  EXPECT_EQ(s_->size(), 2u);
  EXPECT_EQ(CounterOf(7050), 2);
  EXPECT_EQ(CounterOf(5020), 1);
  EXPECT_EQ(s_->Get(Row({7050}))->row[1], Value("Trondheim"));
  EXPECT_EQ(r_->Get(Row({1}))->row, Row({1, 7050, "p1"}));
  // R records carry the source records' LSNs as state identifiers.
  EXPECT_EQ(r_->Get(Row({1}))->lsn, t_src_->Get(Row({1}))->lsn);
}

// --- Rule 8: insert -----------------------------------------------------------

TEST_F(SplitRulesTest, Rule8InsertNewSplitValue) {
  Populate({});
  EXPECT_TRUE(Apply(InsT(1, 7050, "Trondheim", "p", 100)).ok());
  EXPECT_EQ(r_->size(), 1u);
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_EQ(s_->Get(Row({7050}))->lsn, 100u);
}

TEST_F(SplitRulesTest, Rule8IncrementExistingCounter) {
  Populate({Row({1, 7050, "Trondheim", "p1"})});
  EXPECT_TRUE(Apply(InsT(2, 7050, "Trondheim", "p2", 100)).ok());
  EXPECT_EQ(CounterOf(7050), 2);
  EXPECT_EQ(s_->Get(Row({7050}))->lsn, 100u);
}

TEST_F(SplitRulesTest, Rule8IgnoredWhenRPresent) {
  Populate({Row({1, 7050, "Trondheim", "p1"})});
  // Replay of the very insert reflected in the image: neither R nor the
  // counter may change.
  EXPECT_TRUE(Apply(InsT(1, 7050, "Trondheim", "p1", 1)).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  EXPECT_EQ(CounterOf(7050), 1);
}

TEST_F(SplitRulesTest, Rule8LsnOnlyRaisesNeverLowers) {
  Populate({});
  EXPECT_TRUE(Apply(InsT(1, 7050, "T", "p", 100)).ok());
  EXPECT_TRUE(Apply(InsT(2, 7050, "T", "p", 50)).ok());
  EXPECT_EQ(s_->Get(Row({7050}))->lsn, 100u);  // max, not last
  EXPECT_EQ(CounterOf(7050), 2);
}

// --- Rule 9: delete --------------------------------------------------------------

TEST_F(SplitRulesTest, Rule9DeleteDecrementsAndRemovesAtZero) {
  Populate({Row({1, 7050, "T", "p1"}), Row({2, 7050, "T", "p2"})});
  EXPECT_TRUE(Apply(DelT(1, 100)).ok());
  EXPECT_FALSE(r_->Contains(Row({1})));
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_TRUE(Apply(DelT(2, 101)).ok());
  EXPECT_EQ(s_->size(), 0u);  // counter reached zero → record removed
}

TEST_F(SplitRulesTest, Rule9IgnoredWhenRMissingOrNewer) {
  Populate({Row({1, 7050, "T", "p1"})});
  // Missing record.
  EXPECT_TRUE(Apply(DelT(9, 100)).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  // Newer record: R's LSN is the bulk-load LSN; a delete with a smaller LSN
  // must be ignored.
  EXPECT_TRUE(Apply(DelT(1, 1)).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 2u);
  EXPECT_TRUE(r_->Contains(Row({1})));
  EXPECT_EQ(CounterOf(7050), 1);
}

// --- Rules 10/11: update -------------------------------------------------------------

TEST_F(SplitRulesTest, Rule10UpdatesRPartAndLsn) {
  Populate({Row({1, 7050, "T", "p1"})});
  EXPECT_TRUE(
      Apply(UpdT(1, {3}, {Value("p1")}, {Value("p2")}, 100)).ok());
  EXPECT_EQ(r_->Get(Row({1}))->row, Row({1, 7050, "p2"}));
  EXPECT_EQ(r_->Get(Row({1}))->lsn, 100u);
}

TEST_F(SplitRulesTest, Rule10AdvancesLsnEvenWithoutRColumns) {
  // Update touches only the city (an S column): R's LSN must still advance
  // (the paper is explicit about this).
  Populate({Row({1, 7050, "T", "p1"})});
  const Lsn before = r_->Get(Row({1}))->lsn;
  EXPECT_TRUE(Apply(UpdT(1, {2}, {Value("T")}, {Value("T2")}, 200)).ok());
  EXPECT_GT(r_->Get(Row({1}))->lsn, before);
  EXPECT_EQ(r_->Get(Row({1}))->lsn, 200u);
  EXPECT_EQ(s_->Get(Row({7050}))->row[1], Value("T2"));
}

TEST_F(SplitRulesTest, Rule10IgnoredWhenRNewer) {
  Populate({Row({1, 7050, "T", "p1"})});
  const Lsn image_lsn = r_->Get(Row({1}))->lsn;
  EXPECT_TRUE(Apply(UpdT(1, {3}, {Value("p1")}, {Value("stale")}, 1)).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  EXPECT_EQ(r_->Get(Row({1}))->row[2], Value("p1"));
  EXPECT_EQ(r_->Get(Row({1}))->lsn, image_lsn);
}

TEST_F(SplitRulesTest, Rule11ImageGuardSkipsOlderThanSLsn) {
  // Two contributors; the S image was seeded from the newest row. An update
  // with an LSN below S's must not regress the image — but R's side still
  // applies (its own LSN is older).
  Populate({Row({1, 7050, "New", "p1"}), Row({2, 7050, "New", "p2"})});
  const Lsn s_lsn = s_->Get(Row({7050}))->lsn;
  ASSERT_GE(s_lsn, 2u);
  // Craft an op on record 1 with an LSN between r1's and S's.
  const Lsn r1_lsn = r_->Get(Row({1}))->lsn;
  ASSERT_LT(r1_lsn, s_lsn);
  EXPECT_TRUE(
      Apply(UpdT(1, {2}, {Value("Old")}, {Value("New")}, s_lsn)).ok());
  // s LSN equal → image untouched; R LSN advanced.
  EXPECT_EQ(s_->Get(Row({7050}))->row[1], Value("New"));
  EXPECT_EQ(r_->Get(Row({1}))->lsn, s_lsn);
}

TEST_F(SplitRulesTest, Rule11SplitAttributeMove) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({2, 7050, "Trondheim", "p2"})});
  // Record 1 moves zip 7050 -> 5020 (and its city changes accordingly).
  EXPECT_TRUE(Apply(UpdT(1, {1, 2}, {Value(7050), Value("Trondheim")},
                         {Value(5020), Value("Bergen")}, 100))
                  .ok());
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_EQ(CounterOf(5020), 1);
  EXPECT_EQ(s_->Get(Row({5020}))->row[1], Value("Bergen"));
  EXPECT_EQ(r_->Get(Row({1}))->row[1], Value(5020));
}

TEST_F(SplitRulesTest, Rule11SplitMoveRemovesEmptyBucket) {
  Populate({Row({1, 7050, "Trondheim", "p1"})});
  EXPECT_TRUE(Apply(UpdT(1, {1, 2}, {Value(7050), Value("Trondheim")},
                         {Value(5020), Value("Bergen")}, 100))
                  .ok());
  EXPECT_FALSE(s_->Contains(Row({7050})));
  EXPECT_EQ(CounterOf(5020), 1);
}

TEST_F(SplitRulesTest, Rule11SplitMoveIntoExistingBucket) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({2, 5020, "Bergen", "p2"})});
  EXPECT_TRUE(Apply(UpdT(1, {1, 2}, {Value(7050), Value("Trondheim")},
                         {Value(5020), Value("Bergen")}, 100))
                  .ok());
  EXPECT_FALSE(s_->Contains(Row({7050})));
  EXPECT_EQ(CounterOf(5020), 2);
}

TEST_F(SplitRulesTest, CounterGateUsesRLsnNotSLsn) {
  // Regression test for the subtle case analyzed in the module docs: the S
  // image is seeded from a newer contributor, but a split-attribute move of
  // an older contributor must still re-bucket the counters.
  Populate({Row({1, 7050, "T", "p1"}), Row({2, 7050, "T", "p2"})});
  const Lsn s_lsn = s_->Get(Row({7050}))->lsn;
  const Lsn r1_lsn = r_->Get(Row({1}))->lsn;
  ASSERT_LT(r1_lsn, s_lsn);
  // Op LSN between r1's and S's: must still decrement 7050, increment 9999.
  EXPECT_TRUE(Apply(UpdT(1, {1}, {Value(7050)}, {Value(9999)}, s_lsn)).ok());
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_EQ(CounterOf(9999), 1);
}

// --- Idempotency via replay ----------------------------------------------------------

TEST_F(SplitRulesTest, ReplayingOpsIsIdempotent) {
  Populate({Row({1, 7050, "T", "p1"})});
  const Op ins = InsT(2, 7050, "T", "p2", 100);
  const Op upd = UpdT(1, {3}, {Value("p1")}, {Value("px")}, 101);
  const Op del = DelT(2, 102);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(Apply(ins).ok());
    EXPECT_TRUE(Apply(upd).ok());
    EXPECT_TRUE(Apply(del).ok());
  }
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_EQ(r_->size(), 1u);
  EXPECT_EQ(r_->Get(Row({1}))->row[2], Value("px"));
}

// --- §5.3: consistency flags and the CC -------------------------------------------------

TEST_F(SplitRulesTest, InitialInconsistencyFlagsU) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({134, 7050, "Trnodheim", "p2"})},
           /*assume_consistent=*/false);
  EXPECT_FALSE(FlagOf(7050));
  EXPECT_EQ(rules_->CountInconsistent(), 1u);
  EXPECT_FALSE(rules_->ReadyForSync());
}

TEST_F(SplitRulesTest, ConflictingInsertFlipsCToU) {
  Populate({Row({1, 7050, "Trondheim", "p1"})}, /*assume_consistent=*/false);
  EXPECT_TRUE(FlagOf(7050));
  EXPECT_TRUE(Apply(InsT(2, 7050, "Trnodheim", "p2", 100)).ok());
  EXPECT_FALSE(FlagOf(7050));
}

TEST_F(SplitRulesTest, MatchingInsertKeepsC) {
  Populate({Row({1, 7050, "Trondheim", "p1"})}, /*assume_consistent=*/false);
  EXPECT_TRUE(Apply(InsT(2, 7050, "Trondheim", "p2", 100)).ok());
  EXPECT_TRUE(FlagOf(7050));
}

TEST_F(SplitRulesTest, UpdateWithCounterAboveOneFlipsU) {
  Populate({Row({1, 7050, "T", "p1"}), Row({2, 7050, "T", "p2"})},
           /*assume_consistent=*/false);
  EXPECT_TRUE(FlagOf(7050));
  EXPECT_TRUE(Apply(UpdT(1, {2}, {Value("T")}, {Value("T2")}, 100)).ok());
  EXPECT_FALSE(FlagOf(7050));
}

TEST_F(SplitRulesTest, FullNonKeyUpdateWithCounterOneFlipsUToC) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({134, 7050, "Trnodheim", "p2"})},
           /*assume_consistent=*/false);
  EXPECT_FALSE(FlagOf(7050));
  // Bring the counter to 1, then update all non-key S attributes.
  EXPECT_TRUE(Apply(DelT(134, 100)).ok());
  EXPECT_EQ(CounterOf(7050), 1);
  EXPECT_FALSE(FlagOf(7050));  // delete alone does not restore C
  EXPECT_TRUE(Apply(UpdT(1, {2}, {Value("Trondheim")}, {Value("Oslo")}, 101)).ok());
  EXPECT_TRUE(FlagOf(7050));
}

TEST_F(SplitRulesTest, ConsistencyCheckerUpgradesViaPropagator) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({134, 7050, "Trnodheim", "p2"})},
           /*assume_consistent=*/false);
  ASSERT_FALSE(FlagOf(7050));

  // The data is genuinely inconsistent: CC must refuse to bless it.
  auto n = rules_->RunConsistencyCheck(8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  // The DBA repairs T through a user transaction; the propagator applies it.
  auto txn = db_.Begin();
  ASSERT_TRUE(
      db_.Update(txn, t_src_.get(), Row({134}), {{2, Value("Trondheim")}}).ok());
  ASSERT_TRUE(db_.Commit(txn).ok());
  // Propagate the repair into the split tables by hand.
  bool applied = false;
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kUpdate) {
      auto op = Op::FromLogRecord(rec);
      ASSERT_TRUE(rules_->Apply(*op, nullptr).ok());
      applied = true;
    }
  });
  ASSERT_TRUE(applied);

  // CC now writes the bracket...
  n = rules_->RunConsistencyCheck(8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  // ...which the propagator processes: CC_BEGIN then CC_OK, undisturbed.
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kCcBegin ||
        rec.type == wal::LogRecordType::kCcOk) {
      ASSERT_TRUE(rules_->OnControlRecord(rec).ok());
    }
  });
  EXPECT_TRUE(FlagOf(7050));
  EXPECT_EQ(s_->Get(Row({7050}))->row[1], Value("Trondheim"));
  EXPECT_TRUE(rules_->ReadyForSync());
  EXPECT_EQ(rules_->counters().cc_upgrades, 1u);
}

TEST_F(SplitRulesTest, DisturbedCcBracketIsDiscarded) {
  Populate({Row({1, 7050, "Trondheim", "p1"}), Row({2, 7050, "Trondheim", "p2"})},
           /*assume_consistent=*/false);
  // Force a U flag via a conflicting insert, then repair it so CC passes.
  ASSERT_TRUE(Apply(InsT(3, 7050, "Trnodheim", "p3", 100)).ok());
  ASSERT_FALSE(FlagOf(7050));
  ASSERT_TRUE(Apply(DelT(3, 101)).ok());

  auto n = rules_->RunConsistencyCheck(8);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  // Simulate the propagator: CC_BEGIN, then a concurrent op touching 7050,
  // then CC_OK. The bracket must be discarded.
  std::vector<wal::LogRecord> brackets;
  db_.wal()->ScanChecked(1, db_.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
    if (rec.type == wal::LogRecordType::kCcBegin ||
        rec.type == wal::LogRecordType::kCcOk) {
      brackets.push_back(rec);
    }
  });
  ASSERT_EQ(brackets.size(), 2u);
  ASSERT_TRUE(rules_->OnControlRecord(brackets[0]).ok());
  ASSERT_TRUE(Apply(InsT(9, 7050, "Trondheim", "p9", 200)).ok());  // disturbs
  ASSERT_TRUE(rules_->OnControlRecord(brackets[1]).ok());
  EXPECT_FALSE(FlagOf(7050));
  EXPECT_EQ(rules_->counters().cc_disturbed, 1u);
}

// --- Spec validation ---------------------------------------------------------------------

TEST_F(SplitRulesTest, SpecMustKeepKeyAndSplitInR) {
  SplitSpec spec;
  spec.t_table = "t";
  spec.r_columns = {"id", "body"};  // missing split column
  spec.s_columns = {"zip", "city"};
  spec.split_columns = {"zip"};
  EXPECT_TRUE(SplitRules::Make(&db_, spec).status().IsInvalidArgument());

  spec.r_columns = {"zip", "body"};  // missing T's key
  EXPECT_TRUE(SplitRules::Make(&db_, spec).status().IsInvalidArgument());

  spec.r_columns = {"id", "zip", "body"};
  spec.s_columns = {"city"};  // split column missing from S
  EXPECT_TRUE(SplitRules::Make(&db_, spec).status().IsInvalidArgument());
}

TEST_F(SplitRulesTest, ConvergesToOracleUnderOpSequence) {
  Populate({Row({1, 10, "A", "p1"}), Row({2, 10, "A", "p2"}),
            Row({3, 20, "B", "p3"})});
  Lsn lsn = 1000;
  EXPECT_TRUE(Apply(InsT(4, 30, "C", "p4", lsn++)).ok());
  EXPECT_TRUE(Apply(UpdT(1, {1, 2}, {Value(10), Value("A")},
                         {Value(20), Value("B")}, lsn++))
                  .ok());
  EXPECT_TRUE(Apply(DelT(2, lsn++)).ok());
  EXPECT_TRUE(Apply(UpdT(3, {3}, {Value("p3")}, {Value("p3b")}, lsn++)).ok());

  // Oracle: apply the same changes to a plain row vector and re-split.
  std::vector<Row> t_rows = {Row({1, 20, "B", "p1"}), Row({3, 20, "B", "p3b"}),
                             Row({4, 30, "C", "p4"})};
  auto oracle = morph::Split(t_rows, {0, 1, 3}, {1, 2}, {0});

  EXPECT_EQ(SortedRows(*r_), Sorted(oracle.r_rows));
  EXPECT_EQ(SortedRows(*s_), Sorted(oracle.s_rows));
  // Counters match the oracle bucket sizes.
  for (size_t i = 0; i < oracle.s_rows.size(); ++i) {
    const int64_t zip = oracle.s_rows[i][0].AsInt64();
    EXPECT_EQ(CounterOf(zip), oracle.s_counters[i]) << "zip " << zip;
  }
}

}  // namespace
}  // namespace morph::transform
