#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>

#include "common/relops.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/foj.h"

namespace morph::transform {
namespace {

using morph::testing::RowsToString;
using morph::testing::Sorted;
using morph::testing::SortedRows;

// Drives FojRules directly with hand-constructed ops, pinning down each of
// the paper's propagation rules (1-7) case by case. R(id, jv, payload) and
// S(sid, jv, info) join on jv; jv is unique in S for the one-to-many tests
// but is NOT S's key, so it can be updated (rule 6).
class FojRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.CreateTable("r", morph::testing::RSchema());
    s_ = *db_.CreateTable("s", morph::testing::SSchema());
  }

  /// Loads initial data, builds the rules and the initial image.
  void Populate(const std::vector<Row>& r_rows, const std::vector<Row>& s_rows) {
    ASSERT_TRUE(db_.BulkLoad(r_.get(), r_rows).ok());
    ASSERT_TRUE(db_.BulkLoad(s_.get(), s_rows).ok());
    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t";
    auto rules = FojRules::Make(&db_, spec);
    ASSERT_TRUE(rules.ok());
    rules_ = std::move(rules).ValueOrDie();
    ASSERT_TRUE(rules_->Prepare().ok());
    ASSERT_TRUE(rules_->InitialPopulate().ok());
    t_ = rules_->target();
  }

  Op InsR(int64_t id, int64_t jv, const std::string& payload) {
    Op op;
    op.type = OpType::kInsert;
    op.lsn = next_lsn_++;
    op.txn_id = 1;
    op.table_id = r_->id();
    op.key = Row({id});
    op.after = Row({id, jv, payload});
    return op;
  }

  Op InsS(int64_t sid, int64_t jv, const std::string& info) {
    Op op;
    op.type = OpType::kInsert;
    op.lsn = next_lsn_++;
    op.txn_id = 1;
    op.table_id = s_->id();
    op.key = Row({sid});
    op.after = Row({sid, jv, info});
    return op;
  }

  Op Del(storage::Table* table, Row key, Row before) {
    Op op;
    op.type = OpType::kDelete;
    op.lsn = next_lsn_++;
    op.txn_id = 1;
    op.table_id = table->id();
    op.key = std::move(key);
    op.before = std::move(before);
    return op;
  }

  Op Upd(storage::Table* table, Row key, std::vector<uint32_t> cols,
         std::vector<Value> before, std::vector<Value> after) {
    Op op;
    op.type = OpType::kUpdate;
    op.lsn = next_lsn_++;
    op.txn_id = 1;
    op.table_id = table->id();
    op.key = std::move(key);
    op.updated_columns = std::move(cols);
    op.before_values = std::move(before);
    op.after_values = std::move(after);
    return op;
  }

  Status Apply(const Op& op) { return rules_->Apply(op, nullptr); }

  /// T row helpers: matched, r-only (t^y_null), s-only (t^null_x).
  static Row TRow(int64_t id, int64_t jv, const std::string& p, int64_t sid,
                  int64_t sjv, const std::string& info) {
    return Row({id, jv, p, sid, sjv, info});
  }
  static Row TRNull(int64_t sid, int64_t jv, const std::string& info) {
    return Row({Value::Null(), Value::Null(), Value::Null(), sid, jv, info});
  }
  static Row TSNull(int64_t id, int64_t jv, const std::string& p) {
    return Row({id, jv, p, Value::Null(), Value::Null(), Value::Null()});
  }

  void ExpectT(std::vector<Row> expected) {
    auto actual = SortedRows(*t_);
    EXPECT_EQ(actual, Sorted(std::move(expected)))
        << "T contains:\n"
        << RowsToString(actual);
  }

  engine::Database db_;
  std::shared_ptr<storage::Table> r_, s_, t_;
  std::unique_ptr<FojRules> rules_;
  Lsn next_lsn_ = 1000;
};

TEST_F(FojRulesTest, InitialImageIsFullOuterJoin) {
  Populate({Row({1, 10, "a"}), Row({2, 99, "b"})}, {Row({100, 10, "x"}),
                                                    Row({200, 55, "y"})});
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TSNull(2, 99, "b"),
           TRNull(200, 55, "y")});
}

// --- Rule 1: insert r^y_x ------------------------------------------------------

TEST_F(FojRulesTest, Rule1IgnoredWhenKeyPresent) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  // Replay of an insert already reflected in the initial image.
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  ExpectT({TRow(1, 10, "a", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule1UpdatesNullRecord) {
  // t^null_x exists; the new R record takes its place.
  Populate({}, {Row({100, 10, "x"})});
  ExpectT({TRNull(100, 10, "x")});
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule1JoinsWithExistingMatch) {
  // t^v_x exists (v != y): the new record joins the s^x-part of t^v_x.
  Populate({Row({5, 10, "v"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  ExpectT({TRow(5, 10, "v", 100, 10, "x"), TRow(1, 10, "a", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule1NoMatchInsertsSNullRecord) {
  Populate({}, {});
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  ExpectT({TSNull(1, 10, "a")});
}

TEST_F(FojRulesTest, Rule1NullJoinValueJoinsNothing) {
  Populate({}, {Row({100, 10, "x"})});
  Op op = InsR(1, 10, "a");
  op.after = Row({1, Value::Null(), "a"});
  EXPECT_TRUE(Apply(op).ok());
  ExpectT({Row({1, Value::Null(), "a", Value::Null(), Value::Null(),
                Value::Null()}),
           TRNull(100, 10, "x")});
}

// --- Rule 2: insert s^x --------------------------------------------------------

TEST_F(FojRulesTest, Rule2UpdatesSNullRecords) {
  // Two R records at jv=10 waiting with s^null halves.
  Populate({Row({1, 10, "a"}), Row({2, 10, "b"})}, {});
  ExpectT({TSNull(1, 10, "a"), TSNull(2, 10, "b")});
  EXPECT_TRUE(Apply(InsS(100, 10, "x")).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TRow(2, 10, "b", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule2NoJoinPartnersInsertsRNull) {
  Populate({Row({1, 99, "a"})}, {});
  EXPECT_TRUE(Apply(InsS(100, 10, "x")).ok());
  ExpectT({TSNull(1, 99, "a"), TRNull(100, 10, "x")});
}

TEST_F(FojRulesTest, Rule2IgnoredWhenAlreadyReflected) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(Apply(InsS(100, 10, "x")).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  ExpectT({TRow(1, 10, "a", 100, 10, "x")});
}

// --- Rule 3: delete r^y ----------------------------------------------------------

TEST_F(FojRulesTest, Rule3DeletesSNullRecord) {
  Populate({Row({1, 99, "a"})}, {});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 99, "a"}))).ok());
  ExpectT({});
}

TEST_F(FojRulesTest, Rule3PreservesLastSRecord) {
  // Deleting the only record containing s^x must leave t^null_x behind.
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 10, "a"}))).ok());
  ExpectT({TRNull(100, 10, "x")});
}

TEST_F(FojRulesTest, Rule3KeepsSWhenOtherMatchesExist) {
  Populate({Row({1, 10, "a"}), Row({2, 10, "b"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 10, "a"}))).ok());
  ExpectT({TRow(2, 10, "b", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule3IgnoredWhenAbsent) {
  Populate({}, {});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 10, "a"}))).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  ExpectT({});
}

// --- Rule 4: delete s^x -----------------------------------------------------------

TEST_F(FojRulesTest, Rule4DeletesRNullAndDowngradesMatches) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"}), Row({200, 55, "y"})});
  // Delete s with jv=55 (only an r-null record) and s with jv=10 (matched).
  EXPECT_TRUE(Apply(Del(s_.get(), Row({200}), Row({200, 55, "y"}))).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x")});
  EXPECT_TRUE(Apply(Del(s_.get(), Row({100}), Row({100, 10, "x"}))).ok());
  ExpectT({TSNull(1, 10, "a")});
}

// --- Rule 5: update join attribute of r -----------------------------------------------

TEST_F(FojRulesTest, Rule5MovesRecordToNewMatch) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"}), Row({200, 20, "y"})});
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TRNull(200, 20, "y")});
  // r1 moves jv 10 -> 20: s^10 orphans into t^null_10; r joins s^20.
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(20)})).ok());
  ExpectT({TRNull(100, 10, "x"), TRow(1, 20, "a", 200, 20, "y")});
}

TEST_F(FojRulesTest, Rule5ToUnmatchedValue) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(77)})).ok());
  ExpectT({TRNull(100, 10, "x"), TSNull(1, 77, "a")});
}

TEST_F(FojRulesTest, Rule5KeepsSWhenOtherMatchesRemain) {
  Populate({Row({1, 10, "a"}), Row({2, 10, "b"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(77)})).ok());
  ExpectT({TRow(2, 10, "b", 100, 10, "x"), TSNull(1, 77, "a")});
}

TEST_F(FojRulesTest, Rule5IgnoredWhenNewerStateReflected) {
  // T already shows jv=20 for r1 (w != x): the logged 10->20 update is stale.
  Populate({Row({1, 20, "a"})}, {});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(20)})).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
  ExpectT({TSNull(1, 20, "a")});
}

TEST_F(FojRulesTest, Rule5CombinedWithOtherColumns) {
  Populate({Row({1, 10, "a"})}, {Row({200, 20, "y"})});
  EXPECT_TRUE(Apply(Upd(r_.get(), Row({1}), {1, 2}, {Value(10), Value("a")},
                        {Value(20), Value("a2")}))
                  .ok());
  ExpectT({TRow(1, 20, "a2", 200, 20, "y")});
}

// --- Rule 6: update join attribute of s -------------------------------------------------

TEST_F(FojRulesTest, Rule6MovesSToNewPartners) {
  Populate({Row({1, 10, "a"}), Row({2, 20, "b"})}, {Row({100, 10, "x"})});
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TSNull(2, 20, "b")});
  // s100 moves jv 10 -> 20: r1 downgrades to s-null; r2 upgrades.
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(20)})).ok());
  ExpectT({TSNull(1, 10, "a"), TRow(2, 20, "b", 100, 20, "x")});
}

TEST_F(FojRulesTest, Rule6ToUnmatchedValueInsertsRNull) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(99)})).ok());
  ExpectT({TSNull(1, 10, "a"), TRNull(100, 99, "x")});
}

TEST_F(FojRulesTest, Rule6DeletesOldRNullRecord) {
  Populate({Row({2, 20, "b"})}, {Row({100, 10, "x"})});
  ExpectT({TSNull(2, 20, "b"), TRNull(100, 10, "x")});
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(20)})).ok());
  ExpectT({TRow(2, 20, "b", 100, 20, "x")});
}

TEST_F(FojRulesTest, Rule6IgnoredWhenSGone) {
  Populate({}, {});
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(20)})).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
}

// --- Rule 7: update other attributes ----------------------------------------------------

TEST_F(FojRulesTest, Rule7UpdatesRPart) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {2}, {Value("a")}, {Value("a2")})).ok());
  ExpectT({TRow(1, 10, "a2", 100, 10, "x")});
}

TEST_F(FojRulesTest, Rule7UpdatesAllRecordsContainingS) {
  Populate({Row({1, 10, "a"}), Row({2, 10, "b"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {2}, {Value("x")}, {Value("x2")})).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x2"), TRow(2, 10, "b", 100, 10, "x2")});
}

TEST_F(FojRulesTest, Rule7IgnoredWhenRecordGone) {
  Populate({}, {});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {2}, {Value("a")}, {Value("b")})).ok());
  EXPECT_EQ(rules_->counters().ops_ignored, 1u);
}

// --- Idempotency: applying a rule twice == once (Theorem 1 discipline) -------------------

TEST_F(FojRulesTest, RulesAreIdempotent) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  const Op ins_r = InsR(2, 10, "b");
  EXPECT_TRUE(Apply(ins_r).ok());
  auto once = SortedRows(*t_);
  EXPECT_TRUE(Apply(ins_r).ok());
  EXPECT_EQ(SortedRows(*t_), once);

  const Op del_r = Del(r_.get(), Row({1}), Row({1, 10, "a"}));
  EXPECT_TRUE(Apply(del_r).ok());
  once = SortedRows(*t_);
  EXPECT_TRUE(Apply(del_r).ok());
  EXPECT_EQ(SortedRows(*t_), once);

  const Op upd = Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(30)});
  EXPECT_TRUE(Apply(upd).ok());
  once = SortedRows(*t_);
  EXPECT_TRUE(Apply(upd).ok());
  EXPECT_EQ(SortedRows(*t_), once);
}

// --- Delete-then-reinsert correction (paper's rule 1 discussion) --------------------------

TEST_F(FojRulesTest, StaleInsertCorrectedByLaterDelete) {
  // Image missed everything; the log replays insert (stale) then delete.
  Populate({}, {});
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  ExpectT({TSNull(1, 10, "a")});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 10, "a"}))).ok());
  ExpectT({});
}

// --- Lock-mirroring support ---------------------------------------------------------------

TEST_F(FojRulesTest, ApplyReportsAffectedTargets) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  std::vector<txn::RecordId> affected;
  ASSERT_TRUE(rules_->Apply(
      Upd(r_.get(), Row({1}), {2}, {Value("a")}, {Value("a2")}), &affected).ok());
  ASSERT_FALSE(affected.empty());
  EXPECT_EQ(affected[0].table, t_->id());

  affected.clear();
  auto targets = rules_->AffectedTargets(s_->id(), Row({100}));
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].table, t_->id());
}

// --- Many-to-many (§4.2 sketch) -------------------------------------------------------------

// The same rules with a join value that repeats in S.
using FojManyToManyTest = FojRulesTest;

TEST_F(FojManyToManyTest, InsertRFansOutOverAllMatches) {
  Populate({}, {Row({100, 10, "x"}), Row({200, 10, "y"})});
  EXPECT_TRUE(Apply(InsR(1, 10, "a")).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TRow(1, 10, "a", 200, 10, "y")});
}

TEST_F(FojManyToManyTest, InsertSAddsRecordsForMatchedRs) {
  // r1 already matched with s100; inserting s200 at the same join value must
  // ADD a record, not just upgrade null-homes.
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"})});
  EXPECT_TRUE(Apply(InsS(200, 10, "y")).ok());
  ExpectT({TRow(1, 10, "a", 100, 10, "x"), TRow(1, 10, "a", 200, 10, "y")});
}

TEST_F(FojManyToManyTest, DeleteRPreservesAllitsSPartners) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"}), Row({200, 10, "y"})});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({1}), Row({1, 10, "a"}))).ok());
  ExpectT({TRNull(100, 10, "x"), TRNull(200, 10, "y")});
}

TEST_F(FojManyToManyTest, DeleteSLeavesOtherMatches) {
  Populate({Row({1, 10, "a"})}, {Row({100, 10, "x"}), Row({200, 10, "y"})});
  EXPECT_TRUE(Apply(Del(s_.get(), Row({100}), Row({100, 10, "x"}))).ok());
  ExpectT({TRow(1, 10, "a", 200, 10, "y")});
}

TEST_F(FojManyToManyTest, UpdateRJoinMovesAllPairings) {
  Populate({Row({1, 10, "a"})},
           {Row({100, 10, "x"}), Row({200, 10, "y"}), Row({300, 20, "z"})});
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(20)})).ok());
  ExpectT({TRNull(100, 10, "x"), TRNull(200, 10, "y"),
           TRow(1, 20, "a", 300, 20, "z")});
}

TEST_F(FojManyToManyTest, ConvergesToOracleUnderOpSequence) {
  Populate({Row({1, 10, "a"}), Row({2, 10, "b"}), Row({3, 20, "c"})},
           {Row({100, 10, "x"}), Row({200, 20, "y"}), Row({300, 20, "z"})});
  // A mixed sequence, mirrored into plain row vectors as the oracle.
  std::vector<Row> r_rows = {Row({1, 10, "a"}), Row({2, 10, "b"}),
                             Row({3, 20, "c"})};
  std::vector<Row> s_rows = {Row({100, 10, "x"}), Row({200, 20, "y"}),
                             Row({300, 20, "z"})};

  EXPECT_TRUE(Apply(InsR(4, 20, "d")).ok());
  r_rows.push_back(Row({4, 20, "d"}));
  EXPECT_TRUE(Apply(Del(s_.get(), Row({200}), Row({200, 20, "y"}))).ok());
  s_rows.erase(s_rows.begin() + 1);
  EXPECT_TRUE(
      Apply(Upd(r_.get(), Row({1}), {1}, {Value(10)}, {Value(20)})).ok());
  r_rows[0] = Row({1, 20, "a"});
  EXPECT_TRUE(
      Apply(Upd(s_.get(), Row({100}), {1}, {Value(10)}, {Value(20)})).ok());
  s_rows[0] = Row({100, 20, "x"});
  EXPECT_TRUE(Apply(Del(r_.get(), Row({2}), Row({2, 10, "b"}))).ok());
  r_rows.erase(r_rows.begin() + 1);

  auto expected = Sorted(morph::FullOuterJoin(r_rows, 1, s_rows, 1, 3, 3));
  EXPECT_EQ(SortedRows(*t_), expected)
      << "T:\n"
      << RowsToString(SortedRows(*t_)) << "oracle:\n"
      << RowsToString(expected);
}

// --- Theorem 1: convergence from a fuzzy image ----------------------------------------------

// Seeded histories on R and S: inserts, deletes and updates of the join
// column, the payload or both, over a small join domain with NULLs. The
// initial image captures each source key at its own random point between the
// op where propagation starts and the end of the history, as a fuzzy scan
// does (paper Theorem 1); propagating the ops from that start must converge T
// to the full outer join of the final sources, and replaying any suffix of
// the ops afterwards must leave it there. The parameter keeps S's join value
// unique (one-to-many) or lets it repeat (many-to-many).
class FojFuzzyImageTest : public ::testing::TestWithParam<bool> {
 protected:
  using Source = std::map<int64_t, Row>;  // source key -> row
  struct Sources {
    Source r, s;
  };
  struct History {
    std::vector<Op> ops;
    std::vector<Sources> states;  // states[i]: the sources before ops[i]
  };

  static constexpr int64_t kRKeys = 6;
  static constexpr int64_t kSKeys = 4;
  static constexpr size_t kOps = 40;

  static Value RandomJoin(std::mt19937_64& rng) {
    if (rng() % 8 == 0) return Value::Null();
    return Value(static_cast<int64_t>(rng() % 5));
  }

  /// A join value for S-record `sid`; in unique mode one no other S-record
  /// holds.
  Value SJoin(std::mt19937_64& rng, const Source& s, int64_t sid) const {
    for (;;) {
      Value jv = RandomJoin(rng);
      if (!GetParam() || jv.is_null()) return jv;
      bool taken = false;
      for (const auto& [key, row] : s) taken |= key != sid && row[1] == jv;
      if (!taken) return jv;
    }
  }

  History Generate(std::mt19937_64& rng, TableId r_id, TableId s_id) const {
    History h;
    Sources cur;
    for (size_t i = 0; i < kOps; ++i) {
      h.states.push_back(cur);
      const bool on_r = rng() % 2 == 0;
      Source& src = on_r ? cur.r : cur.s;
      const int64_t key = 1 + static_cast<int64_t>(rng() % (on_r ? kRKeys : kSKeys));
      const std::string tag = std::to_string(i);
      Op op;
      op.lsn = 1 + i;
      op.txn_id = 1;
      op.table_id = on_r ? r_id : s_id;
      op.key = Row({key});
      auto it = src.find(key);
      if (it == src.end()) {
        op.type = OpType::kInsert;
        const Value jv = on_r ? RandomJoin(rng) : SJoin(rng, cur.s, key);
        op.after = Row({Value(key), jv, Value("i" + tag)});
        src[key] = op.after;
      } else if (rng() % 4 == 0) {
        op.type = OpType::kDelete;
        op.before = it->second;
        src.erase(it);
      } else {
        op.type = OpType::kUpdate;
        Row& row = it->second;
        const uint64_t kind = rng() % 3;  // 0: join, 1: payload, 2: both
        if (kind != 1) {
          Value jv = row[1];
          while (jv == row[1]) {
            jv = on_r ? RandomJoin(rng) : SJoin(rng, cur.s, key);
          }
          op.updated_columns.push_back(1);
          op.before_values.push_back(row[1]);
          op.after_values.push_back(jv);
          row[1] = jv;
        }
        if (kind != 0) {
          const Value payload("u" + tag);
          op.updated_columns.push_back(2);
          op.before_values.push_back(row[2]);
          op.after_values.push_back(payload);
          row[2] = payload;
        }
      }
      h.ops.push_back(std::move(op));
    }
    h.states.push_back(cur);
    return h;
  }

  static std::string Describe(const Op& op, TableId r_id) {
    const bool on_r = op.table_id == r_id;
    std::ostringstream out;
    out << "#" << op.lsn - 1 << " " << (on_r ? "R" : "S");
    switch (op.type) {
      case OpType::kInsert:
        out << " insert " << op.after.ToString();
        break;
      case OpType::kDelete:
        out << " delete " << op.key.ToString();
        break;
      case OpType::kUpdate:
        out << " update " << op.key.ToString();
        for (size_t i = 0; i < op.updated_columns.size(); ++i) {
          out << " " << (op.updated_columns[i] == 1 ? "jv" : on_r ? "payload" : "info") << " "
              << op.before_values[i].ToString() << "->"
              << op.after_values[i].ToString();
        }
        break;
    }
    return out.str();
  }

  static std::vector<Row> Rows(const Source& src) {
    std::vector<Row> rows;
    for (const auto& [key, row] : src) rows.push_back(row);
    return rows;
  }

  /// Runs one seed; returns an empty string on success, else what diverged.
  std::string RunSeed(uint64_t seed) const {
    std::mt19937_64 rng(seed);
    engine::Database db;
    auto r = *db.CreateTable("r", morph::testing::RSchema());
    auto s = *db.CreateTable("s", morph::testing::SSchema());
    const History h = Generate(rng, r->id(), s->id());
    const size_t n = h.ops.size();

    // Fuzzy image: every source key read at its own point in [start, n].
    const size_t start = rng() % (n + 1);
    Sources image;
    std::ostringstream read_at;
    const auto capture = [&](int64_t keys, Source Sources::*side, char name) {
      for (int64_t key = 1; key <= keys; ++key) {
        const size_t at = start + rng() % (n - start + 1);
        read_at << " " << name << key << "@" << at;
        const Source& src = h.states[at].*side;
        auto it = src.find(key);
        if (it != src.end()) (image.*side)[key] = it->second;
      }
    };
    capture(kRKeys, &Sources::r, 'R');
    capture(kSKeys, &Sources::s, 'S');
    if (!db.BulkLoad(r.get(), Rows(image.r)).ok() ||
        !db.BulkLoad(s.get(), Rows(image.s)).ok()) {
      return "bulk load failed";
    }
    FojSpec spec;
    spec.r_table = "r";
    spec.s_table = "s";
    spec.r_join_column = "jv";
    spec.s_join_column = "jv";
    spec.target_table = "t";
    auto made = FojRules::Make(&db, spec);
    if (!made.ok()) return made.status().ToString();
    std::unique_ptr<FojRules> rules = std::move(made).ValueOrDie();
    if (!rules->Prepare().ok() || !rules->InitialPopulate().ok()) {
      return "prepare/populate failed";
    }

    const std::vector<Row> expected = Sorted(morph::FullOuterJoin(
        Rows(h.states[n].r), 1, Rows(h.states[n].s), 1, 3, 3));
    const auto propagate = [&](size_t from, const char* phase) -> std::string {
      std::vector<txn::RecordId> affected;  // collected, as the propagator does
      for (size_t i = from; i < n; ++i) {
        const Status st = rules->Apply(h.ops[i], &affected);
        if (!st.ok()) return std::string(phase) + ": " + st.ToString();
      }
      const std::vector<Row> actual = SortedRows(*rules->target());
      if (actual == expected) return "";
      return std::string(phase) + " diverged\nT:\n" + RowsToString(actual) +
             "full outer join of the final sources:\n" +
             RowsToString(expected);
    };
    const size_t replay_from = rng() % n;
    std::string failure = propagate(start, "propagation");
    if (failure.empty()) failure = propagate(replay_from, "suffix replay");
    if (failure.empty()) return "";

    std::ostringstream out;
    out << "seed " << seed << ", propagation from op #" << start
        << ", suffix replay from op #" << replay_from << "\nimage read at:"
        << read_at.str() << "\nhistory:\n";
    for (const Op& op : h.ops) out << "  " << Describe(op, r->id()) << "\n";
    out << failure;
    return out.str();
  }
};

TEST_P(FojFuzzyImageTest, PropagationAndSuffixReplayConverge) {
  constexpr uint64_t kSeeds = 500;
  size_t failed = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string failure = RunSeed(seed);
    if (failure.empty()) continue;
    if (++failed <= 3) ADD_FAILURE() << failure;
  }
  EXPECT_EQ(failed, 0u) << "of " << kSeeds << " seeds";
}

INSTANTIATE_TEST_SUITE_P(SJoin, FojFuzzyImageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Unique" : "Repeated";
                         });

}  // namespace
}  // namespace morph::transform
