#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "common/relops.h"
#include "tests/test_util.h"

namespace morph {
namespace {

using morph::testing::Numbered;
using morph::testing::Sorted;

// Property tests of the relational operators against brute-force oracles,
// swept over seeds with parameterized gtest. These operators anchor both the
// blocking baseline and the convergence oracles, so they must be beyond
// doubt.

class RelOpsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Brute-force O(n*m) full outer join.
std::vector<Row> NaiveFoj(const std::vector<Row>& r, size_t r_join,
                          const std::vector<Row>& s, size_t s_join,
                          size_t r_width, size_t s_width) {
  std::vector<Row> out;
  std::vector<bool> s_matched(s.size(), false);
  for (const Row& rr : r) {
    bool matched = false;
    for (size_t j = 0; j < s.size(); ++j) {
      if (!rr[r_join].is_null() && !s[j][s_join].is_null() &&
          rr[r_join] == s[j][s_join]) {
        out.push_back(Row::Concat(rr, s[j]));
        matched = true;
        s_matched[j] = true;
      }
    }
    if (!matched) out.push_back(Row::Concat(rr, Row::Nulls(s_width)));
  }
  for (size_t j = 0; j < s.size(); ++j) {
    if (!s_matched[j]) out.push_back(Row::Concat(Row::Nulls(r_width), s[j]));
  }
  return out;
}

TEST_P(RelOpsPropertyTest, FojMatchesNaiveOracle) {
  Random rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const size_t nr = rng.Uniform(30);
    const size_t ns = rng.Uniform(30);
    std::vector<Row> r, s;
    for (size_t i = 0; i < nr; ++i) {
      Value jv = rng.Bernoulli(0.1)
                     ? Value::Null()
                     : Value(static_cast<int64_t>(rng.Uniform(8)));
      r.push_back(Row({static_cast<int64_t>(i), jv}));
    }
    for (size_t i = 0; i < ns; ++i) {
      Value jv = rng.Bernoulli(0.1)
                     ? Value::Null()
                     : Value(static_cast<int64_t>(rng.Uniform(8)));
      s.push_back(Row({static_cast<int64_t>(100 + i), jv}));
    }
    auto fast = Sorted(FullOuterJoin(r, 1, s, 1, 2, 2));
    auto naive = Sorted(NaiveFoj(r, 1, s, 1, 2, 2));
    ASSERT_EQ(fast, naive) << "round " << round;
  }
}

TEST_P(RelOpsPropertyTest, FojPreservesEveryInputRow) {
  Random rng(GetParam() * 31 + 7);
  const size_t nr = 5 + rng.Uniform(40);
  const size_t ns = 5 + rng.Uniform(20);
  std::vector<Row> r, s;
  for (size_t i = 0; i < nr; ++i) {
    r.push_back(Row({static_cast<int64_t>(i),
                     static_cast<int64_t>(rng.Uniform(10))}));
  }
  for (size_t i = 0; i < ns; ++i) {
    s.push_back(Row({static_cast<int64_t>(i),
                     static_cast<int64_t>(rng.Uniform(10))}));
  }
  auto out = FullOuterJoin(r, 1, s, 1, 2, 2);
  // FOJ property: every R key and every S key appears at least once.
  std::set<Value> r_keys, s_keys;
  for (const Row& row : out) {
    if (!row[0].is_null()) r_keys.insert(row[0]);
    if (!row[2].is_null()) s_keys.insert(row[2]);
  }
  EXPECT_EQ(r_keys.size(), nr);
  EXPECT_EQ(s_keys.size(), ns);
}

TEST_P(RelOpsPropertyTest, SplitCountersSumToInputSize) {
  Random rng(GetParam() * 131 + 3);
  const size_t n = 1 + rng.Uniform(200);
  std::vector<Row> t;
  for (size_t i = 0; i < n; ++i) {
    const int64_t grp = static_cast<int64_t>(rng.Uniform(12));
    t.push_back(Row({static_cast<int64_t>(i), grp,
                     Numbered("c", grp % 3)}));
  }
  auto result = Split(t, {0, 1}, {1, 2}, {0});
  EXPECT_EQ(result.r_rows.size(), n);
  int64_t total = 0;
  for (int64_t c : result.s_counters) total += c;
  EXPECT_EQ(total, static_cast<int64_t>(n));
  // Distinct split keys.
  std::set<Row> keys;
  for (const Row& s_row : result.s_rows) {
    EXPECT_TRUE(keys.insert(s_row.Project({0})).second)
        << "duplicate split key " << s_row.ToString();
  }
}

TEST_P(RelOpsPropertyTest, SplitConsistencyFlagMatchesGroupAgreement) {
  Random rng(GetParam() * 977 + 11);
  const size_t n = 1 + rng.Uniform(100);
  std::vector<Row> t;
  for (size_t i = 0; i < n; ++i) {
    const int64_t grp = static_cast<int64_t>(rng.Uniform(6));
    // 15% of rows get a divergent city for their group.
    const std::string city = rng.Bernoulli(0.15)
                                 ? "typo" + std::to_string(rng.Uniform(3))
                                 : "city" + std::to_string(grp);
    t.push_back(Row({static_cast<int64_t>(i), grp, city}));
  }
  auto result = Split(t, {0, 1}, {1, 2}, {0});
  // Oracle: group agreement.
  std::map<Value, std::set<std::string>> group_cities;
  for (const Row& row : t) group_cities[row[1]].insert(row[2].AsString());
  for (size_t i = 0; i < result.s_rows.size(); ++i) {
    const bool agree = group_cities[result.s_rows[i][0]].size() == 1;
    EXPECT_EQ(result.s_consistent[i], agree)
        << "group " << result.s_rows[i][0].ToString();
  }
}

// FOJ and split are inverses on clean one-to-many data: splitting the join
// of R and S must give back R and S (up to column order).
TEST_P(RelOpsPropertyTest, SplitInvertsJoin) {
  Random rng(GetParam() * 17 + 5);
  const size_t nr = 1 + rng.Uniform(60);
  const size_t ns = 1 + rng.Uniform(10);
  std::vector<Row> r, s;
  for (size_t i = 0; i < ns; ++i) {
    s.push_back(Row({static_cast<int64_t>(i), "info" + std::to_string(i)}));
  }
  for (size_t i = 0; i < nr; ++i) {
    // Every R row matches some S row (inner case of FOJ).
    r.push_back(Row({static_cast<int64_t>(i),
                     static_cast<int64_t>(rng.Uniform(ns))}));
  }
  // T = R ⟗ S on r[1] == s[0]; columns: r_id, r_jv, s_id, s_info.
  auto t = FullOuterJoin(r, 1, s, 0, 2, 2);
  // Split T back: R' = (r_id, r_jv), S' = (s_id, s_info) keyed by s_id.
  auto split = Split(t, {0, 1}, {2, 3}, {0});
  EXPECT_EQ(Sorted(split.r_rows), Sorted(r));
  // S' contains exactly the S rows that had at least one match.
  std::set<int64_t> matched;
  for (const Row& rr : r) matched.insert(rr[1].AsInt64());
  std::vector<Row> expected_s;
  for (const Row& sr : s) {
    if (matched.count(sr[0].AsInt64())) expected_s.push_back(sr);
  }
  EXPECT_EQ(Sorted(split.s_rows), Sorted(expected_s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelOpsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace morph
