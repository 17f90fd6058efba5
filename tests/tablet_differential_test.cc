// Differential suite for hash-range tablet sharding and the staggered
// per-tablet transformation path.
//
// Three angles:
//  1. Concurrent differential: for every operator, a seeded op stream
//     replayed against tablets ∈ {1, 4, 16} must produce identical
//     transformed tables (rows and vsplit counters)
//     and apply exactly the ops the WAL accounts for. tablets = 1 is the
//     whole table as one tablet, so this pins every stagger width to the
//     paper's single-scan semantics.
//  2. Quiescent byte-identity: with no concurrent stream, the full record
//     state — rows, LSNs, counters, consistency flags — must be
//     byte-identical across tablet counts, the strongest equality the
//     engine can state.
//  3. Eligibility clamps: operators/strategies that can't stagger
//     (full-outer-join's target keys don't align with either source's
//     tablets; non-blocking commit mirrors locks both ways) must resolve to
//     tablets = 1 and still complete.

#include <gtest/gtest.h>

#include <string>

#include "tests/propagator_test_util.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"

namespace morph::transform {
namespace {

using morph::testing::RowsToString;
using morph::transform::testing::CellOptions;
using morph::transform::testing::CellResult;
using morph::transform::testing::Operator;
using morph::transform::testing::OperatorName;
using morph::transform::testing::RunCell;

/// Operators whose targets partition like their sources, i.e. the ones the
/// coordinator actually staggers. FOJ is clamped (see EligibilityClamps).
bool SupportsStagger(Operator op) { return op != Operator::kFoj; }

class TabletDifferentialTest : public ::testing::TestWithParam<Operator> {};

TEST_P(TabletDifferentialTest, StaggeredMatchesWholeTable) {
  const Operator op = GetParam();
  const uint64_t seed = 4242 + static_cast<uint64_t>(op);
  CellOptions base;
  base.strategy = SyncStrategy::kNonBlockingAbort;
  base.seed = seed;
  base.tablets = 1;
  const CellResult whole = RunCell(op, base);
  ASSERT_TRUE(whole.completed) << whole.abort_reason;
  ASSERT_EQ(whole.locks_at_end, 0u);
  ASSERT_EQ(whole.resolved_tablets, 1u);
  EXPECT_GT(whole.log_records, 100u);
  EXPECT_EQ(whole.registry_ops_delta, whole.wal_ops_expected);

  for (const size_t tablets : {4ul, 16ul}) {
    SCOPED_TRACE(std::string(OperatorName(op)) + " tablets=" +
                 std::to_string(tablets));
    CellOptions opts = base;
    opts.tablets = tablets;
    const CellResult cell = RunCell(op, opts);
    ASSERT_TRUE(cell.completed) << cell.abort_reason;
    EXPECT_EQ(cell.resolved_tablets, SupportsStagger(op) ? tablets : 1u);
    EXPECT_EQ(cell.targets, whole.targets)
        << "staggered (" << cell.targets.size() << " rows):\n"
        << RowsToString(cell.targets) << "whole-table ("
        << whole.targets.size() << " rows):\n"
        << RowsToString(whole.targets);
    EXPECT_EQ(cell.s_counters, whole.s_counters)
        << "staggered counters:\n"
        << RowsToString(cell.s_counters) << "whole-table counters:\n"
        << RowsToString(whole.s_counters);
    // Every mirrored/target lock must be gone once the run drains.
    EXPECT_EQ(cell.locks_at_end, 0u);
    // Exact ops accounting: a pending tablet's records before its own
    // begin-fuzzy mark reach the targets through its populate scan, not
    // the propagator, so a staggered cell applies fewer ops than the
    // whole-table cell — exactly the WAL records at or past each key's
    // tablet start, each once.
    EXPECT_EQ(cell.registry_ops_delta, cell.wal_ops_expected);
  }
}

TEST_P(TabletDifferentialTest, QuiescentByteIdentical) {
  const Operator op = GetParam();
  CellOptions base;
  base.strategy = SyncStrategy::kNonBlockingAbort;
  base.tablets = 1;
  base.drive_stream = false;
  const CellResult whole = RunCell(op, base);
  ASSERT_TRUE(whole.completed) << whole.abort_reason;
  ASSERT_FALSE(whole.target_dumps.empty());

  for (const size_t tablets : {4ul, 16ul}) {
    SCOPED_TRACE(std::string(OperatorName(op)) + " tablets=" +
                 std::to_string(tablets));
    CellOptions opts = base;
    opts.tablets = tablets;
    const CellResult cell = RunCell(op, opts);
    ASSERT_TRUE(cell.completed) << cell.abort_reason;
    ASSERT_EQ(cell.target_dumps.size(), whole.target_dumps.size());
    for (size_t i = 0; i < cell.target_dumps.size(); ++i) {
      EXPECT_EQ(cell.target_dumps[i], whole.target_dumps[i])
          << "target " << i << " diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Operators, TabletDifferentialTest,
                         ::testing::Values(Operator::kFoj, Operator::kVSplit,
                                           Operator::kHSplit,
                                           Operator::kMerge),
                         [](const auto& info) {
                           return OperatorName(info.param);
                         });

// ---------------------------------------------------------------------------
// 3. Eligibility clamps.
// ---------------------------------------------------------------------------

TEST(TabletEligibilityTest, FojClampsToWholeTable) {
  CellOptions opts;
  opts.tablets = 16;
  const CellResult cell = RunCell(Operator::kFoj, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  // A full-outer-join target is keyed by join value: a source tablet does
  // not map to a target subset, so the run must fall back to one latch.
  EXPECT_EQ(cell.resolved_tablets, 1u);
}

TEST(TabletEligibilityTest, NonBlockingCommitClampsToWholeTable) {
  CellOptions opts;
  opts.strategy = SyncStrategy::kNonBlockingCommit;
  opts.tablets = 16;
  // Seed borrowed from propagator_stream_test's merge/non-blocking-commit
  // cell: the straddler's key must survive the stream.
  opts.seed = 126;
  const CellResult cell = RunCell(Operator::kMerge, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  EXPECT_EQ(cell.resolved_tablets, 1u);
}

TEST(TabletEligibilityTest, TabletConfigClampsToTableGranularity) {
  // Transform tablets are clamped to the table's latch granularity: a table
  // built with 4 tablets can't be migrated in 16 steps.
  CellOptions opts;
  opts.tablets = 16;
  opts.table_tablets = 4;
  CellResult cell = RunCell(Operator::kMerge, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  EXPECT_EQ(cell.resolved_tablets, 4u);
}

}  // namespace
}  // namespace morph::transform
