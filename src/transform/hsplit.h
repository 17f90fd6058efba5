#pragma once

#include <atomic>
#include <string>

#include "engine/database.h"
#include "transform/operator_rules.h"

namespace morph::transform {

/// \brief Routing predicate of a horizontal split: which target a T-row
/// belongs to. Kept as a plain (column, comparator, operand) triple so a
/// specification is data, not code.
struct RoutePredicate {
  enum class Comparator { kLt, kLe, kGt, kGe, kEq, kNe };

  std::string column;
  Comparator comparator = Comparator::kLt;
  Value operand;

  bool Eval(const Value& v) const {
    switch (comparator) {
      case Comparator::kLt:
        return v < operand;
      case Comparator::kLe:
        return v <= operand;
      case Comparator::kGt:
        return v > operand;
      case Comparator::kGe:
        return v >= operand;
      case Comparator::kEq:
        return v == operand;
      case Comparator::kNe:
        return v != operand;
    }
    return false;
  }
};

/// \brief Specification of a horizontal (selection) split: T → R, S where
/// R = σ_pred(T) and S = σ_¬pred(T). The inverse of MergeRules; together
/// they answer the paper's §7 call for more relational operators (e.g.
/// moving cold rows into an archive partition without downtime).
struct HorizontalSplitSpec {
  std::string t_table;
  RoutePredicate predicate;  ///< rows satisfying it go to R
  std::string r_name = "t_match";
  std::string s_name = "t_rest";
};

/// \brief Horizontal split propagation rules.
///
/// Every target record is a verbatim copy of one T record, so per-record
/// LSNs are valid state identifiers and the rules are LSN-gated redos with
/// *routing*:
///
///  - insert t(k): insert into the predicate's side;
///  - delete t(k): delete k from whichever side holds an older copy;
///  - update t(k): locate the current copy (either side), apply the changed
///    columns, and re-route — an update that flips the predicate moves the
///    record across targets (delete + insert), the analogue of the vertical
///    split's split-attribute migration.
///
/// Fuzzy anomalies can transiently leave k on both sides (scan caught the
/// record pre- and post-move); the rules always clean the stale side under
/// its own LSN gate, so the tables converge.
class HorizontalSplitRules : public OperatorRules {
 public:
  static Result<std::unique_ptr<HorizontalSplitRules>> Make(
      engine::Database* db, HorizontalSplitSpec spec);

  Status Prepare() override;
  Status InitialPopulate() override;
  Status Apply(const Op& op, std::vector<txn::RecordId>* affected) override;

  std::vector<txn::RecordId> AffectedTargets(TableId table,
                                             const Row& pk) override;
  std::vector<std::shared_ptr<storage::Table>> Sources() const override {
    return {t_src_};
  }

  /// Targets are verbatim T-keyed copies: every rule (including a
  /// predicate-flipping migration's delete + insert pair) touches only
  /// records with the op's own key, and both sides preserve the
  /// source primary key, so the operator decomposes by hash-range tablet
  /// and both targets stay tablet-aligned.
  bool SupportsStaggeredTablets() const override { return true; }

  const std::shared_ptr<storage::Table>& r_table() const { return r_; }
  const std::shared_ptr<storage::Table>& s_table() const { return s_; }

  struct Counters {
    size_t ops_applied = 0;
    size_t ops_ignored = 0;
    size_t migrations = 0;  ///< updates that crossed the predicate
  };
  Counters counters() const {
    return {counters_.ops_applied.load(), counters_.ops_ignored.load(),
            counters_.migrations.load()};
  }

 private:
  HorizontalSplitRules(engine::Database* db, HorizontalSplitSpec spec,
                       std::shared_ptr<storage::Table> t, size_t pred_col)
      : OperatorRules(db), spec_(std::move(spec)), t_src_(std::move(t)),
        pred_col_(pred_col) {}

  storage::Table* Route(const Row& row) const {
    return spec_.predicate.Eval(row[pred_col_]) ? r_.get() : s_.get();
  }

  HorizontalSplitSpec spec_;
  std::shared_ptr<storage::Table> t_src_;
  std::shared_ptr<storage::Table> r_;
  std::shared_ptr<storage::Table> s_;
  size_t pred_col_ = 0;

  /// Bumped by Apply; counters() snapshots from any thread.
  struct {
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> ops_ignored{0};
    std::atomic<size_t> migrations{0};
  } counters_;
};

}  // namespace morph::transform
