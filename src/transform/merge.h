#pragma once

#include <atomic>
#include <string>

#include "engine/database.h"
#include "transform/operator_rules.h"

namespace morph::transform {

/// \brief Specification of a horizontal merge transformation T = R ∪ S.
///
/// The paper's conclusion asks for "methods for other relational operators"
/// beyond FOJ and split (§7); merge is the natural complement to the
/// horizontal split operator: it consolidates two tables with *identical
/// schemas and disjoint primary-key sets* (e.g. two partitions, or a hot
/// table plus its archive) into one, online.
struct MergeSpec {
  std::string r_table;
  std::string s_table;
  std::string target_table = "t_merged";
};

/// \brief Merge propagation rules.
///
/// Unlike the FOJ case, every record of the merged table T is a verbatim
/// copy of exactly one source record, so its LSN is a *valid state
/// identifier* and every rule is a straightforward LSN-gated redo:
///
///  - insert x(k): insert into T, or overwrite if T's copy is older;
///  - delete x(k): delete from T if T's copy is older than the operation;
///  - update x(k): apply the changed columns if T's copy is older.
///
/// The disjoint-key contract is a user constraint. Transient overlaps from
/// fuzzy anomalies (a transaction moving a record between R and S during
/// the initial scan) converge automatically: the delete and insert records
/// replay in log order against the same T key.
class MergeRules : public OperatorRules {
 public:
  static Result<std::unique_ptr<MergeRules>> Make(engine::Database* db,
                                                  MergeSpec spec);

  Status Prepare() override;
  Status InitialPopulate() override;
  Status Apply(const Op& op, std::vector<txn::RecordId>* affected) override;

  std::vector<txn::RecordId> AffectedTargets(TableId table,
                                             const Row& pk) override;
  std::vector<std::shared_ptr<storage::Table>> Sources() const override {
    return {r_, s_};
  }

  /// Every rule is an LSN-gated redo against T[k] where k is the op's own
  /// (pk-preserving) key, so the merge decomposes by hash-range tablet.
  /// Both sources share one tablet geometry (uniform DatabaseOptions), so
  /// "tablet k" names the same key set in R, S, and T.
  bool SupportsStaggeredTablets() const override { return true; }

  const std::shared_ptr<storage::Table>& target() const { return t_; }

  struct Counters {
    size_t ops_applied = 0;
    size_t ops_ignored = 0;
  };
  Counters counters() const {
    return {counters_.ops_applied.load(), counters_.ops_ignored.load()};
  }

 private:
  MergeRules(engine::Database* db, MergeSpec spec,
             std::shared_ptr<storage::Table> r,
             std::shared_ptr<storage::Table> s)
      : OperatorRules(db),
        spec_(std::move(spec)),
        r_(std::move(r)),
        s_(std::move(s)) {}

  bool IsSource(TableId id) const { return id == r_->id() || id == s_->id(); }

  MergeSpec spec_;
  std::shared_ptr<storage::Table> r_;
  std::shared_ptr<storage::Table> s_;
  std::shared_ptr<storage::Table> t_;

  /// Bumped by Apply; counters() snapshots from any thread.
  struct {
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> ops_ignored{0};
  } counters_;
};

}  // namespace morph::transform
