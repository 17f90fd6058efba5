#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "engine/database.h"
#include "transform/operator_rules.h"

namespace morph::transform {

/// \brief Specification of a full outer join transformation
/// T = R ⟗ S on R.r_join_column = S.s_join_column (paper §4). The join
/// value need not be unique in S: the same rules cover §4.2's many-to-many
/// case.
struct FojSpec {
  std::string r_table;
  std::string s_table;
  std::string r_join_column;
  std::string s_join_column;
  /// Name of the transformed table created during preparation.
  std::string target_table = "t_transformed";
  /// Column-name prefixes used in the transformed table ("r_" + name).
  std::string r_prefix = "r_";
  std::string s_prefix = "s_";
};

/// \brief FOJ propagation rules (paper §4).
///
/// The transformed table T holds Concat(r_row, s_row); records without a
/// join partner are padded with the r-null / s-null record. T's physical
/// primary key is (R-key columns, S-key columns) — at least one candidate
/// key from each source, as §3.1 requires — which is unique in both the
/// one-to-many and many-to-many cases, including for the padding records.
///
/// Four indexes are created on T during preparation (§4.1): the R-key and
/// S-key column sets (identifying T-records by either source record) and
/// the R-side and S-side join columns. "All records with join value x" is
/// the union of the two join indexes at x, which covers matched records
/// (both sides = x) as well as one-sided padding records.
///
/// A record in T has **no valid state identifier** (it merges two source
/// records, §4.2), so none of these rules compares LSNs; idempotency rests
/// on the paper's Theorem 1 — every record already in T is at least as new
/// as the log record being propagated, so "already there" means "already
/// reflected, ignore".
class FojRules : public OperatorRules {
 public:
  /// \brief Validates the spec against the catalog. Fails if the source
  /// tables don't exist or the join columns are unknown.
  static Result<std::unique_ptr<FojRules>> Make(engine::Database* db,
                                                FojSpec spec);

  Status Prepare() override;
  Status InitialPopulate() override;
  Status Apply(const Op& op, std::vector<txn::RecordId>* affected) override;
  std::vector<txn::RecordId> AffectedTargets(TableId table,
                                             const Row& pk) override;
  std::vector<std::shared_ptr<storage::Table>> Sources() const override {
    return {sides_[0].table, sides_[1].table};
  }

  const std::shared_ptr<storage::Table>& target() const { return t_; }
  const FojSpec& spec() const { return spec_; }

  /// \brief Diagnostic counters (a point-in-time snapshot).
  struct Counters {
    size_t ops_applied = 0;
    size_t ops_ignored = 0;  ///< already reflected (Theorem-1 skips)
  };
  Counters counters() const {
    return {counters_.ops_applied.load(), counters_.ops_ignored.load()};
  }

 private:
  FojRules(engine::Database* db, FojSpec spec,
           std::shared_ptr<storage::Table> r, std::shared_ptr<storage::Table> s,
           size_t r_join_idx, size_t s_join_idx);

  /// One source of the join as T sees it. The paper's rules come in mirrored
  /// pairs (1/2, 3/4, 5/6, and 7 for either side); each is written once over
  /// the side the op's table is on.
  struct Side {
    std::shared_ptr<storage::Table> table;
    std::string name;    ///< "r" or "s": names the indexes r_key, s_join, ...
    std::string prefix;  ///< column-name prefix in T
    size_t offset = 0;   ///< first T column of this side
    size_t width = 0;
    size_t join_idx = 0;  ///< join column in the source schema
    size_t t_join = 0;    ///< join column in T (offset + join_idx)
    storage::SecondaryIndex* key_index = nullptr;   ///< T by this source key
    storage::SecondaryIndex* join_index = nullptr;  ///< T by this join value
  };
  const Side& Other(const Side& side) const {
    return &side == &sides_[0] ? sides_[1] : sides_[0];
  }

  // --- T-row helpers -----------------------------------------------------

  /// T row layout: R columns at [0, r_width), S columns at
  /// [r_width, r_width + s_width).
  Row MakeT(const Row& r_row, const Row& s_row) const {
    return Row::Concat(r_row, s_row);
  }
  /// The T row holding `mine` on `side` and `theirs` on the other side.
  Row Join(const Side& side, const Row& mine, const Row& theirs) const {
    return side.offset == 0 ? MakeT(mine, theirs) : MakeT(theirs, mine);
  }
  /// `row` on `side`, padded with the other side's null record.
  Row Padded(const Side& side, const Row& row) const {
    return Join(side, row, Row::Nulls(Other(side).width));
  }
  /// The columns of `side` within a T row.
  Row Part(const Side& side, const Row& t_row) const;
  /// The source key of `side` within a T row.
  Row KeyOf(const Side& side, const Row& t_row) const;
  /// Null-padding test via the source key columns (always non-null in a
  /// real source record).
  bool PartNull(const Side& side, const Row& t_row) const;
  Row TKeyOf(const Row& t_row) const { return t_->schema().KeyOf(t_row); }

  /// Physical write helpers, tolerant in the Theorem-1 sense: an insert
  /// hitting AlreadyExists or a delete hitting NotFound means a newer state
  /// is already reflected, so they succeed silently. Touched target keys are
  /// appended to `affected`.
  Status InsertT(Row t_row, Lsn lsn, std::vector<txn::RecordId>* affected);
  Status DeleteT(const Row& t_key, std::vector<txn::RecordId>* affected);
  /// Delete + insert (the physical form of "update" when the T primary key
  /// changes, e.g. a padding record gaining a real source half).
  Status ReplaceT(const Row& old_key, Row new_row, Lsn lsn,
                  std::vector<txn::RecordId>* affected);
  /// In-place column mutation (T primary key unchanged).
  Status MutateT(const Row& t_key, const std::vector<uint32_t>& cols,
                 const std::vector<Value>& values, Lsn lsn,
                 std::vector<txn::RecordId>* affected);

  /// All T primary keys with join value `x` on either side (union of the
  /// two join indexes).
  std::vector<Row> LookupJoin(const Value& x) const;

  // --- rule bodies -------------------------------------------------------

  // Rule bodies. These implement the paper's many-to-many generalization
  // (§4.2 sketch); with a unique S-side join attribute every fan-out set
  // has at most one element and the code degenerates *exactly* to the
  // one-to-many rules 1–7 — the rule-level unit tests pin this down case by
  // case.
  Status Insert(const Side& side, const Op& op,
                std::vector<txn::RecordId>* affected);  // rules 1/2
  Status Delete(const Side& side, const Op& op,
                std::vector<txn::RecordId>* affected);  // rules 3/4
  Status Update(const Side& side, const Op& op,
                std::vector<txn::RecordId>* affected);  // rules 5/6/7

  /// Materializes the source row `row` of `side` against every matching
  /// other-side record currently in T (upgrading its padding record), or
  /// padded if there is none: the fan-out of an insert and of the new join
  /// value of a join update.
  Status Attach(const Side& side, const Row& row, Lsn lsn,
                std::vector<txn::RecordId>* affected);
  /// Deletes the T-records `pks` of one source record of `side`, re-padding
  /// every other-side record left with no T-record (the FOJ keeps it): the
  /// effect of a delete and of the old join value of a join update.
  Status Detach(const Side& side, const std::vector<Row>& pks, Lsn lsn,
                std::vector<txn::RecordId>* affected);
  /// Rule 7: writes the op's columns other than the join column into every
  /// T-record in `pks`.
  Status WriteColumns(const Side& side, const Op& op,
                      const std::vector<Row>& pks,
                      std::vector<txn::RecordId>* affected);

  /// Applies the op's column updates to a source-row image (R or S side).
  static Row ApplyUpdates(const Row& row, const Op& op);

  FojSpec spec_;
  std::shared_ptr<storage::Table> t_;
  Side sides_[2];  ///< R, then S (T's column order)

  /// Bumped by Apply; counters() snapshots from any thread.
  struct {
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> ops_ignored{0};
  } counters_;
};

}  // namespace morph::transform
