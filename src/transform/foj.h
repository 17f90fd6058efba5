#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "engine/database.h"
#include "transform/operator_rules.h"

namespace morph::transform {

/// \brief Specification of a full outer join transformation
/// T = R ⟗ S on R.r_join_column = S.s_join_column (paper §4).
struct FojSpec {
  std::string r_table;
  std::string s_table;
  std::string r_join_column;
  std::string s_join_column;
  /// Name of the transformed table created during preparation.
  std::string target_table = "t_transformed";
  /// One-to-many mode (default) assumes the join attribute is unique in S
  /// and uses the paper's rules 1–7. Many-to-many mode implements the §4.2
  /// sketch: T is keyed by both source keys and R-side operations fan out
  /// over every matching S record.
  bool many_to_many = false;
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

  bool IsSource(TableId id) const override {
    return id == r_->id() || id == s_->id();
  }

  Status Prepare() override;
  Status InitialPopulate() override;
  Status Apply(const Op& op, std::vector<txn::RecordId>* affected) override;
  std::vector<txn::RecordId> AffectedTargets(TableId table,
                                             const Row& pk) override;
  std::vector<std::shared_ptr<storage::Table>> Targets() const override {
    return {t_};
  }
  std::vector<std::shared_ptr<storage::Table>> Sources() const override {
    return {r_, s_};
  }
  Status DropTargets() override;

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

  // --- T-row helpers -----------------------------------------------------

  /// T row layout: R columns at [0, r_width), S columns at
  /// [r_width, r_width + s_width).
  Row MakeT(const Row& r_row, const Row& s_row) const {
    return Row::Concat(r_row, s_row);
  }
  Row RPart(const Row& t_row) const;
  Row SPart(const Row& t_row) const;
  /// Null-padding test via the source key columns (always non-null in a
  /// real source record).
  bool RPartNull(const Row& t_row) const;
  bool SPartNull(const Row& t_row) const;
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
  // case. `spec_.many_to_many` therefore only documents intent; both modes
  // run the same propagation code.
  Status InsertR(const Op& op, std::vector<txn::RecordId>* affected);
  Status InsertS(const Op& op, std::vector<txn::RecordId>* affected);
  Status DeleteR(const Op& op, std::vector<txn::RecordId>* affected);
  Status DeleteS(const Op& op, std::vector<txn::RecordId>* affected);
  Status UpdateR(const Op& op, std::vector<txn::RecordId>* affected);
  Status UpdateS(const Op& op, std::vector<txn::RecordId>* affected);

  /// Insert-side fan-out shared by InsertR and the join-attribute branch of
  /// UpdateR: materializes `r_row` against every matching S-part currently
  /// in T (upgrading s-null padding records), or as t^y_null if none.
  Status InsertRImage(const Row& r_row, std::vector<txn::RecordId>* affected,
                      Lsn lsn);
  /// Mirror image for S-side inserts / join-attribute updates.
  Status InsertSImage(const Row& s_row, std::vector<txn::RecordId>* affected,
                      Lsn lsn);

  /// Applies the op's column updates to a source-row image (R or S side).
  static Row ApplyUpdates(const Row& row, const Op& op);

  engine::Database* db_;
  FojSpec spec_;
  std::shared_ptr<storage::Table> r_;
  std::shared_ptr<storage::Table> s_;
  std::shared_ptr<storage::Table> t_;

  size_t r_width_ = 0;
  size_t s_width_ = 0;
  size_t r_join_idx_ = 0;  ///< join column in R's schema
  size_t s_join_idx_ = 0;  ///< join column in S's schema
  size_t t_rjoin_col_ = 0;
  size_t t_sjoin_col_ = 0;

  storage::SecondaryIndex* idx_rkey_ = nullptr;
  storage::SecondaryIndex* idx_skey_ = nullptr;
  storage::SecondaryIndex* idx_rjoin_ = nullptr;
  storage::SecondaryIndex* idx_sjoin_ = nullptr;

  /// Bumped by Apply; counters() snapshots from any thread.
  struct {
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> ops_ignored{0};
  } counters_;
};

}  // namespace morph::transform
