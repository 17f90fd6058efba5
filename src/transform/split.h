#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/database.h"
#include "transform/operator_rules.h"

namespace morph::transform {

/// \brief Specification of a vertical split transformation
/// T → R, S (paper §5).
struct SplitSpec {
  std::string t_table;
  /// Columns projected into R. Must include all of T's primary-key columns
  /// (R keeps T's key) and all split columns (R keeps the foreign key to S,
  /// which is also how rules 9/11 find the S-record a T-operation affects —
  /// the paper reads the split value "from r^y_v").
  std::vector<std::string> r_columns;
  /// Columns projected into S. Must include the split columns.
  std::vector<std::string> s_columns;
  /// The split attribute (candidate key of S).
  std::vector<std::string> split_columns;
  std::string r_name = "r_split";
  std::string s_name = "s_split";
  /// §5.2 mode: the DBMS guarantees the functional dependency, so no
  /// consistency flags / checker are needed. Set false for §5.3 mode.
  bool assume_consistent = true;
  /// The paper's §5.2 *alternative strategy*: create and populate only S.
  /// Since all R attributes are already present in T, the transformation
  /// keeps a small temporary table P — just T's key, the split attribute
  /// and the per-record LSN — for propagation bookkeeping, and at
  /// completion drops P and renames T into `r_name` (the logical removal
  /// of the S-only attributes is a catalog-level change the paper
  /// explicitly allows, §2.4). Saves the space of a full R copy. Supported
  /// with the blocking-commit and non-blocking-abort strategies.
  bool reuse_source_as_r = false;
};

/// \brief Split propagation rules (paper §5).
///
/// R-side records keep T's per-record LSN as their state identifier; every
/// rule gates on it ("the LSN values in Ri uniquely identify which
/// operations in T are already reflected", rule 11's justification), and the
/// S side is updated exactly when the R side was — membership (counter)
/// changes are driven by the R record's *current* split value, which names
/// the bucket the record is currently counted in.
///
/// S-side records carry the Gupta-style reference counter and a monotone
/// LSN (max over applied operations). The initial image of an S-record is
/// taken from the *newest* (highest-LSN) contributing row of the fuzzy
/// snapshot, so the stored image is never older than its LSN claims — that
/// makes the rule-11 LSN guard on image updates sound.
///
/// In §5.3 mode every S-record additionally carries the C/U consistency
/// flag, maintained per the paper's transitions, and RunConsistencyCheck
/// implements the CC: it brackets a lock-free verification of one split
/// value between CC_BEGIN / CC_OK log records; the *propagator* (via
/// OnControlRecord) upgrades the flag only if no operation touched that
/// split value between the two brackets.
class SplitRules : public OperatorRules {
 public:
  static Result<std::unique_ptr<SplitRules>> Make(engine::Database* db,
                                                  SplitSpec spec);

  Status Prepare() override;
  Status InitialPopulate() override;
  Status Apply(const Op& op, std::vector<txn::RecordId>* affected) override;

  Status OnControlRecord(const wal::LogRecord& rec) override;
  std::vector<txn::RecordId> AffectedTargets(TableId table,
                                             const Row& pk) override;
  std::vector<std::shared_ptr<storage::Table>> Sources() const override {
    return {t_src_};
  }
  bool ReadyForSync() const override;
  Status FinalizeTargets() override;
  bool KeepSource(TableId id) const override;

  /// All rules are LSN-gated and read and write only the R (or P) record
  /// keyed by the op's own T-key, plus the S bucket(s) named by that
  /// record's split value, so the split decomposes by source hash-range
  /// tablet. A bucket may receive contributions from several tablets'
  /// scans; InitialPopulate merges into the buckets S already holds. The
  /// §5.3 consistency checker verifies a bucket against a whole-table scan
  /// of T, so a split with assume_consistent = false runs as one tablet.
  bool SupportsStaggeredTablets() const override {
    return spec_.assume_consistent;
  }

  /// R is pk-preserving (tablet-aligned); S buckets aggregate keys from all
  /// tablets, so a migrated-tablet writer cannot cover its S effects with
  /// target locks keyed by its own hash range.
  bool TargetTabletAligned(TableId id) const override {
    return id == r_->id();
  }

  /// \brief One pass of the consistency checker (§5.3): picks up to
  /// `max_records` U-flagged S-records, and for each writes a CC_BEGIN
  /// bracket, fuzzy-reads the contributing T-records, and writes CC_OK with
  /// the correct image if they agree. The flag flips to C only when the
  /// propagator later processes an undisturbed bracket. No-op in §5.2 mode.
  /// Returns the number of CC_OK brackets written.
  Result<size_t> RunConsistencyCheck(size_t max_records) override;

  /// \brief Number of U-flagged S-records (0 in §5.2 mode).
  size_t CountInconsistent() const;

  const std::shared_ptr<storage::Table>& r_table() const { return r_; }
  const std::shared_ptr<storage::Table>& s_table() const { return s_; }
  const SplitSpec& spec() const { return spec_; }

  struct Counters {
    size_t ops_applied = 0;
    size_t ops_ignored = 0;
    size_t cc_upgrades = 0;   ///< U→C flips applied by the propagator
    size_t cc_disturbed = 0;  ///< CC brackets invalidated by concurrent ops
  };
  Counters counters() const {
    return {counters_.ops_applied.load(), counters_.ops_ignored.load(),
            counters_.cc_upgrades.load(), counters_.cc_disturbed.load()};
  }

 private:
  SplitRules(engine::Database* db, SplitSpec spec,
             std::shared_ptr<storage::Table> t);

  Status ResolveColumns();

  /// Splits an op's updated column set into R-relative and S-relative
  /// (column, value) lists.
  void MapUpdates(const Op& op, std::vector<uint32_t>* r_cols,
                  std::vector<Value>* r_vals, std::vector<uint32_t>* s_cols,
                  std::vector<Value>* s_vals) const;

  /// The split-attribute value of an R row (bucket key into S).
  Row SplitKeyOfR(const Row& r_row) const;
  Row SplitKeyOfS(const Row& s_row) const { return s_row.Project(split_in_s_); }

  /// Counter bump on S[key]; inserts `image` with counter 1 when absent
  /// (delta = +1). Deletes the record when the counter reaches 0.
  /// `image_for_flag_check` non-null triggers the §5.3 insert-inequality
  /// C→U transition.
  Status BumpS(const Row& s_key, int delta, Lsn lsn, const Row* insert_image,
               std::vector<txn::RecordId>* affected);

  Status InsertTOp(const Op& op, std::vector<txn::RecordId>* affected);
  Status DeleteTOp(const Op& op, std::vector<txn::RecordId>* affected);
  Status UpdateTOp(const Op& op, std::vector<txn::RecordId>* affected);

  /// Marks a split value dirty for any open CC bracket.
  void TouchSplitValue(const Row& s_key);

  SplitSpec spec_;
  std::shared_ptr<storage::Table> t_src_;
  std::shared_ptr<storage::Table> r_;
  std::shared_ptr<storage::Table> s_;

  std::vector<size_t> r_cols_;        ///< T positions of R's columns
  std::vector<size_t> s_cols_;        ///< T positions of S's columns
  std::vector<size_t> split_in_t_;    ///< T positions of the split attribute
  std::vector<size_t> split_in_r_;    ///< positions within the R projection
  std::vector<size_t> split_in_s_;    ///< positions within the S projection
  std::vector<size_t> s_nonkey_within_;  ///< S positions outside the split key

  /// Open CC brackets: split key → disturbed?
  mutable std::mutex cc_mu_;
  std::unordered_map<Row, bool, RowHasher> cc_open_;

  /// Bumped by Apply; counters() snapshots from any thread.
  struct {
    std::atomic<size_t> ops_applied{0};
    std::atomic<size_t> ops_ignored{0};
    std::atomic<size_t> cc_upgrades{0};
    std::atomic<size_t> cc_disturbed{0};
  } counters_;
};

}  // namespace morph::transform
