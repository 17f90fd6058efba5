#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "storage/table.h"
#include "transform/op.h"
#include "transform/populate.h"
#include "transform/priority.h"
#include "txn/lock_manager.h"
#include "wal/log_record.h"

namespace morph::transform {

/// \brief The operator-specific half of a transformation, plugged into the
/// generic four-step TransformCoordinator (paper §3).
///
/// Implementations: FojRules (paper §4, one-to-many and many-to-many),
/// SplitRules (paper §5, with counters and C/U consistency flags),
/// HorizontalSplitRules (selection split) and MergeRules (union of two
/// same-schema tables), the last two answering §7's call for more operators.
///
/// The base class owns the duties every operator shares, so an operator
/// keeps only its paper rules. Prepare creates each transformed table
/// through CreateTarget, which records it; Targets() lists the recorded
/// tables in creation order, and DropTargets() deletes exactly those (the
/// §6 abort), never a table the run did not create. The shard scan of a
/// population worker is PopulateWorker::ScanShards (transform/populate.h).
///
/// Threading contract: Prepare / InitialPopulate are called from the single
/// coordinator thread; InitialPopulate may internally fan out across
/// population workers (transform/populate.h) — any threads it spawns are
/// joined, and their failures funneled, before it returns, so to the
/// coordinator it remains one synchronous call. Apply, OnControlRecord and
/// RunConsistencyCheck run on the coordinator thread only, one at a time,
/// in log order (the propagator is one serial loop, §3.3). AffectedTargets
/// may additionally be called from client threads (synchronous lock
/// mirroring under non-blocking commit), concurrently with Apply; both must
/// therefore only use thread-safe table/index operations, and any
/// rule-internal state they touch (counters, CC bookkeeping) must be
/// synchronized. Targets() and DropTargets() are coordinator-thread calls
/// (or after the run).
class OperatorRules {
 public:
  virtual ~OperatorRules() = default;

  /// \brief Preparation step: create the transformed table(s) and their
  /// indexes (paper §3.1).
  virtual Status Prepare() = 0;

  /// \brief Initial population step: fuzzy-read the source tables, apply
  /// the operator, insert the initial image into the transformed tables
  /// (paper §3.2). Called after the coordinator wrote the begin-fuzzy mark.
  virtual Status InitialPopulate() = 0;

  /// \brief Applies one normalized source-table operation to the
  /// transformed tables using the operator's propagation rules. Must be
  /// idempotent in the Theorem-1 sense: ops already reflected are ignored.
  ///
  /// If `affected` is non-null, the rule appends the RecordIds of every
  /// transformed-table record it touched (or found already reflecting the
  /// op) — the coordinator mirrors source locks onto exactly these.
  virtual Status Apply(const Op& op, std::vector<txn::RecordId>* affected) = 0;

  /// \brief Handles a non-data log record the coordinator does not consume
  /// itself (the split rules use this for the CC_BEGIN / CC_OK brackets).
  /// Default: ignore.
  virtual Status OnControlRecord(const wal::LogRecord& rec) {
    (void)rec;
    return Status::OK();
  }

  /// \brief Transformed-table records *currently* corresponding to the
  /// source record (table, pk) — for synchronous lock mirroring before an
  /// old transaction's operation proceeds (non-blocking commit, §4.3).
  virtual std::vector<txn::RecordId> AffectedTargets(TableId table,
                                                     const Row& pk) = 0;

  /// \brief The transformed tables CreateTarget made, in creation order,
  /// for switch-over bookkeeping. Empty before Prepare.
  const std::vector<std::shared_ptr<storage::Table>>& Targets() const {
    return targets_;
  }

  /// \brief The source tables, for latching and dropping.
  virtual std::vector<std::shared_ptr<storage::Table>> Sources() const = 0;

  /// \brief True when the operator has unresolved internal work that must
  /// finish before synchronization may start (the split's U-flagged
  /// records, paper §5.3: "all records in S should have a C-flag before
  /// synchronization is started"). Default: ready.
  virtual bool ReadyForSync() const { return true; }

  /// \brief One pass of operator-internal background maintenance, invoked
  /// between propagation iterations. The split rules implement the §5.3
  /// consistency checker here; other operators have nothing to do.
  virtual Result<size_t> RunConsistencyCheck(size_t max_records) {
    (void)max_records;
    return size_t{0};
  }

  /// \brief Deletes the transformed tables (transformation abort: "log
  /// propagation is stopped, and the transformed tables are deleted", §6):
  /// each table CreateTarget made that the catalog still holds under its
  /// name. A name this run did not create is never dropped, so a target
  /// named like an existing table (whose creation failed) costs nothing.
  Status DropTargets() {
    for (const auto& t : targets_) {
      if (db_->catalog()->GetByName(t->name()) != t) continue;
      MORPH_RETURN_NOT_OK(db_->DropTable(t->name()));
    }
    return Status::OK();
  }

  /// \brief Completion-time finalization, before the coordinator drops the
  /// sources: operators that repurpose a source table (the split's §5.2
  /// alternative strategy renames T into R) do it here. Default: nothing.
  virtual Status FinalizeTargets() { return Status::OK(); }

  /// \brief True if `id` is a source table the coordinator must *not* drop
  /// at completion (because FinalizeTargets repurposed it). Default: drop.
  virtual bool KeepSource(TableId id) const {
    (void)id;
    return false;
  }

  /// \brief True when the operator can run as a staggered sequence of
  /// per-tablet sub-transforms (transform/tablet_manager.h). Requires that
  /// every propagation rule is LSN-gated per target record and decomposes by
  /// source primary key (so the key's hash-range tablet fully determines
  /// which target records an op can touch). Split (unless it runs the
  /// §5.3 consistency checker), hsplit, and merge qualify; the FOJ does
  /// not — deletes and updates find their victims by source key across
  /// join values, and an insert's effect depends on join-value state across
  /// the whole table.
  /// Default: not staggerable (the coordinator clamps to one tablet).
  virtual bool SupportsStaggeredTablets() const { return false; }

  /// \brief True when target table `id`'s records are keyed so that a
  /// source key in tablet k lands in target tablet k (same hash-range),
  /// letting a migrated-tablet client op acquire target locks that actually
  /// cover it. The split's S-side aggregates many source keys per bucket,
  /// so it is not aligned; everything pk-preserving is. Only consulted when
  /// SupportsStaggeredTablets(). Default: aligned.
  virtual bool TargetTabletAligned(TableId id) const {
    (void)id;
    return true;
  }

  /// \brief Installs the coordinator's priority controller so the bulky
  /// operator-internal work (initial population, CC scans) also runs at the
  /// transformation's background duty cycle. May be nullptr (no throttle).
  void set_throttle(PriorityController* throttle) { throttle_ = throttle; }

  /// \brief Installs the population-pipeline shape (worker count, batch
  /// size); called by the coordinator alongside set_throttle, from
  /// TransformConfig::populate_workers. Default: serial, 256-record
  /// batches.
  void set_populate_config(const PopulateConfig& config) {
    populate_config_ = config;
  }

 protected:
  explicit OperatorRules(engine::Database* db) : db_(db) {}

  engine::Database* db() const { return db_; }

  /// Creates transformed table `name` and records it for Targets() and
  /// DropTargets(). Fails (recording nothing) if the name is taken.
  Result<std::shared_ptr<storage::Table>> CreateTarget(const std::string& name,
                                                       Schema schema) {
    MORPH_ASSIGN_OR_RETURN(auto table, db_->CreateTable(name, std::move(schema)));
    targets_.push_back(table);
    return table;
  }

  /// The pipeline shape InitialPopulate should run with.
  const PopulateConfig& populate_config() const { return populate_config_; }

  /// The raw controller, for the population pipeline's per-worker
  /// throttles (may be nullptr).
  PriorityController* throttle_controller() const { return throttle_; }

 private:
  engine::Database* const db_;
  std::vector<std::shared_ptr<storage::Table>> targets_;
  PriorityController* throttle_ = nullptr;
  PopulateConfig populate_config_;
};

}  // namespace morph::transform
