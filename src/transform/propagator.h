#pragma once

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "transform/op.h"
#include "transform/operator_rules.h"
#include "transform/priority.h"
#include "transform/table_id_set.h"
#include "txn/transform_locks.h"
#include "wal/wal.h"

namespace morph::transform {

struct PropagatorConfig {
  /// Log records scanned per batch; the priority throttle runs between
  /// batches.
  size_t batch_size = 512;
};

/// \brief The log propagator (paper §3.3), factored out of
/// TransformCoordinator: one serial loop that redoes source-table log
/// records into the transformed tables.
///
/// PropagateRange scans the WAL in bounded LSN batches (Wal::ScanChecked,
/// applying each record in place), and for every record:
///
///  - a source-table data record is normalized into an Op, applied through
///    OperatorRules::Apply, and its source lock mirrored onto every
///    transformed-table record the rule touched
///    (TransformLockTable::AddTransferred);
///  - a kCommit/kTxnEnd releases the transaction's mirrored locks at once:
///    every op of it has a lower LSN, so it has already been applied (§3.4);
///  - a kCcBegin/kCcOk bracket goes to OperatorRules::OnControlRecord,
///    which thereby observes every lower-LSN op (§5.3).
///
/// The priority duty cycle runs between batches. The batch time it is
/// charged is all of propagation's CPU, so a transform at priority p costs
/// about p of one core (Figure 4(d)).
///
/// **Failure.** A non-OK Status from a rule, or a scan gap left by a
/// truncation racing past the reader, stops the loop and is returned from
/// PropagateRange. The failpoint "transform.propagate.apply" fires before
/// every op is applied (crash tests arm it to throw CrashException).
///
/// Thread safety: PropagateRange must be called from one thread at a time
/// (the coordinator thread). ops_applied() is safe from any thread.
class LogPropagator {
 public:
  /// `tlocks` may be null: the run then mirrors no source locks (a
  /// continuous run, which never switches over).
  LogPropagator(wal::Wal* wal, OperatorRules* rules,
                txn::TransformLockTable* tlocks, PriorityController* priority,
                PropagatorConfig config);

  LogPropagator(const LogPropagator&) = delete;
  LogPropagator& operator=(const LogPropagator&) = delete;

  /// \brief Installs the source-table filter. Must be called after the
  /// operator's Prepare(), before the first PropagateRange(). `source_ids`
  /// is in OperatorRules::Sources() order: the first entry gets
  /// LockOrigin::kSource0, any other kSource1.
  void SetSources(const std::vector<TableId>& source_ids);

  /// \brief Installs (or clears, with nullptr) a per-record data filter for
  /// staggered tablet propagation: a source-table data record for which the
  /// predicate returns false is skipped (counted in
  /// `transform.tablet.ops_skipped`), exactly as if it belonged to a
  /// non-source table. Completion/CC records are unaffected. Must not be
  /// changed while a PropagateRange is in flight.
  void SetRecordFilter(std::function<bool(const wal::LogRecord&)> filter) {
    record_filter_ = std::move(filter);
  }

  /// \brief Processes log records [from, to]; returns the count processed.
  /// On return every processed op has been applied and every processed
  /// completion record has released its locks. `next_lsn` is kept at the
  /// next LSN to read throughout. `throttled` applies the priority duty
  /// cycle between batches. `cancel` (optional) is polled between throttled
  /// batches; returning true stops early.
  Result<size_t> PropagateRange(Lsn from, Lsn to, bool throttled,
                                std::atomic<Lsn>* next_lsn,
                                const std::function<bool()>& cancel);

  /// \brief Total ops applied. A relaxed atomic, so a monitoring thread may
  /// sample it while PropagateRange runs.
  size_t ops_applied() const {
    return ops_applied_.load(std::memory_order_relaxed);
  }

 private:
  /// Handles one log record (data op / txn completion / CC bracket).
  Status ProcessRecord(const wal::LogRecord& rec);
  /// Applies one op and mirrors its source lock onto the records it touched.
  Status ApplyOp(const Op& op, txn::LockOrigin origin);

  wal::Wal* wal_;
  OperatorRules* rules_;
  txn::TransformLockTable* tlocks_;
  PriorityController* priority_;
  const PropagatorConfig config_;

  TableIdSet sources_;
  TableId primary_source_ = 0;  ///< LockOrigin::kSource0

  /// Staggered-tablet record filter (null = pass everything).
  std::function<bool(const wal::LogRecord&)> record_filter_;

  std::atomic<size_t> ops_applied_{0};
};

}  // namespace morph::transform
