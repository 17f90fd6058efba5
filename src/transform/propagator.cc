#include "transform/propagator.h"

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "wal/log_record.h"

namespace morph::transform {

LogPropagator::LogPropagator(wal::Wal* wal, OperatorRules* rules,
                             txn::TransformLockTable* tlocks,
                             PriorityController* priority,
                             PropagatorConfig config)
    : wal_(wal),
      rules_(rules),
      tlocks_(tlocks),
      priority_(priority),
      config_(config) {}

void LogPropagator::SetSources(const std::vector<TableId>& source_ids) {
  sources_ = TableIdSet(source_ids);
  primary_source_ = source_ids.empty() ? 0 : source_ids[0];
}

Status LogPropagator::ApplyOp(const Op& op, txn::LockOrigin origin) {
  MORPH_FAILPOINT("transform.propagate.apply");
  std::vector<txn::RecordId> affected;
  MORPH_RETURN_NOT_OK(
      rules_->Apply(op, tlocks_ != nullptr ? &affected : nullptr));
  if (tlocks_ != nullptr && op.txn_id != kInvalidTxnId) {
    // §3.3: locks are maintained on the transformed-table records for the
    // whole transformation; conflicts among transferred locks are
    // impossible by Figure 2, so this never blocks.
    for (const txn::RecordId& rid : affected) {
      tlocks_->AddTransferred(op.txn_id, rid, origin, txn::Access::kWrite);
    }
  }
  ops_applied_.fetch_add(1, std::memory_order_relaxed);
  MORPH_COUNTER_INC("transform.propagate.ops");
  return Status::OK();
}

Status LogPropagator::ProcessRecord(const wal::LogRecord& rec) {
  switch (rec.type) {
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kDelete:
    case wal::LogRecordType::kUpdate:
    case wal::LogRecordType::kClr: {
      if (!sources_.contains(rec.table_id)) return Status::OK();
      if (record_filter_ && !record_filter_(rec)) {
        MORPH_COUNTER_INC("transform.tablet.ops_skipped");
        return Status::OK();
      }
      auto op = Op::FromLogRecord(rec);
      if (!op) return Status::OK();
      const txn::LockOrigin origin = rec.table_id == primary_source_
                                         ? txn::LockOrigin::kSource0
                                         : txn::LockOrigin::kSource1;
      return ApplyOp(*op, origin);
    }
    case wal::LogRecordType::kCommit:
    case wal::LogRecordType::kTxnEnd:
      // "Source table locks held in the transformed tables are released as
      // soon as the propagator has processed the [completion] log record of
      // the lock owner transaction" (§3.4).
      if (tlocks_ != nullptr) tlocks_->ReleaseTxn(rec.txn_id);
      return Status::OK();
    case wal::LogRecordType::kCcBegin:
    case wal::LogRecordType::kCcOk:
      // a = bracket LSN, b = 0 for kCcBegin / 1 for kCcOk.
      MORPH_TRACE("transform.propagate.cc_bracket",
                  static_cast<int64_t>(rec.lsn),
                  rec.type == wal::LogRecordType::kCcOk ? 1 : 0);
      return rules_->OnControlRecord(rec);
    default:
      return Status::OK();
  }
}

Result<size_t> LogPropagator::PropagateRange(
    Lsn from, Lsn to, bool throttled, std::atomic<Lsn>* next_lsn,
    const std::function<bool()>& cancel) {
  size_t count = 0;
  next_lsn->store(from, std::memory_order_release);
  Lsn next = from;
  while (next <= to) {
    const auto batch_start = Clock::Now();
    const size_t count_before = count;
    const Lsn stop = std::min<Lsn>(to, next + config_.batch_size - 1);
    // Zero-copy chunked scan, applying by reference under the WAL's shared
    // lock — copying every record out would make propagation as expensive
    // as the transactions that produced it (see Wal::Scan). Checked: a
    // truncation racing past the reader means records this transformation
    // never applied are gone — propagating past the hole would silently
    // lose updates, so the transformation fails instead.
    Status failure;
    auto scanned =
        wal_->ScanChecked(next, stop, [&](const wal::LogRecord& rec) {
          if (!failure.ok()) return;
          failure = ProcessRecord(rec);
          count++;
        });
    if (failure.ok() && !scanned.ok()) failure = scanned.status();
    MORPH_COUNTER_INC("transform.propagate.batches");
    MORPH_COUNTER_ADD("transform.propagate.records", count - count_before);
    // a = first LSN of the batch, b = records processed in it.
    MORPH_TRACE("transform.propagate.batch", static_cast<int64_t>(next),
                static_cast<int64_t>(count - count_before));
    MORPH_RETURN_NOT_OK(failure);
    next = stop + 1;
    next_lsn->store(next, std::memory_order_release);
    if (throttled) {
      // The whole batch ran on this thread, so its wall time is all of
      // propagation's CPU for it.
      priority_->OnWorkDone(Clock::NanosSince(batch_start));
      if (cancel && cancel()) break;
    }
  }
  return count;
}

}  // namespace morph::transform
