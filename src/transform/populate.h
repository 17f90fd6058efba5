#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "storage/table.h"
#include "transform/priority.h"

namespace morph::transform {

/// \brief Half the CPUs this process may run on (its sched_getaffinity
/// set, which is what `nproc` prints), and at least 1: the default
/// population width. The other half is left to foreground transactions,
/// whose latency is what an online transform is judged by.
size_t DefaultPopulateWorkers();

/// \brief Shape of the shared initial-population pipeline (paper §3.2).
///
/// Every operator's InitialPopulate() is a sequence of *phases* run through
/// RunPopulatePhase: each phase executes the same body once per worker, with
/// worker w owning source shards (and any hash-partitioned build state)
/// congruent to w modulo the worker count. Records leave each worker through
/// a BatchSink, which amortizes shard-mutex and index traffic via
/// Table::InsertBatch and pays the duty cycle on every flush. Each operator
/// pre-sizes its targets (Table::Reserve) from its source sizes before the
/// first phase, and reads its sources through PopulateWorker::ScanShards, so
/// the phase's time splits into the transform.populate.stage.{scan,
/// operator,insert}_nanos counters (summed over workers).
///
/// The serial path is the N = 1 case of the same code: the calling thread
/// is always worker 0, and one worker is one inline partition, not a
/// separate legacy implementation.
struct PopulateConfig {
  /// Threads that run each phase, the calling thread included (values
  /// below 1 count as 1). The default is DefaultPopulateWorkers().
  size_t workers = DefaultPopulateWorkers();
  /// Records per BatchSink flush; also the throttle-payment granularity,
  /// matching the serial operators' historical 256-record slices.
  size_t batch_size = 256;
  /// Source-shard scan range [shard_begin, min(shard_end, num_shards)) —
  /// how a staggered tablet transform scopes an operator's populate scan to
  /// one tablet's shard range (storage/tablet.h). The defaults cover the
  /// whole table, which is the non-staggered path unchanged.
  size_t shard_begin = 0;
  size_t shard_end = static_cast<size_t>(-1);
};

class PopulateWorker;

/// \brief Runs one pipeline phase: `body(worker)` once per worker.
///
/// The calling thread runs worker 0 and config.workers − 1 helper threads
/// run the rest; every helper is joined before returning. The first non-OK
/// Status is returned, and the first exception (a crash failpoint firing on
/// any worker, say) is re-thrown on the calling thread once the helpers are
/// joined — exceptions never cross the std::thread boundary. Sets the
/// transform.populate.workers gauge to the worker count.
/// After the body returns OK, any wall-clock time it has not yet paid to
/// the throttle is paid, so a phase is fully covered by the duty cycle
/// even if it never flushed a sink.
Status RunPopulatePhase(PriorityController* throttle,
                        const PopulateConfig& config,
                        const std::function<Status(PopulateWorker&)>& body);

/// \brief One worker's identity and throttle within a population phase.
///
/// Workers partition two kinds of state by congruence: source *shards*
/// (ScanShards — each key lives in exactly one shard, so the workers' shard
/// sets are disjoint and cover the configured range) and *hash buckets* of
/// operator build state (`hash % partitions()` names the owning worker).
/// The throttle mark lives on the worker, not on a sink, so a phase with
/// several sinks never pays the same wall time twice.
class PopulateWorker {
 public:
  size_t index() const { return index_; }
  /// Partition count: the phase's worker count — 1 on the serial path.
  size_t partitions() const { return partitions_; }
  size_t batch_size() const { return batch_size_; }

  /// \brief Pays the duty cycle for all wall time since the previous
  /// payment (the sleep, if owed, happens here; slept time is not counted
  /// as work).
  void PayThrottle() {
    const Clock::TimePoint now = Clock::Now();
    throttle_.OnWorkDone(NanosBetween(mark_, now));
    mark_ = Clock::Now();
    slept_nanos_ += NanosBetween(now, mark_);
  }

  /// \brief Calls `body(record)` for every record of every source shard
  /// this worker owns — [shard_begin + index(), min(shard_end,
  /// num_shards)) in steps of partitions() — and returns the first non-OK
  /// Status. The record is the worker's own copy (the body may move from
  /// it). Every operator reads its sources through here; the shard
  /// snapshots (Table::SnapshotShard) are timed as the scan stage. A
  /// template, so the body inlines: no indirect call per shard or record.
  template <typename Body>
  Status ScanShards(const storage::Table& table, Body&& body) {
    const size_t end = std::min(shard_end_, table.num_shards());
    for (size_t sh = shard_begin_ + index_; sh < end; sh += partitions_) {
      const Clock::TimePoint t0 = Clock::Now();
      std::vector<storage::Record> records = table.SnapshotShard(sh);
      scan_nanos_ += Clock::NanosSince(t0);
      for (storage::Record& rec : records) MORPH_RETURN_NOT_OK(body(rec));
    }
    return Status::OK();
  }

 private:
  friend class BatchSink;
  friend Status RunPopulatePhase(
      PriorityController* throttle, const PopulateConfig& config,
      const std::function<Status(PopulateWorker&)>& body);

  PopulateWorker(size_t index, size_t partitions, const PopulateConfig& config,
                 PriorityController* controller)
      : index_(index),
        partitions_(partitions),
        batch_size_(config.batch_size > 0 ? config.batch_size : 256),
        shard_begin_(config.shard_begin),
        shard_end_(config.shard_end),
        throttle_(controller),
        start_(Clock::Now()),
        mark_(start_) {}

  static int64_t NanosBetween(Clock::TimePoint from, Clock::TimePoint to) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
  }

  /// Adds this worker's phase to the transform.populate.stage.* counters:
  /// scan (source snapshots), insert (BatchSink flushes) and operator (the
  /// rest of the phase's wall time minus throttle sleeps — build, probe
  /// and row construction).
  void RecordStages() const;

  const size_t index_;
  const size_t partitions_;
  const size_t batch_size_;
  const size_t shard_begin_;
  const size_t shard_end_;
  PriorityController::WorkerThrottle throttle_;
  const Clock::TimePoint start_;
  Clock::TimePoint mark_;
  int64_t scan_nanos_ = 0;
  int64_t insert_nanos_ = 0;
  int64_t slept_nanos_ = 0;
};

/// \brief Per-worker batched sink into one target table.
///
/// Add() buffers; every batch_size records (and on the final Flush) the
/// buffer goes to the table as one grouped batch — one shard-mutex
/// acquisition per destination shard, one AddBatch per index, timed as the
/// insert stage — after which the worker pays the duty cycle for
/// everything since its last payment. The sink is how the split's S-side
/// flush, once an unthrottled burst, became throttled for free: all
/// population inserts funnel through here.
class BatchSink {
 public:
  enum class Mode {
    /// Duplicates tolerated (first/stored occurrence wins) — the fuzzy
    /// population default: anomaly duplicates converge via the log.
    kInsert,
    /// Higher-LSN image wins (Table::UpsertBatchLsnGated) — the merge
    /// population's newest-contributor seeding.
    kLsnUpsert,
  };

  BatchSink(storage::Table* target, Mode mode, PopulateWorker* worker)
      : target_(target), mode_(mode), worker_(worker) {
    batch_.reserve(worker_->batch_size());
  }

  /// \brief Buffers one record, flushing when the batch is full.
  Status Add(storage::Record record) {
    batch_.push_back(std::move(record));
    if (batch_.size() >= worker_->batch_size()) return Flush();
    return Status::OK();
  }

  /// \brief Writes the buffered batch (no-op when empty). Must be called
  /// once more after the last Add.
  Status Flush();

 private:
  storage::Table* target_;
  const Mode mode_;
  PopulateWorker* worker_;
  std::vector<storage::Record> batch_;
};

}  // namespace morph::transform
