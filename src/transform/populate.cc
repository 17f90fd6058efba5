#include "transform/populate.h"

#include <exception>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace morph::transform {

Status BatchSink::Flush() {
  if (batch_.empty()) return Status::OK();
  // One deterministic site per flush, on whatever thread drives the sink —
  // the crash matrix uses it to kill population mid-batch on both the
  // serial and the parallel rows.
  MORPH_FAILPOINT("transform.populate.batch");
  const size_t n = batch_.size();
  const auto t0 = Clock::Now();
  const auto result = mode_ == Mode::kLsnUpsert
                          ? target_->UpsertBatchLsnGated(std::move(batch_))
                          : target_->InsertBatch(std::move(batch_));
  batch_.clear();  // moved-from: restore a defined empty state
  batch_.reserve(worker_->batch_size());
  worker_->insert_nanos_ += Clock::NanosSince(t0);
  if (!result.ok()) return result.status();
  MORPH_HISTOGRAM_VALUE("transform.populate.batch_records",
                        static_cast<int64_t>(n));
  MORPH_COUNTER_ADD("transform.populate.records", static_cast<int64_t>(n));
  // Pay for the whole slice since the worker's last payment: the scan and
  // operator work that filled this batch, plus the insert itself.
  worker_->PayThrottle();
  return Status::OK();
}

void PopulateWorker::RecordStages() const {
  const int64_t wall = Clock::NanosSince(start_);
  const int64_t op = wall - scan_nanos_ - insert_nanos_ - slept_nanos_;
  MORPH_COUNTER_ADD("transform.populate.stage.scan_nanos", scan_nanos_);
  MORPH_COUNTER_ADD("transform.populate.stage.insert_nanos", insert_nanos_);
  MORPH_COUNTER_ADD("transform.populate.stage.operator_nanos",
                    op > 0 ? op : 0);
}

Status RunPopulatePhase(PriorityController* throttle,
                        const PopulateConfig& config,
                        const std::function<Status(PopulateWorker&)>& body) {
  if (config.workers == 0) {
    // Serial = the N = 0 case: same body, inline, one partition. Exceptions
    // propagate naturally (we are already on the caller's thread).
    PopulateWorker worker(0, 1, config, throttle);
    const Status st = body(worker);
    if (st.ok()) worker.PayThrottle();
    worker.RecordStages();
    return st;
  }

  // Parallel: one thread per worker. The first failure of either kind wins;
  // exceptions are funneled through an exception_ptr and re-thrown here so
  // a crash failpoint firing on a worker behaves exactly like one firing on
  // the coordinator thread (the crash matrix catches it via fut.get()).
  std::mutex err_mu;
  Status first_error;
  std::exception_ptr first_exception;
  std::vector<std::thread> threads;
  threads.reserve(config.workers);
  for (size_t i = 0; i < config.workers; ++i) {
    threads.emplace_back([&, i] {
      PopulateWorker worker(i, config.workers, config, throttle);
      Status st;
      try {
        st = body(worker);
      } catch (...) {
        std::unique_lock lock(err_mu);
        if (!first_exception) first_exception = std::current_exception();
        return;
      }
      if (st.ok()) worker.PayThrottle();
      worker.RecordStages();
      if (!st.ok()) {
        std::unique_lock lock(err_mu);
        if (first_error.ok()) first_error = st;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_exception) std::rethrow_exception(first_exception);
  return first_error;
}

}  // namespace morph::transform
