#include "transform/populate.h"

#include <sched.h>

#include <algorithm>
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

size_t DefaultPopulateWorkers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  } else {
    cpus = std::thread::hardware_concurrency();
  }
  return std::max<size_t>(1, cpus / 2);
}

Status RunPopulatePhase(PriorityController* throttle,
                        const PopulateConfig& config,
                        const std::function<Status(PopulateWorker&)>& body) {
  const size_t workers = std::max<size_t>(1, config.workers);
  MORPH_GAUGE_SET("transform.populate.workers",
                  static_cast<int64_t>(workers));
  // The first failure of either kind wins. Exceptions are funneled through
  // an exception_ptr and re-thrown only after every helper is joined, so a
  // crash failpoint firing on any worker behaves exactly like one firing on
  // the coordinator thread (the crash matrix catches it via fut.get()).
  std::mutex err_mu;
  Status first_error;
  std::exception_ptr first_exception;
  auto run = [&](size_t i) {
    PopulateWorker worker(i, workers, config, throttle);
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
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (size_t i = 1; i < workers; ++i) helpers.emplace_back(run, i);
  run(0);
  for (auto& t : helpers) t.join();
  if (first_exception) std::rethrow_exception(first_exception);
  return first_error;
}

}  // namespace morph::transform
