#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace morph::transform {

/// \brief Duty-cycle throttle making the transformation a tunable
/// low-priority background process.
///
/// The paper runs its reorganizer at an adjustable priority and shows
/// (Figure 4d) the interference/completion-time trade-off, including a
/// priority floor below which propagation never catches up with log
/// generation. The engine is a single process, so "priority" is modelled as
/// a duty cycle: after each slice of propagation work taking `w` µs, the
/// propagator sleeps `w * (1 - p) / p` µs, giving it a fraction `p` of
/// wall-clock time. Sleeps are capped so a priority change takes effect
/// quickly.
///
/// Propagation is one serial loop on the coordinator thread, so the batch
/// time it reports is all of propagation's CPU: at priority `p` the
/// propagator uses about `p` of one core (Figure 4(d)). The duty is paid per
/// worker (WorkerThrottle), so initial population with N workers uses about
/// N·p cores at priority `p`; N defaults to half the cores the process may
/// run on (transform/populate.h).
class PriorityController {
 public:
  explicit PriorityController(double priority = 1.0) { set_priority(priority); }

  /// \brief Sets the duty cycle, clamped to [0.001, 1.0].
  void set_priority(double p) {
    priority_.store(std::clamp(p, 0.001, 1.0), std::memory_order_relaxed);
  }

  double priority() const { return priority_.load(std::memory_order_relaxed); }

  /// \brief Reports a completed work slice of `work_nanos`; sleeps to
  /// maintain the duty cycle.
  ///
  /// Work slices can be sub-microsecond (a batch of log records against an
  /// in-memory table), so the owed sleep is accumulated as a debt and paid
  /// once it reaches a schedulable quantum — a naive per-slice sleep would
  /// round down to zero and silently run at full priority.
  ///
  /// The payment runs in capped chunks *until the debt is cleared*. Paying
  /// at most one chunk per call (an earlier revision did) silently ran the
  /// transformation at `w / (w + 50 ms)` instead of `p` whenever a slice
  /// owed more than one chunk — at p = 0.01 a 5 ms slice owes 495 ms, so a
  /// single 50 ms payment left the achieved duty ~9x the requested one.
  /// The chunk cap exists only so a *raised* priority takes effect within
  /// 50 ms; the loop re-reads the priority between chunks and forgives the
  /// remaining debt when it was raised, since that debt was priced at the
  /// old priority.
  void OnWorkDone(int64_t work_nanos) { PayInto(&sleep_debt_nanos_, work_nanos); }

  /// \brief Per-worker throttle handle for parallel stages (the initial-
  /// population pipeline's scan/insert workers). Each handle owns a private
  /// sleep debt — preserving the single-payer-per-debt contract the
  /// controller's own debt relies on — while work and sleep totals aggregate
  /// into the shared controller's atomics. Every worker independently
  /// sleeping (1 - p) / p of its own work keeps the *group's* duty
  /// (totals().achieved()) at p in any interleaving: the ratio holds per
  /// worker, so it holds for the sum.
  class WorkerThrottle {
   public:
    /// \param controller shared controller; nullptr = unthrottled.
    explicit WorkerThrottle(PriorityController* controller)
        : controller_(controller) {}

    void OnWorkDone(int64_t work_nanos) {
      if (controller_ != nullptr) {
        controller_->PayInto(&sleep_debt_nanos_, work_nanos);
      }
    }

   private:
    PriorityController* controller_;
    double sleep_debt_nanos_ = 0;
  };

  /// \brief Cumulative work/sleep accounting, readable from any thread.
  /// `achieved()` is the realized duty cycle; compare against `priority()`
  /// (the requested one) over a snapshot delta to judge throttle fidelity.
  struct DutyTotals {
    int64_t work_nanos = 0;
    int64_t slept_nanos = 0;
    double achieved() const {
      const int64_t wall = work_nanos + slept_nanos;
      return wall <= 0 ? 1.0
                       : static_cast<double>(work_nanos) /
                             static_cast<double>(wall);
    }
  };

  DutyTotals totals() const {
    return {work_nanos_total_.load(std::memory_order_relaxed),
            slept_nanos_total_.load(std::memory_order_relaxed)};
  }

 private:
  /// The debt-payment loop shared by OnWorkDone (paying the controller's
  /// own debt) and WorkerThrottle (paying a worker-private debt). `*debt`
  /// must be owned by the calling thread — that is the single-payer
  /// contract; only the totals are shared (atomics).
  void PayInto(double* debt, int64_t work_nanos) {
    if (work_nanos <= 0) return;
    work_nanos_total_.fetch_add(work_nanos, std::memory_order_relaxed);
    const double p = priority();
    if (p >= 1.0) {
      *debt = 0;  // stale debt priced at a lower priority
      return;
    }
    *debt += static_cast<double>(work_nanos) * (1.0 - p) / p;
    constexpr double kMinSleepNanos = 100'000.0;      // 100 µs quantum
    constexpr double kMaxSleepNanos = 50'000'000.0;   // stay responsive
    while (*debt >= kMinSleepNanos) {
      const double chunk = std::min(*debt, kMaxSleepNanos);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(static_cast<int64_t>(chunk)));
      slept_nanos_total_.fetch_add(static_cast<int64_t>(chunk),
                                   std::memory_order_relaxed);
      *debt -= chunk;
      if (priority() > p) {
        *debt = 0;
        break;
      }
    }
  }

  std::atomic<double> priority_{1.0};
  /// Owed-but-unpaid sleep; only touched by the thread driving the work —
  /// the coordinator thread during propagation, or the populating thread
  /// during a serial initial scan. Parallel population workers each pay
  /// into their own WorkerThrottle debt instead.
  double sleep_debt_nanos_ = 0;
  std::atomic<int64_t> work_nanos_total_{0};
  std::atomic<int64_t> slept_nanos_total_{0};
};

}  // namespace morph::transform
