// Schema changes under live load, end to end and layer by layer.
//
//   morph_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--peak 1]
//
// One run loads a workload's tables on a durable WAL under <dir> (flushed to
// the page cache, see flush_policy.cc), drives an open-loop client load
// through the public Database API, and alternates no-transform (baseline)
// windows with online transform cycles on the same database. After every cycle the targets are checked against the operator
// applied to the acknowledged pre-switch writes, then dropped. The last line
// of stdout is one JSON object: the end-to-end metrics (--trace 0) or the
// per-layer metrics and the tracing overhead (--trace 1). The exit code is
// non-zero when any check fails. With --peak 1 the run instead measures the
// workload mix's unpaced peak (see Runner::Peak).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <sys/prctl.h>
#include <unistd.h>
#include <vector>

#include "common/metrics.h"
#include "latency.h"
#include "trace_spans.h"
#include "transform/coordinator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using morph::Lsn;
using morph::Row;
using morph::Status;
using morph::Value;
using morph::transform::TransformCoordinator;
using Phase = TransformCoordinator::Phase;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool peak = false;
  std::string work_dir = ".";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--peak") {
      o->peak = v == "1";
    } else if (k == "--work-dir") {
      o->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

/// One acknowledged update of a source-table key.
struct Ack {
  int64_t key;
  int64_t value;
  Lsn commit_lsn;
  uint64_t epoch;
};

constexpr uint64_t kIdle = UINT64_MAX;

/// \brief One open-loop client: a fixed schedule of requests, each timed
/// from when it was due. An aborted attempt is retried inside the request
/// until it commits or its deadline passes. A client with a zero rate runs
/// closed loop instead: each request is due when the previous one ended.
class Client {
 public:
  Client(size_t index, const WorkloadSpec& spec, Scenario* sc, uint64_t seed,
         Tracer* tracer, int64_t start, double rps)
      : index_(index), spec_(spec), sc_(sc), rng_(seed), tracer_(tracer) {
    interval_ = rps > 0 ? static_cast<int64_t>(1e9 * kClients / rps) : 0;
    // Clients are interleaved evenly inside one interval.
    next_due_ = start + interval_ * static_cast<int64_t>(index) /
                            static_cast<int64_t>(kClients);
    samples_.reserve(1 << 16);
    values_.resize(kOpsPerRequest);
  }

  ~Client() {
    StopAt(0);
    Join();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Requests due at or after `t` are not issued.
  void StopAt(int64_t t) { stop_at_.store(t); }
  void set_tracing(bool on) { tracing_.store(on); }

  /// Epoch of the in-flight transaction; kIdle between requests, 0 while a
  /// transaction is being begun.
  uint64_t inflight_epoch() const { return inflight_.load(); }

  std::vector<Ack> TakeAcks() {
    std::lock_guard lock(acks_mu_);
    std::vector<Ack> out;
    out.swap(acks_);
    return out;
  }

  /// Valid after Join().
  const std::vector<RequestSample>& samples() const { return samples_; }
  const std::string& error() const { return error_; }

 private:
  struct OpPlan {
    bool on_source;
    int64_t key;
  };

  void Loop() {
    // The default 50 us timer slack would add itself to every request that
    // waits for its due time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    spans_ = tracer_->NewBuffer();
    std::uniform_real_distribution<double> unit(0, 1);
    while (true) {
      const int64_t due = interval_ == 0 ? NowNanos() : next_due_;
      next_due_ += interval_;
      if (due >= stop_at_.load()) break;
      // Plan the request before waiting, from the client's own stream.
      const bool read_only = unit(rng_) < spec_.read_share;
      plan_.clear();
      while (plan_.size() < kOpsPerRequest) {
        const bool on_source = read_only || unit(rng_) < spec_.source_share;
        const int64_t rows = on_source ? spec_.source_rows : kDummyRows;
        const int64_t key = static_cast<int64_t>(rng_() % static_cast<uint64_t>(rows));
        bool dup = false;
        for (const OpPlan& p : plan_) dup |= p.on_source == on_source && p.key == key;
        if (!dup) plan_.push_back({on_source, key});
      }
      int64_t now = NowNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNanos();
      }
      RequestSample s;
      s.due = due;
      s.sent = now;
      SpanBuffer* spans = tracing_.load() ? spans_ : nullptr;
      const uint64_t trace_id = (uint64_t{index_ + 1} << 40) | ++seq_;
      const int64_t deadline = due + kDeadlineMs * 1'000'000;
      while (NowNanos() < deadline) {
        const Status st = Attempt(read_only, spans, trace_id);
        if (st.ok()) {
          s.committed = true;
          break;
        }
        if (!(st.IsAborted() || st.IsDeadlock() || st.IsBusy() || st.IsNoSpace())) {
          error_ = st.ToString();
          break;
        }
        ++s.retries;
        // Refusals during a switch-over repeat until the coordinator
        // finishes; back off instead of spinning on them.
        if (st.IsAborted() || st.IsNoSpace()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      s.done = NowNanos();
      inflight_.store(kIdle);
      if (spans != nullptr) spans->Add("request", nullptr, s.sent, s.done, trace_id);
      samples_.push_back(s);
      if (!error_.empty()) break;
    }
    inflight_.store(kIdle);
  }

  Status Attempt(bool read_only, SpanBuffer* spans, uint64_t trace_id) {
    morph::engine::Database* db = sc_->db.get();
    inflight_.store(0);
    const morph::engine::TxnPtr t = db->Begin();
    inflight_.store(t->epoch());
    // Begin reads the epoch before it registers the transaction, so a Begin
    // that straddles a switch-over can register after the drain stopped
    // waiting for pre-switch transactions, and then run after the transform
    // completed while carrying a pre-switch epoch. Restart it: every
    // committed write's epoch then tells on which side of each switch it ran.
    if (db->current_epoch() != t->epoch()) {
      const Status ab = db->Abort(t);
      return ab.ok() ? Status::Aborted("epoch advanced during Begin") : ab;
    }
    Status st;
    for (size_t i = 0; i < plan_.size() && st.ok(); ++i) {
      const OpPlan& p = plan_[i];
      morph::storage::Table* table = p.on_source ? sc_->source.get() : sc_->dummy.get();
      if (read_only) {
        st = Timed(spans, "engine.read", "request", trace_id, [&] {
          return db->Read(t, table, Row({p.key})).status();
        });
      } else {
        values_[i] = (static_cast<int64_t>(index_ + 1) << 40) | ++value_seq_;
        const size_t column = p.on_source ? sc_->pay_column : 1;
        st = Timed(spans, "engine.update", "request", trace_id, [&] {
          return db->Update(t, table, Row({p.key}), {{column, Value(values_[i])}});
        });
      }
    }
    if (st.ok()) {
      st = Timed(spans, "engine.commit", "request", trace_id,
                 [&] { return db->Commit(t); });
      if (st.ok()) {
        if (!read_only) RecordAcks(t->last_lsn(), t->epoch());
        return st;
      }
    }
    if (t->state() == morph::txn::TxnState::kActive) {
      const Status ab = Timed(spans, "engine.abort", "request", trace_id,
                              [&] { return db->Abort(t); });
      if (!ab.ok()) return ab;
    }
    return st;
  }

  void RecordAcks(Lsn commit_lsn, uint64_t epoch) {
    std::lock_guard lock(acks_mu_);
    for (size_t i = 0; i < plan_.size(); ++i) {
      if (plan_[i].on_source) {
        acks_.push_back({plan_[i].key, values_[i], commit_lsn, epoch});
      }
    }
  }

  const size_t index_;
  const WorkloadSpec& spec_;
  Scenario* sc_;
  std::mt19937_64 rng_;
  Tracer* tracer_;
  SpanBuffer* spans_ = nullptr;
  int64_t interval_ = 0;
  int64_t next_due_ = 0;
  uint64_t seq_ = 0;
  int64_t value_seq_ = 0;
  std::vector<OpPlan> plan_;
  std::vector<int64_t> values_;  ///< update values of the planned ops
  std::vector<RequestSample> samples_;
  std::string error_;
  std::atomic<int64_t> stop_at_{INT64_MAX};
  std::atomic<bool> tracing_{true};
  std::atomic<uint64_t> inflight_{kIdle};
  std::mutex acks_mu_;
  std::vector<Ack> acks_;  // guarded by acks_mu_
  std::thread thread_;
};

/// How often the main thread polls during a cycle, and during a baseline
/// window so that both run the same threads.
constexpr auto kPollInterval = std::chrono::microseconds(200);

/// The sync window runs from sync entry to drain end plus this settle time.
constexpr int64_t kSyncSettleNanos = 200'000'000;

/// Log records kept when the log is truncated between cycles.
constexpr Lsn kLogKeep = 500'000;

struct Window {
  int64_t begin;
  int64_t end;
};

/// What one transform cycle measured.
struct Cycle {
  int64_t run_begin = 0;
  int64_t run_end = 0;
  // First poll that saw each phase; 0 when the phase was never seen.
  int64_t populate_at = 0;
  int64_t propagate_at = 0;
  int64_t sync_at = 0;
  int64_t drain_at = 0;
  int64_t backlog_max = 0;
  morph::transform::TransformStats stats;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Latencies (ns) of requests due inside any of `windows`, in due order.
std::vector<int64_t> LatenciesIn(const std::vector<const std::vector<RequestSample>*>& all,
                                 const std::vector<Window>& windows,
                                 int64_t (RequestSample::*value)() const = &RequestSample::latency) {
  std::vector<std::pair<int64_t, int64_t>> due_value;
  for (const auto* samples : all) {
    for (const Window& w : windows) {
      auto it = std::lower_bound(
          samples->begin(), samples->end(), w.begin,
          [](const RequestSample& s, int64_t t) { return s.due < t; });
      for (; it != samples->end() && it->due < w.end; ++it) {
        due_value.emplace_back(it->due, ((*it).*value)());
      }
    }
  }
  std::sort(due_value.begin(), due_value.end());
  std::vector<int64_t> out;
  out.reserve(due_value.size());
  for (const auto& dv : due_value) out.push_back(dv.second);
  return out;
}

double QuantileUs(std::vector<int64_t> v, double q) { return Quantile(&v, q) / 1e3; }

/// Requests per slice for the generator-lag tail (see SlicedQuantile).
constexpr size_t kSlice = 500;

/// Tail latency that one device or scheduler stall cannot decide: the `q`
/// quantile within each window, then the median over windows. Windows are
/// the baseline gaps or the cycles' transform or sync windows.
double PerWindowTailUs(const std::vector<const std::vector<RequestSample>*>& all,
                       const std::vector<Window>& windows, double q) {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    std::vector<int64_t> v = LatenciesIn(all, {w});
    if (!v.empty()) per_window.push_back(Quantile(&v, q));
  }
  return Median(per_window) / 1e3;
}

/// Registry readings bracketing the measured part of a run.
struct RegistryReading {
  uint64_t commits = 0;
  uint64_t flushes = 0;
  Lsn last_lsn = 0;
  std::vector<uint64_t> flush_buckets;

  static RegistryReading Take(morph::wal::Wal* wal) {
    auto& reg = morph::metrics::Registry::Instance();
    RegistryReading r;
    r.commits = reg.CounterValue("engine.txn.commits");
    r.flushes = reg.CounterValue("wal.group_commit.flushes");
    r.last_lsn = wal->LastLsn();
    const auto* h = reg.GetHistogram("wal.group_commit.flush_nanos");
    for (size_t i = 0; i < morph::metrics::Histogram::kBuckets; ++i) {
      r.flush_buckets.push_back(h->bucket(i));
    }
    return r;
  }
};

class Runner {
 public:
  Runner(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt), spec_(spec), tracer_(opt.trace) {}

  int Run() {
    main_spans_ = tracer_.NewBuffer();
    if (!SetUpAll()) return 2;
    expected_pay_.assign(spec_.source_rows, 0);
    expected_lsn_.assign(spec_.source_rows, 0);

    RegistryReading before;
    {
      StartClients(spec_.offered_rps());
      // Warm-up: load alone, then one checked but unmeasured cycle, so the
      // first measured populate does not pay for first-touch allocation.
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      if (RunCycle()) cycles_.clear();

      before = RegistryReading::Take(sc_->db->wal());
      const int64_t measure_begin = NowNanos();
      measure_begin_ = measure_begin;
      const int64_t budget = static_cast<int64_t>(opt_.seconds * 1e9);
      int64_t last_cycle_len = 0;
      while (ok()) {
        const int64_t elapsed = NowNanos() - measure_begin;
        if (cycles_.size() >= 2 && elapsed + last_cycle_len > budget) break;
        const int64_t c0 = NowNanos();
        Gap();
        if (!RunCycle()) break;
        last_cycle_len = NowNanos() - c0;
      }
      const int64_t stop = NowNanos();
      for (auto& c : clients_) c->StopAt(stop);
      for (auto& c : clients_) c->Join();
      for (auto& c : clients_) {
        if (!c->error().empty()) Fail("client error: " + c->error());
      }
    }
    const RegistryReading after = RegistryReading::Take(sc_->db->wal());
    Report(before, after);

    const std::filesystem::path wal_dir = sc_wal_dir_;
    sc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    if (!errors_.empty()) {
      for (const std::string& e : errors_) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
      return 1;
    }
    return 0;
  }

  /// The calibration behind WorkloadSpec::peak_rps: the workload's mix on
  /// its loaded database, no transform, every client closed loop. Prints the
  /// committed requests per second over --seconds after a 1 s warm-up.
  int Peak() {
    if (!SetUpAll()) return 2;
    StartClients(0);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const int64_t begin = NowNanos();
    std::this_thread::sleep_for(std::chrono::duration<double>(opt_.seconds));
    const int64_t end = NowNanos();
    for (auto& c : clients_) c->StopAt(0);
    uint64_t committed = 0;
    for (auto& c : clients_) {
      c->Join();
      if (!c->error().empty()) Fail("client error: " + c->error());
      for (const RequestSample& s : c->samples()) {
        committed += s.committed && s.done >= begin && s.done < end;
      }
    }
    const double rps = committed / ((end - begin) / 1e9);
    std::printf("workload %s on %u cores: unpaced peak %.0f req/s, offered %.0f req/s (%.2f)\n",
                spec_.name.c_str(), std::thread::hardware_concurrency(), rps,
                spec_.offered_rps(), spec_.offered_rps() / rps);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": 0, \"metrics\": {\"peak_rps\": {\"value\": %.9g, "
                "\"unit\": \"1/s\"}}}\n",
                ok() ? "true" : "false", committed, rps);
    std::fflush(stdout);
    const std::string wal_dir = sc_wal_dir_;
    clients_.clear();
    sc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    return ok() ? 0 : 1;
  }

 private:
  bool ok() const { return errors_.empty(); }

  /// Clients at `rps` requests per second in all, or closed loop for 0.
  void StartClients(double rps) {
    const int64_t start = NowNanos() + 1'000'000;
    for (size_t i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<Client>(
          i, spec_, sc_.get(), opt_.seed * 1'000'003 + i, &tracer_, start, rps));
    }
    for (auto& c : clients_) c->Start();
  }

  void Fail(const std::string& e) { errors_.push_back(e); }

  bool SetUpAll() {
    std::vector<double> setup_s;
    for (size_t i = 0; i < spec_.setups; ++i) {
      const std::string dir = opt_.work_dir + "/wal-" + spec_.name + "-" +
                              std::to_string(::getpid()) + "-" + std::to_string(i);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      const int64_t t0 = NowNanos();
      std::unique_ptr<Scenario> sc = SetUp(spec_, dir, main_spans_);
      const int64_t t1 = NowNanos();
      if (sc == nullptr) {
        std::fprintf(stderr, "set-up failed in %s\n", dir.c_str());
        std::filesystem::remove_all(dir, ec);
        return false;
      }
      setup_s.push_back((t1 - t0) / 1e9);
      bulkload_rows_ += sc->bulkload_rows;
      bulkload_nanos_ += sc->bulkload_nanos;
      if (i + 1 == spec_.setups) {
        sc_ = std::move(sc);
        sc_wal_dir_ = dir;
      } else {
        sc.reset();
        std::filesystem::remove_all(dir, ec);
      }
    }
    setup_s_ = Median(setup_s);
    return true;
  }

  /// A no-transform window. In the traced run every other one runs with
  /// tracing off, which is what the overhead is measured against.
  ///
  /// The window runs the threads a cycle runs: this thread polls as often,
  /// and a busy thread stands in for the coordinator. On an idle core the
  /// clients wake later from their waits for the due time, so a baseline on
  /// idle cores made a transform look faster than no transform.
  void Gap() {
    const bool traced = !opt_.trace || gaps_.size() % 2 == 0;
    for (auto& c : clients_) c->set_tracing(opt_.trace && traced);
    std::atomic<bool> stop{false};
    std::thread coordinator_stand_in([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
    const int64_t g0 = NowNanos();
    const int64_t end = g0 + static_cast<int64_t>(spec_.gap_s * 1e9);
    while (NowNanos() < end) {
      (void)sc_->db->wal()->LastLsn();
      std::this_thread::sleep_for(kPollInterval);
    }
    const Window w{g0, NowNanos()};
    stop.store(true);
    coordinator_stand_in.join();
    gaps_.push_back(w);
    (traced ? traced_gaps_ : untraced_gaps_).push_back(w);
    for (auto& c : clients_) c->set_tracing(opt_.trace);
  }

  bool RunCycle() {
    morph::engine::Database* db = sc_->db.get();
    auto rules = MakeRules(spec_, sc_.get());
    morph::transform::TransformConfig config;
    config.strategy = morph::transform::SyncStrategy::kNonBlockingAbort;
    config.drop_sources = false;
    config.tablets = spec_.tablets;
    config.sync_threshold = spec_.sync_threshold;
    config.max_records_per_iteration = spec_.max_records_per_iteration;
    TransformCoordinator coord(db, rules, config);

    Cycle c;
    c.run_begin = NowNanos();
    morph::Result<morph::transform::TransformStats> result =
        morph::Status::Internal("not run");
    std::atomic<bool> done{false};
    std::thread runner([&] {
      result = coord.Run();
      done.store(true);
    });
    // Poll the phase (the boundaries of the per-phase windows) and the
    // backlog.
    while (!done.load()) {
      const int64_t now = NowNanos();
      const Phase p = coord.phase();
      if (p >= Phase::kPopulating && c.populate_at == 0) c.populate_at = now;
      if (p >= Phase::kPropagating && c.propagate_at == 0) c.propagate_at = now;
      if (p >= Phase::kSynchronizing && c.sync_at == 0) c.sync_at = now;
      if (p >= Phase::kDraining && c.drain_at == 0) c.drain_at = now;
      const Lsn prop = coord.propagated_lsn();
      const Lsn last = db->wal()->LastLsn();
      if (prop != morph::kInvalidLsn && last >= prop) {
        c.backlog_max = std::max<int64_t>(c.backlog_max, last - prop + 1);
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    runner.join();
    c.run_end = NowNanos();
    // Phases that began and ended between two polls start at the run end.
    for (int64_t* at : {&c.populate_at, &c.propagate_at, &c.sync_at, &c.drain_at}) {
      if (*at == 0) *at = c.run_end;
    }
    // Requests queued behind the switch and the post-switch retries land in
    // the sync window; keep the check's CPU burst out of it.
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSyncSettleNanos));
    if (!result.ok() || !result->completed) {
      Fail("transform cycle " + std::to_string(cycles_.size()) + " did not complete: " +
           (result.ok() ? result->abort_reason : result.status().ToString()));
      return false;
    }
    c.stats = *result;
    if (main_spans_ != nullptr) RecordCycleSpans(c);
    cycles_.push_back(c);
    Check(coord, *rules);
    for (const auto& t : rules->Targets()) {
      if (!db->DropTable(t->name()).ok()) Fail("could not drop " + t->name());
    }
    // Log archiving, outside every measured window: bounds the in-memory log
    // and the segment files over a run. The margin keeps every record an
    // in-flight transaction may still need for its undo.
    const Lsn last = db->wal()->LastLsn();
    if (last > kLogKeep) db->wal()->TruncateBefore(last - kLogKeep);
    return ok();
  }

  void RecordCycleSpans(const Cycle& c) {
    main_spans_->Add("transform.run", nullptr, c.run_begin, c.run_end, 0);
    const std::pair<const char*, std::pair<int64_t, int64_t>> phases[] = {
        {"transform.populate", {c.populate_at, c.propagate_at}},
        {"transform.propagate", {c.propagate_at, c.sync_at}},
        {"transform.sync", {c.sync_at, c.drain_at}},
        {"transform.drain", {c.drain_at, c.run_end}},
    };
    for (const auto& [name, w] : phases) {
      if (w.first != 0 && w.second > w.first) {
        main_spans_->Add(name, "transform.run", w.first, w.second, 0);
      }
    }
  }

  /// After a completed cycle: fold the acknowledged pre-switch writes into
  /// the expected source state, then compare the targets with it.
  void Check(const TransformCoordinator& coord,
             const morph::transform::OperatorRules& rules) {
    morph::engine::Database* db = sc_->db.get();
    // A pre-switch commit may still be returning to its client (the drain
    // waits for the transaction, not for the acknowledgement).
    const uint64_t now_epoch = db->current_epoch();
    for (auto& cl : clients_) {
      while (cl->inflight_epoch() < now_epoch) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    for (auto& cl : clients_) {
      std::vector<Ack> acks = cl->TakeAcks();
      pending_.insert(pending_.end(), acks.begin(), acks.end());
    }
    const morph::transform::TabletTransformManager* tm = coord.tablet_manager();
    auto switch_epoch = [&](int64_t key) -> uint64_t {
      if (tm == nullptr) return now_epoch;  // one switch, the last advance
      return tm->switch_epoch(tm->TabletOf(Row({key})));
    };
    std::vector<Ack> later;
    for (const Ack& a : pending_) {
      if (a.epoch < switch_epoch(a.key)) {
        if (a.commit_lsn > expected_lsn_[a.key]) {
          expected_lsn_[a.key] = a.commit_lsn;
          expected_pay_[a.key] = a.value;
        }
      } else {
        later.push_back(a);
      }
    }
    pending_.swap(later);
    std::vector<std::string> errors;
    const size_t lost = CheckTargets(spec_, rules, expected_pay_, &errors);
    lost_updates_ += lost;
    if (lost != 0) {
      Fail("cycle " + std::to_string(cycles_.size()) + ": " + std::to_string(lost) +
           " lost updates");
    }
    for (const std::string& e : errors) Fail(e);
  }

  /// The sync window of each cycle: sync entry to drain end plus the settle.
  std::vector<Window> SyncWindows() const {
    std::vector<Window> w;
    for (const Cycle& c : cycles_) w.push_back({c.sync_at, c.run_end + kSyncSettleNanos});
    return w;
  }

  /// One window per cycle: Run() begin to end.
  std::vector<Window> CycleWindows() const {
    std::vector<Window> w;
    for (const Cycle& c : cycles_) w.push_back({c.run_begin, c.run_end});
    return w;
  }

  template <typename F>
  double CycleMedian(F f) const {
    std::vector<double> v;
    for (const Cycle& c : cycles_) v.push_back(f(c));
    return Median(v);
  }

  void Report(const RegistryReading& before, const RegistryReading& after) {
    std::vector<const std::vector<RequestSample>*> all;
    uint64_t attempted = 0, failed = 0, retries = 0;
    for (auto& c : clients_) {
      all.push_back(&c->samples());
      for (const RequestSample& s : c->samples()) {
        // The warm-up is not measured.
        if (s.due < measure_begin_) continue;
        ++attempted;
        failed += !s.committed;
        retries += s.retries;
      }
    }
    const std::vector<int64_t> lateness =
        LatenciesIn(all, {{measure_begin_, INT64_MAX}}, &RequestSample::lateness);
    const double fail_ratio = attempted ? static_cast<double>(failed) / attempted : 0;
    const std::vector<int64_t> txn = LatenciesIn(all, CycleWindows());
    const std::vector<int64_t> base = LatenciesIn(all, gaps_);
    const std::vector<int64_t> sync = LatenciesIn(all, SyncWindows());

    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    auto put = [&](const std::string& name, double v, const char* unit) {
      m.push_back({name, {v, unit}});
    };
    const double transform_s =
        CycleMedian([](const Cycle& c) { return (c.run_end - c.run_begin) / 1e9; });
    std::printf(
        "workload %s seed %" PRIu64 " on %u cores: %zu cycles, %" PRIu64
        " requests (%zu base, %zu in transform, %zu in sync windows), txn_fail_ratio %.6f, "
        "lost_updates %zu, retries %" PRIu64 "\n",
        spec_.name.c_str(), opt_.seed, std::thread::hardware_concurrency(), cycles_.size(),
        attempted, base.size(), txn.size(), sync.size(), fail_ratio, lost_updates_, retries);
    const double txn_p50 = QuantileUs(txn, 0.5);
    const double base_p50 = QuantileUs(base, 0.5);
    if (!opt_.trace) {
      put("setup_s", setup_s_, "s");
      put("transform_s", transform_s, "s");
      // The paper's relative response time, per cycle: the median latency
      // of the requests due inside the cycle over that of the same run's
      // no-transform windows, so host speed drifts cancel out. The median
      // over cycles keeps a few stalled cycles, which hold many queued
      // requests, from deciding the figure; the stalls show in the fg.*
      // tails of the traced run.
      put("txn_p50_rel", CycleMedian([&](const Cycle& c) {
            return QuantileUs(LatenciesIn(all, {{c.run_begin, c.run_end}}), 0.5) / base_p50;
          }),
          "ratio");
    } else {
      auto span_q = [&](const char* name, double q) {
        std::vector<int64_t> d = tracer_.Durations(name);
        return Quantile(&d, q) / 1e3;
      };
      put("engine.update_us.p50", span_q("engine.update", 0.5), "us");
      put("engine.update_us.p99", span_q("engine.update", 0.99), "us");
      put("engine.commit_us.p50", span_q("engine.commit", 0.5), "us");
      put("engine.commit_us.p99", span_q("engine.commit", 0.99), "us");
      put("engine.read_us.p50", span_q("engine.read", 0.5), "us");
      put("engine.read_us.p99", span_q("engine.read", 0.99), "us");
      put("engine.bulkload_rows_per_s",
          bulkload_nanos_ ? bulkload_rows_ / (bulkload_nanos_ / 1e9) : 0, "1/s");
      put("engine.retries_per_request",
          attempted ? static_cast<double>(retries) / attempted : 0, "ratio");
      const double commits = static_cast<double>(after.commits - before.commits);
      put("wal.records_per_commit",
          commits ? (after.last_lsn - before.last_lsn) / commits : 0, "ratio");
      put("wal.flushes_per_commit",
          commits ? (after.flushes - before.flushes) / commits : 0, "ratio");
      std::vector<uint64_t> flush(after.flush_buckets.size());
      for (size_t i = 0; i < flush.size(); ++i) {
        flush[i] = after.flush_buckets[i] - before.flush_buckets[i];
      }
      put("wal.flush_us.p50", BucketQuantileNanos(flush, 0.5) / 1e3, "us");
      put("wal.flush_us.p99", BucketQuantileNanos(flush, 0.99) / 1e3, "us");
      put("transform.populate_s",
          CycleMedian([](const Cycle& c) { return c.stats.populate_micros / 1e6; }), "s");
      const double source_rows = static_cast<double>(
          spec_.source_rows + (spec_.op == Operator::kFoj ? spec_.aux_rows : 0));
      put("transform.populate_rows_per_s", CycleMedian([&](const Cycle& c) {
            return c.stats.populate_micros ? source_rows / (c.stats.populate_micros / 1e6)
                                           : 0;
          }),
          "1/s");
      put("transform.propagate_s",
          CycleMedian([](const Cycle& c) { return c.stats.propagate_micros / 1e6; }), "s");
      // Staggered runs catch up inside their sync phase, so the rate is
      // over every phase that reads the log.
      put("transform.propagate_rec_per_s", CycleMedian([](const Cycle& c) {
            const double s = (c.stats.propagate_micros + c.stats.sync_micros +
                              c.stats.drain_micros) / 1e6;
            return s > 0 ? c.stats.log_records_processed / s : 0;
          }),
          "1/s");
      put("transform.backlog_max",
          CycleMedian([](const Cycle& c) { return static_cast<double>(c.backlog_max); }),
          "count");
      put("transform.sync_ms",
          CycleMedian([](const Cycle& c) { return c.stats.sync_micros / 1e3; }), "ms");
      put("transform.latch_ms_max",
          CycleMedian([](const Cycle& c) { return c.stats.sync_latch_nanos / 1e6; }), "ms");
      put("transform.latch_ms_sum", CycleMedian([](const Cycle& c) {
            if (c.stats.tablet_latch_nanos.empty()) return c.stats.sync_latch_nanos / 1e6;
            double sum = 0;
            for (int64_t n : c.stats.tablet_latch_nanos) sum += n / 1e6;
            return sum;
          }),
          "ms");
      put("transform.doomed",
          CycleMedian([](const Cycle& c) { return static_cast<double>(c.stats.txns_doomed); }),
          "count");
      put("transform.drain_ms",
          CycleMedian([](const Cycle& c) { return c.stats.drain_micros / 1e3; }), "ms");
      // A phase can be shorter than one poll, so a request counts for every
      // phase it was waiting or running in, not only the one it was due in.
      auto phase_p99 = [&](int64_t Cycle::*from, int64_t Cycle::*to) {
        std::vector<int64_t> v;
        for (const Cycle& c : cycles_) {
          const int64_t b = c.*from;
          const int64_t e = to == nullptr ? c.run_end : c.*to;
          for (const auto* samples : all) {
            for (const RequestSample& s : *samples) {
              if (s.due <= e && s.done >= b) v.push_back(s.latency());
            }
          }
        }
        return QuantileUs(std::move(v), 0.99);
      };
      put("fg.populate.p99_us", phase_p99(&Cycle::populate_at, &Cycle::propagate_at), "us");
      put("fg.propagate.p99_us", phase_p99(&Cycle::propagate_at, &Cycle::sync_at), "us");
      put("fg.sync.p99_us", phase_p99(&Cycle::sync_at, &Cycle::drain_at), "us");
      put("fg.drain.p99_us", phase_p99(&Cycle::drain_at, nullptr), "us");
      // Tails: the quantile within each window, then the median over
      // windows (baseline gaps, or the cycles' transform or sync windows).
      const double txn_p90 = PerWindowTailUs(all, CycleWindows(), 0.9);
      const double base_p90 = PerWindowTailUs(all, gaps_, 0.9);
      const double sync_p90 = PerWindowTailUs(all, SyncWindows(), 0.9);
      put("fg.transform.p50_us", txn_p50, "us");
      put("fg.base.p50_us", base_p50, "us");
      put("fg.transform.p90_us", txn_p90, "us");
      put("fg.base.p90_us", base_p90, "us");
      put("fg.sync.p90_us", sync_p90, "us");
      put("fg.transform.p90_rel", txn_p90 / base_p90, "ratio");
      put("fg.sync.p90_rel", sync_p90 / base_p90, "ratio");
      put("fg.gen_lag.p90_us", SlicedQuantile(lateness, 0.9, kSlice) / 1e3, "us");
      put("fg.base.p99_us", QuantileUs(base, 0.99), "us");
      put("fg.transform.p99_us", QuantileUs(txn, 0.99), "us");
      const double traced = QuantileUs(LatenciesIn(all, traced_gaps_), 0.5);
      const double untraced = QuantileUs(LatenciesIn(all, untraced_gaps_), 0.5);
      put("trace.overhead_p50_us", traced - untraced, "us");
      put("trace.spans", static_cast<double>(tracer_.span_count()), "count");
      const std::string path = opt_.work_dir + "/trace-" + spec_.name + "-seed" +
                               std::to_string(opt_.seed) + ".json";
      if (tracer_.WriteChromeJson(path, 100'000)) {
        std::printf("trace written to %s\n", path.c_str());
      } else {
        Fail("could not write " + path);
      }
    }

    std::string json = "{\"correct\": " + std::string(ok() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].first.c_str(), m[i].second.first,
                    m[i].second.second.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  const Options opt_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  SpanBuffer* main_spans_ = nullptr;
  std::unique_ptr<Scenario> sc_;
  std::string sc_wal_dir_;
  double setup_s_ = 0;
  size_t bulkload_rows_ = 0;
  int64_t bulkload_nanos_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
  int64_t measure_begin_ = INT64_MAX;
  std::vector<Window> gaps_, traced_gaps_, untraced_gaps_;
  std::vector<Cycle> cycles_;
  std::vector<int64_t> expected_pay_;
  std::vector<Lsn> expected_lsn_;
  std::vector<Ack> pending_;
  size_t lost_updates_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--peak 1]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  perfbench::Runner runner(opt, *spec);
  return opt.peak ? runner.Peak() : runner.Run();
}
