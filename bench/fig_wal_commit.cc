// WAL commit throughput: group commit vs. per-append flush.
//
// Two disciplines over the same on-disk segment chain:
//  - per_append_flush: the classic non-batched WAL — every commit stages its
//    frame and forces its own flush before returning (one write syscall per
//    commit, serialized on the log mutex);
//  - group_commit: the engine's real path — committers stage through
//    Wal::Append and wait in Sync for the durable horizon. The committer
//    that finds no flush in flight leads one on its own thread; it covers
//    every record staged while the previous flush was in flight.
//
// Sweeps committer counts {1, 2, 4, 8} and writes BENCH_wal_commit.json with
// commits/sec, flush counts and the group-vs-per-append speedup per width.
// The interesting row is 8 committers: batching should win by well over 2×
// because eight concurrent commits collapse into one buffered write+flush.
//
// A third cell, under the top-level key "multi_record", shapes commits like
// the engine's: 3 committers, each commit 10 appends then one Sync. A
// flush runs only when a commit waits, so its flushes_per_commit is at most
// 1 however many records a commit stages.
// `--quick` (or MORPH_BENCH_QUICK=1) shrinks the sweep to {1, 8} with fewer
// commits per thread — same output schema, CI-smoke sized.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "wal/log_record.h"
#include "wal/segment.h"
#include "wal/wal.h"

using morph::Lsn;
using morph::Row;
using morph::Value;
using morph::metrics::Registry;
using morph::wal::LogRecord;
using morph::wal::LogRecordType;
using morph::wal::SegmentedLog;
using morph::wal::Wal;
using morph::wal::WalOptions;

namespace {

constexpr size_t kSegmentBytes = 256 * 1024;

LogRecord MakeRecord(uint64_t txn, int64_t key) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.table_id = 1;
  rec.key = Row({key});
  rec.updated_columns = {2};
  rec.before_values = {Value(std::string(32, 'o'))};
  rec.after_values = {Value(std::string(32, 'n'))};
  return rec;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct CellResult {
  size_t committers = 0;
  const char* mode = nullptr;
  double commits_per_sec = 0;
  uint64_t flushes = 0;
  double avg_batch = 0;
  double flushes_per_commit = 0;
};

/// Per-append flush: each commit takes the log mutex, stages exactly its own
/// frame and flushes it before returning — no batching possible.
CellResult RunPerAppendFlush(const std::string& dir, size_t committers,
                             size_t commits_per_thread) {
  std::filesystem::remove_all(dir);
  SegmentedLog log;
  SegmentedLog::Options opts;
  opts.dir = dir;
  opts.segment_bytes = kSegmentBytes;
  auto base = log.Open(opts, [](LogRecord&&) {});
  if (!base.ok()) {
    std::fprintf(stderr, "open failed: %s\n", base.status().ToString().c_str());
    std::exit(1);
  }

  std::mutex mu;
  Lsn next_lsn = 1;
  uint64_t flushes = 0;
  std::atomic<bool> failed{false};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(committers);
  for (size_t t = 0; t < committers; ++t) {
    threads.emplace_back([&, t] {
      std::string frame;
      for (size_t i = 0; i < commits_per_thread && !failed.load(); ++i) {
        LogRecord rec = MakeRecord(t + 1, static_cast<int64_t>(i));
        std::lock_guard<std::mutex> lock(mu);
        rec.lsn = next_lsn++;
        frame.clear();
        morph::wal::AppendFrame(&frame, rec);
        if (!log.Append(rec.lsn, frame).ok() || !log.Flush().ok()) {
          failed.store(true);
          return;
        }
        ++flushes;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (failed.load()) {
    std::fprintf(stderr, "per-append run failed\n");
    std::exit(1);
  }

  CellResult r;
  r.committers = committers;
  r.mode = "per_append_flush";
  const double commits = static_cast<double>(committers * commits_per_thread);
  r.commits_per_sec = commits / seconds;
  r.flushes = flushes;
  r.avg_batch = flushes > 0 ? commits / static_cast<double>(flushes) : 0;
  std::filesystem::remove_all(dir);
  return r;
}

/// Group commit: the engine path — Append stages, Sync waits for the durable
/// horizon, and the Sync that leads a flush batches everything staged in
/// between. Each commit appends `records_per_commit` records and syncs the
/// last one.
CellResult RunGroupCommit(const std::string& dir, size_t committers,
                          size_t commits_per_thread,
                          size_t records_per_commit = 1) {
  std::filesystem::remove_all(dir);
  Wal wal;
  WalOptions opts;
  opts.dir = dir;
  opts.segment_bytes = kSegmentBytes;
  if (auto st = wal.OpenDurable(opts); !st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  auto& registry = Registry::Instance();
  const uint64_t flushes_before =
      registry.CounterValue("wal.group_commit.flushes");
  std::atomic<bool> failed{false};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(committers);
  for (size_t t = 0; t < committers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < commits_per_thread && !failed.load(); ++i) {
        Lsn lsn = 0;
        for (size_t k = 0; k < records_per_commit; ++k) {
          lsn = wal.Append(MakeRecord(t + 1, static_cast<int64_t>(i)));
        }
        if (!wal.Sync(lsn).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (failed.load()) {
    std::fprintf(stderr, "group-commit run failed\n");
    std::exit(1);
  }

  CellResult r;
  r.committers = committers;
  r.mode = "group_commit";
  const double commits = static_cast<double>(committers * commits_per_thread);
  r.commits_per_sec = commits / seconds;
  r.flushes = registry.CounterValue("wal.group_commit.flushes") - flushes_before;
  r.avg_batch = r.flushes > 0 ? commits / static_cast<double>(r.flushes) : 0;
  r.flushes_per_commit = static_cast<double>(r.flushes) / commits;
  std::filesystem::remove_all(dir);
  return r;
}

/// Runs `reps` repetitions of one group-commit cell; the result carries the
/// median rate and the last repetition's flush counts.
CellResult MedianGroupCommit(const std::string& dir, size_t committers,
                             size_t commits_per_thread, int reps,
                             size_t records_per_commit = 1) {
  CellResult cell;
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    cell = RunGroupCommit(dir, committers, commits_per_thread,
                          records_per_commit);
    rates.push_back(cell.commits_per_sec);
  }
  cell.commits_per_sec = MedianOf(rates);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  if (const char* env = std::getenv("MORPH_BENCH_QUICK");
      env && env[0] != '\0' && env[0] != '0') {
    quick = true;
  }
  if (quick) std::printf("quick mode: CI-smoke-sized sweep\n");

  const std::vector<size_t> widths =
      quick ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 2, 4, 8};
  const size_t commits_per_thread = quick ? 250 : 1000;
  const int reps = quick ? 1 : 3;
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/morph_wal_commit";

  std::printf("WAL commit throughput, %zu commits/thread, segment %zu KiB\n",
              commits_per_thread, kSegmentBytes / 1024);
  std::printf("%-10s %-18s %16s %10s %10s %10s\n", "committers", "mode",
              "commits_per_sec", "flushes", "avg_batch", "speedup");

  std::vector<CellResult> results;
  double speedup_at_8 = 0;
  for (size_t committers : widths) {
    CellResult per_append;
    {
      std::vector<double> rates;
      for (int rep = 0; rep < reps; ++rep) {
        per_append = RunPerAppendFlush(dir, committers, commits_per_thread);
        rates.push_back(per_append.commits_per_sec);
      }
      per_append.commits_per_sec = MedianOf(rates);
    }
    const CellResult group =
        MedianGroupCommit(dir, committers, commits_per_thread, reps);
    const double speedup = per_append.commits_per_sec > 0
                               ? group.commits_per_sec / per_append.commits_per_sec
                               : 0;
    if (committers == 8) speedup_at_8 = speedup;
    std::printf("%-10zu %-18s %16.0f %10llu %10.1f %10s\n", committers,
                per_append.mode, per_append.commits_per_sec,
                static_cast<unsigned long long>(per_append.flushes),
                per_append.avg_batch, "1.00");
    std::printf("%-10zu %-18s %16.0f %10llu %10.1f %10.2f\n", committers,
                group.mode, group.commits_per_sec,
                static_cast<unsigned long long>(group.flushes), group.avg_batch,
                speedup);
    results.push_back(per_append);
    results.push_back(group);
  }

  constexpr size_t kMultiCommitters = 3;
  constexpr size_t kRecordsPerCommit = 10;
  const CellResult multi = MedianGroupCommit(
      dir, kMultiCommitters, commits_per_thread, reps, kRecordsPerCommit);
  std::printf("\nmulti-record commits: %zu committers, %zu appends + 1 Sync "
              "per commit\n",
              kMultiCommitters, kRecordsPerCommit);
  std::printf("%16s %10s %18s\n", "commits_per_sec", "flushes",
              "flushes_per_commit");
  std::printf("%16.0f %10llu %18.3f\n", multi.commits_per_sec,
              static_cast<unsigned long long>(multi.flushes),
              multi.flushes_per_commit);

  const char* json_path = "BENCH_wal_commit.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"wal_commit\",\n"
                 "  \"quick\": %s,\n  \"cores\": %u,\n"
                 "  \"segment_bytes\": %zu,\n"
                 "  \"commits_per_thread\": %zu,\n"
                 "  \"speedup_at_8\": %.3f,\n"
                 "  \"results\": [",
                 quick ? "true" : "false", std::thread::hardware_concurrency(),
                 kSegmentBytes, commits_per_thread, speedup_at_8);
    for (size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      std::fprintf(f,
                   "%s\n    {\"committers\": %zu, \"mode\": \"%s\", "
                   "\"commits_per_sec\": %.0f, \"flushes\": %llu, "
                   "\"avg_batch\": %.2f}",
                   i ? "," : "", r.committers, r.mode, r.commits_per_sec,
                   static_cast<unsigned long long>(r.flushes), r.avg_batch);
    }
    std::fprintf(f,
                 "\n  ],\n  \"multi_record\": {\"committers\": %zu, "
                 "\"records_per_commit\": %zu, \"commits_per_sec\": %.0f, "
                 "\"flushes\": %llu, \"flushes_per_commit\": %.3f}\n}\n",
                 kMultiCommitters, kRecordsPerCommit, multi.commits_per_sec,
                 static_cast<unsigned long long>(multi.flushes),
                 multi.flushes_per_commit);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  std::printf("group commit at 8 committers: %.2fx per-append flush\n",
              speedup_at_8);
  return 0;
}
