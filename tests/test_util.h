#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/row.h"
#include "common/schema.h"
#include "engine/database.h"
#include "storage/table.h"

namespace morph::testing {

/// \brief Collects a table's rows as a sorted vector for order-insensitive
/// comparison.
inline std::vector<Row> SortedRows(const storage::Table& table) {
  std::vector<Row> rows;
  table.ForEach([&](const storage::Record& rec) { rows.push_back(rec.row); });
  std::sort(rows.begin(), rows.end());
  return rows;
}

inline std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// \brief `prefix` followed by the decimal `n` ("v", 7 gives "v7"). Built by
/// appending: GCC 12 reports a false -Wrestrict for `"v" + std::to_string(n)`
/// at some inlining sites.
inline std::string Numbered(std::string prefix, int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

/// \brief Renders a row vector for gtest failure messages.
inline std::string RowsToString(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    out += "  " + r.ToString() + "\n";
  }
  return out;
}

/// \brief Schema of a simple R(id KEY, jv, payload) source table used across
/// the FOJ tests: `jv` is the join attribute, `payload` an updatable filler.
inline Schema RSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"jv", ValueType::kInt64, true},
                        {"payload", ValueType::kString, true}},
                       {"id"});
}

/// \brief Schema of S(sid KEY, jv, info): `jv` is the join attribute, unique
/// in one-to-many scenarios but deliberately *not* the primary key, so it
/// can be updated (paper rule 6).
inline Schema SSchema() {
  return *Schema::Make({{"sid", ValueType::kInt64, false},
                        {"jv", ValueType::kInt64, true},
                        {"info", ValueType::kString, true}},
                       {"sid"});
}

/// \brief Schema of a T(id KEY, zip, city, body) split source: split on
/// `zip` into R(id, zip, body) and S(zip, city).
inline Schema TSplitSchema() {
  return *Schema::Make({{"id", ValueType::kInt64, false},
                        {"zip", ValueType::kInt64, true},
                        {"city", ValueType::kString, true},
                        {"body", ValueType::kString, true}},
                       {"id"});
}

/// \brief Concurrent update traffic with a client-side oracle.
///
/// Each thread owns a disjoint stripe of the key set (thread i owns
/// keys[i], keys[i + n], ...) and runs single-update transactions against
/// its own keys, recording a committed value per key only after Commit
/// returned OK. Because stripes are disjoint, the per-key "last committed
/// value" needs no cross-thread ordering: merging the per-thread maps after
/// join yields the exact expected table image.
///
/// Threads stop when asked (StopAndJoin) or on their own when a freshly
/// begun transaction carries epoch > 0 — the sign that a transformation has
/// gated or switched and old-table traffic is over.
class StripedWriters {
 public:
  StripedWriters(engine::Database* db, storage::Table* table,
                 std::vector<int64_t> keys, size_t value_column,
                 size_t num_threads = 3)
      : db_(db), table_(table), column_(value_column), locals_(num_threads) {
    for (size_t i = 0; i < num_threads; ++i) {
      for (size_t j = i; j < keys.size(); j += num_threads) {
        locals_[i].mine.push_back(keys[j]);
      }
    }
  }

  ~StripedWriters() { StopAndJoin(); }

  void Start() {
    for (size_t i = 0; i < locals_.size(); ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }

  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  /// \brief Waits until at least `n` transactions committed (or timeout);
  /// returns whether the target was reached.
  bool WaitForCommits(uint64_t n, int64_t timeout_micros = 20'000'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_micros);
    while (committed_.load(std::memory_order_acquire) < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// \brief Per-key last committed value, merged across threads. Only valid
  /// after StopAndJoin.
  std::map<int64_t, Value> Committed() const {
    std::map<int64_t, Value> merged;
    for (const Local& local : locals_) {
      for (const auto& [key, value] : local.committed) {
        merged.insert_or_assign(key, value);
      }
    }
    return merged;
  }

 private:
  struct Local {
    std::vector<int64_t> mine;
    std::map<int64_t, Value> committed;
  };

  void Loop(size_t idx) {
    Local& local = locals_[idx];
    if (local.mine.empty()) return;
    size_t round = 0;
    try {
      while (!stop_.load(std::memory_order_acquire)) {
        auto t = db_->Begin();
        if (t->epoch() > 0) {
          (void)db_->Abort(t);
          break;
        }
        const int64_t key = local.mine[round % local.mine.size()];
        const std::string value =
            "w" + std::to_string(idx) + "_" + std::to_string(round);
        round++;
        const Status st =
            db_->Update(t, table_, Row({key}), {{column_, Value(value)}});
        if (st.ok() && db_->Commit(t).ok()) {
          local.committed.insert_or_assign(key, Value(value));
          committed_.fetch_add(1, std::memory_order_acq_rel);
        } else if (!t->finished()) {
          (void)db_->Abort(t);
        }
        // Pace the loop: the writers exist to provide continuous concurrent
        // traffic, not to saturate the WAL. Unpaced, a single-core host lets
        // the writers outrun log propagation and the transformation hits its
        // duration backstop before reaching the late-phase failpoints.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    } catch (const CrashException&) {
      // Crash failpoints in matrix runs are armed only on the
      // transformation path; if a client thread does hit one, it dies like
      // the process would — mid-transaction, recording nothing.
    }
  }

  engine::Database* db_;
  storage::Table* table_;
  size_t column_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> committed_{0};
  std::vector<Local> locals_;
  std::vector<std::thread> threads_;
};

/// \brief A WAL directory private to the running test case: named after
/// the suite, the case and `tag`, emptied on construction and removed on
/// destruction. `ctest -j` runs cases as concurrent processes, so two cases
/// sharing a directory would open each other's log.
class TestWalDir {
 public:
  explicit TestWalDir(const std::string& tag = "") {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("morph_wal_") + info->test_suite_name() +
                       "_" + info->name() + (tag.empty() ? "" : "_" + tag);
    for (char& c : name) {
      if (c == '.' || c == '/') c = '_';
    }
    path_ = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(path_);
  }
  ~TestWalDir() { std::filesystem::remove_all(path_); }
  TestWalDir(const TestWalDir&) = delete;
  TestWalDir& operator=(const TestWalDir&) = delete;

  const std::string& path() const { return path_; }
  wal::WalOptions options() const {
    wal::WalOptions opts;
    opts.dir = path_;
    return opts;
  }

 private:
  std::string path_;
};

/// \brief Simulated process death of a durable engine: makes every record
/// logged so far durable, then abandons the writer without another flush.
/// The log is all the next incarnation (Recovery::RestartDurable) sees.
inline void SyncAndCrash(wal::Wal* wal) {
  const Status st = wal->Sync(wal->LastLsn());
  EXPECT_TRUE(st.ok()) << st.ToString();
  wal->SimulateCrash();
}

/// \brief Applies a StripedWriters oracle to an initial row set: for every
/// key present in `updates`, the row's `column` is replaced by the committed
/// value. Keys are int64 in column 0 (all harness schemas).
inline std::vector<Row> WithCommittedUpdates(
    std::vector<Row> rows, size_t column,
    const std::map<int64_t, Value>& updates) {
  for (Row& row : rows) {
    auto it = updates.find(row[0].AsInt64());
    if (it != updates.end()) row[column] = it->second;
  }
  return rows;
}

}  // namespace morph::testing
