#pragma once

// Shared machinery for the propagation suites (propagator_stream_test.cc,
// tablet_differential_test.cc, metrics_test.cc): a deterministic, seeded op
// stream replayed against a fresh database per cell, with the
// transformation held open (SetSyncHold) so propagation runs concurrently
// with the writer. Cells that differ only in tablet count must produce
// byte-identical transformed tables, and every cell's observability
// counters must reconcile with its own stats and with the WAL.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "transform/coordinator.h"
#include "transform/foj.h"
#include "transform/hsplit.h"
#include "transform/merge.h"
#include "transform/op.h"
#include "transform/split.h"

namespace morph::transform::testing {

enum class Operator { kFoj, kVSplit, kHSplit, kMerge };

inline const char* OperatorName(Operator op) {
  switch (op) {
    case Operator::kFoj:
      return "foj";
    case Operator::kVSplit:
      return "vsplit";
    case Operator::kHSplit:
      return "hsplit";
    case Operator::kMerge:
      return "merge";
  }
  return "?";
}

struct CellResult {
  bool completed = false;
  std::string abort_reason;
  /// Sorted rows of every target table, concatenated in Targets() order.
  std::vector<Row> targets;
  /// vsplit only: sorted (split value, counter) pairs of the S side — the
  /// Gupta-style reference counts must survive reordering exactly.
  std::vector<Row> s_counters;
  /// Full per-record dumps (row, LSN, counter, consistent flag) of every
  /// target, one string per table in Targets() order, records sorted.
  /// Deterministic only for quiescent cells (drive_stream = false): with a
  /// concurrent stream the record LSNs depend on scheduling.
  std::vector<std::string> target_dumps;
  size_t locks_at_switch = 0;
  size_t locks_at_end = 0;
  size_t log_records = 0;
  /// Registry deltas over the cell (process-cumulative counters sampled
  /// before/after): must reconcile with the per-run TransformStats.
  uint64_t registry_ops_delta = 0;
  uint64_t registry_records_delta = 0;
  /// The ops the run must have applied, counted from the WAL: every source
  /// data record from the first tablet's start LSN to the log end whose LSN
  /// is at or past its own tablet's start LSN. A tablet's earlier records
  /// are covered by its populate scan.
  uint64_t wal_ops_expected = 0;
  /// Resolved tablet count (1 when the operator/config clamped staggering).
  size_t resolved_tablets = 0;
};

struct CellOptions {
  SyncStrategy strategy = SyncStrategy::kNonBlockingAbort;
  uint64_t seed = 1;
  /// Tablet count, applied both to the tables (DatabaseOptions) and the
  /// transformation (TransformConfig). 1 = the whole table. Operators that
  /// don't support staggering clamp back to 1 — the differential still
  /// holds, the cell just exercises the fallback.
  size_t tablets = 1;
  /// Table latch granularity; 0 (default) follows `tablets`. Set lower than
  /// `tablets` to exercise the coordinator's clamp.
  size_t table_tablets = 0;
  /// false = quiescent cell: no concurrent op stream, no sync hold — the
  /// transformation sees only the bulk-loaded data, making the full record
  /// dumps (LSNs included) comparable across cells.
  bool drive_stream = true;
};

inline TransformConfig CellConfig(const CellOptions& opts) {
  TransformConfig config;
  config.strategy = opts.strategy;
  config.drop_sources = false;
  config.max_duration_micros = 60'000'000;
  // The stream is produced while synchronization is held open, so the
  // backlog is *supposed* to persist — disable the lag detector.
  config.lag_iterations = 1'000'000;
  config.tablets = opts.tablets;
  return config;
}

inline void DriveStream(engine::Database* db, Operator op, storage::Table* a,
                        storage::Table* b, uint64_t seed) {
  using morph::testing::Numbered;
  Random rng(seed);
  for (size_t i = 0; i < 120; ++i) {
    auto t = db->Begin();
    bool ok = true;
    const size_t ops = 1 + rng.Uniform(3);
    for (size_t k = 0; k < ops && ok; ++k) {
      const uint64_t dice = rng.Uniform(100);
      Status st;
      switch (op) {
        case Operator::kFoj: {
          // R(id, jv, payload) ⟗ S(sid, jv, info); jv unique per sid.
          if (rng.Bernoulli(0.7)) {
            const int64_t id = static_cast<int64_t>(rng.Uniform(60));
            if (dice < 30) {
              st = db->Insert(t, a,
                              Row({id, static_cast<int64_t>(rng.Uniform(20)),
                                   Numbered("p", rng.Uniform(8))}));
            } else if (dice < 45) {
              st = db->Delete(t, a, Row({id}));
            } else if (dice < 70) {
              st = db->Update(
                  t, a, Row({id}),
                  {{1, Value(static_cast<int64_t>(rng.Uniform(20)))}});
            } else {
              st = db->Update(t, a, Row({id}),
                              {{2, Value(Numbered("q", dice))}});
            }
          } else {
            const int64_t sid = static_cast<int64_t>(rng.Uniform(16));
            if (dice < 30) {
              st = db->Insert(
                  t, b, Row({sid, 1000 + sid, Numbered("i", dice)}));
            } else if (dice < 45) {
              st = db->Delete(t, b, Row({sid}));
            } else {
              st = db->Update(t, b, Row({sid}),
                              {{2, Value(Numbered("j", dice))}});
            }
          }
          break;
        }
        case Operator::kVSplit: {
          // T(id, zip, city, body); city is a function of zip so the split
          // FD holds — bucket moves update zip and city together.
          const int64_t id = static_cast<int64_t>(rng.Uniform(80));
          const int64_t zip = static_cast<int64_t>(7000 + rng.Uniform(8));
          const std::string city = Numbered("city", zip);
          if (dice < 30) {
            st = db->Insert(t, a,
                            Row({id, zip, city, Numbered("b", dice)}));
          } else if (dice < 45) {
            st = db->Delete(t, a, Row({id}));
          } else if (dice < 70) {
            st = db->Update(t, a, Row({id}),
                            {{1, Value(zip)}, {2, Value(city)}});
          } else {
            st = db->Update(t, a, Row({id}),
                            {{3, Value(Numbered("b", dice))}});
          }
          break;
        }
        case Operator::kHSplit: {
          // events(id, age, body), routed on age < 100; age updates migrate
          // records across the partition boundary.
          const int64_t id = static_cast<int64_t>(rng.Uniform(80));
          const int64_t age = static_cast<int64_t>(rng.Uniform(200));
          if (dice < 30) {
            st = db->Insert(t, a, Row({id, age, Numbered("e", dice)}));
          } else if (dice < 45) {
            st = db->Delete(t, a, Row({id}));
          } else if (dice < 70) {
            st = db->Update(t, a, Row({id}), {{1, Value(age)}});
          } else {
            st = db->Update(t, a, Row({id}),
                            {{2, Value(Numbered("e", dice))}});
          }
          break;
        }
        case Operator::kMerge: {
          // part_a owns even ids, part_b odd ids — disjoint key sets.
          storage::Table* side = rng.Bernoulli(0.5) ? a : b;
          const int64_t id =
              static_cast<int64_t>(rng.Uniform(40)) * 2 + (side == b ? 1 : 0);
          if (dice < 35) {
            st = db->Insert(t, side, Row({id, Numbered("v", dice)}));
          } else if (dice < 55) {
            st = db->Delete(t, side, Row({id}));
          } else {
            st = db->Update(t, side, Row({id}),
                            {{1, Value(Numbered("w", dice))}});
          }
          break;
        }
      }
      if (!st.ok()) ok = false;
    }
    if (ok) {
      (void)db->Commit(t);
    } else if (!t->finished()) {
      (void)db->Abort(t);
    }
    // Yield now and then so propagation interleaves with the writer even
    // on a single-core host.
    if (i % 16 == 0) std::this_thread::yield();
  }
}

inline CellResult RunCell(Operator op, const CellOptions& opts) {
  CellResult result;
  auto& registry = metrics::Registry::Instance();
  const uint64_t ops_before = registry.CounterValue("transform.propagate.ops");
  const uint64_t records_before =
      registry.CounterValue("transform.propagate.records");
  engine::DatabaseOptions db_options;
  db_options.table_tablets =
      opts.table_tablets ? opts.table_tablets : opts.tablets;
  engine::Database db(db_options);
  std::shared_ptr<storage::Table> a, b;
  std::shared_ptr<OperatorRules> rules;
  switch (op) {
    case Operator::kFoj: {
      a = *db.CreateTable("r", morph::testing::RSchema());
      b = *db.CreateTable("s", morph::testing::SSchema());
      std::vector<Row> r_rows, s_rows;
      for (int i = 0; i < 40; ++i) {
        r_rows.push_back(Row({i, static_cast<int64_t>(i % 15), "p0"}));
      }
      for (int i = 0; i < 10; ++i) s_rows.push_back(Row({i, 1000 + i, "i0"}));
      EXPECT_TRUE(db.BulkLoad(a.get(), r_rows).ok());
      EXPECT_TRUE(db.BulkLoad(b.get(), s_rows).ok());
      FojSpec spec;
      spec.r_table = "r";
      spec.s_table = "s";
      spec.r_join_column = "jv";
      spec.s_join_column = "jv";
      spec.target_table = "t_out";
      auto made = FojRules::Make(&db, spec);
      rules = std::shared_ptr<FojRules>(std::move(made).ValueOrDie());
      break;
    }
    case Operator::kVSplit: {
      a = *db.CreateTable("t", morph::testing::TSplitSchema());
      std::vector<Row> rows;
      for (int i = 0; i < 60; ++i) {
        const int64_t zip = 7000 + (i % 6);
        rows.push_back(Row({i, zip, "city" + std::to_string(zip), "b0"}));
      }
      EXPECT_TRUE(db.BulkLoad(a.get(), rows).ok());
      SplitSpec spec;
      spec.t_table = "t";
      spec.r_columns = {"id", "zip", "body"};
      spec.s_columns = {"zip", "city"};
      spec.split_columns = {"zip"};
      auto made = SplitRules::Make(&db, spec);
      rules = std::shared_ptr<SplitRules>(std::move(made).ValueOrDie());
      break;
    }
    case Operator::kHSplit: {
      a = *db.CreateTable("events",
                          *Schema::Make({{"id", ValueType::kInt64, false},
                                         {"age", ValueType::kInt64, true},
                                         {"body", ValueType::kString, true}},
                                        {"id"}));
      std::vector<Row> rows;
      for (int i = 0; i < 50; ++i) {
        rows.push_back(Row({i, static_cast<int64_t>((i * 7) % 200), "e0"}));
      }
      EXPECT_TRUE(db.BulkLoad(a.get(), rows).ok());
      HorizontalSplitSpec spec;
      spec.t_table = "events";
      spec.predicate = {"age", RoutePredicate::Comparator::kLt, Value(100)};
      spec.r_name = "hot";
      spec.s_name = "cold";
      auto made = HorizontalSplitRules::Make(&db, spec);
      rules =
          std::shared_ptr<HorizontalSplitRules>(std::move(made).ValueOrDie());
      break;
    }
    case Operator::kMerge: {
      const Schema part = *Schema::Make({{"id", ValueType::kInt64, false},
                                         {"val", ValueType::kString, true}},
                                        {"id"});
      a = *db.CreateTable("part_a", part);
      b = *db.CreateTable("part_b", part);
      std::vector<Row> a_rows, b_rows;
      for (int i = 0; i < 30; ++i) a_rows.push_back(Row({i * 2, "a0"}));
      for (int i = 0; i < 30; ++i) b_rows.push_back(Row({i * 2 + 1, "b0"}));
      EXPECT_TRUE(db.BulkLoad(a.get(), a_rows).ok());
      EXPECT_TRUE(db.BulkLoad(b.get(), b_rows).ok());
      MergeSpec spec;
      spec.r_table = "part_a";
      spec.s_table = "part_b";
      auto made = MergeRules::Make(&db, spec);
      rules = std::shared_ptr<MergeRules>(std::move(made).ValueOrDie());
      break;
    }
  }

  TransformCoordinator coord(&db, rules, CellConfig(opts));
  coord.SetSyncHold(opts.drive_stream);
  auto run = std::async(std::launch::async, [&] { return coord.Run(); });
  if (opts.drive_stream) {
    // Don't start the stream until the fuzzy mark is fixed (phase past
    // kPreparing): otherwise the mark's position relative to the stream is a
    // scheduling race, and on a single-core host the cells would propagate
    // randomly-sized suffixes of the stream — the cross-cell count
    // comparison would flake. With the mark pinned first, every cell
    // propagates the whole stream and the stream still overlaps the
    // populate and propagation phases, which is the concurrency under test.
    while (coord.phase() == TransformCoordinator::Phase::kIdle ||
           coord.phase() == TransformCoordinator::Phase::kPreparing) {
      std::this_thread::yield();
    }
    DriveStream(&db, op, a.get(), b.get(), opts.seed);
  }

  // Under non-blocking commit, leave one transaction open across the
  // switch-over: its source writes keep mirrored locks in the transform
  // lock table until its completion record is propagated during the drain,
  // so the lock state *at* switch-over is observable and must match the
  // serial cell. (The other strategies doom or wait out old transactions,
  // leaving nothing deterministic to observe.)
  engine::TxnPtr straddler;
  if (opts.strategy == SyncStrategy::kNonBlockingCommit) {
    straddler = db.Begin();
    Status st = Status::OK();
    switch (op) {
      case Operator::kFoj:
        st = db.Update(straddler, a.get(), Row({int64_t{1}}),
                       {{2, Value("straddle")}});
        break;
      case Operator::kVSplit:
        st = db.Update(straddler, a.get(), Row({int64_t{1}}),
                       {{3, Value("straddle")}});
        break;
      case Operator::kHSplit:
        st = db.Update(straddler, a.get(), Row({int64_t{1}}),
                       {{2, Value("straddle")}});
        break;
      case Operator::kMerge:
        st = db.Update(straddler, a.get(), Row({int64_t{2}}),
                       {{1, Value("straddle")}});
        break;
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  coord.SetSyncHold(false);
  if (straddler) {
    // Wait for the switch, snapshot the mirrored-lock count, then let the
    // straddler finish so the drain can complete.
    while (coord.phase() != TransformCoordinator::Phase::kDraining &&
           coord.phase() != TransformCoordinator::Phase::kCompleted &&
           coord.phase() != TransformCoordinator::Phase::kAborted) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    result.locks_at_switch = coord.transform_locks()->num_locks();
    (void)db.Commit(straddler);
  }

  auto stats = run.get();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return result;
  result.completed = stats->completed;
  result.abort_reason = stats->abort_reason;
  result.log_records = stats->log_records_processed;
  result.locks_at_end = coord.transform_locks()->num_locks();
  result.resolved_tablets = stats->tablets;
  const TabletTransformManager* tm = coord.tablet_manager();
  (void)db.wal()->ScanChecked(
      tm->start_lsn(0), db.wal()->LastLsn(), [&](const wal::LogRecord& rec) {
        const bool source = rec.table_id == a->id() ||
                            (b != nullptr && rec.table_id == b->id());
        if (source && Op::FromLogRecord(rec).has_value() &&
            rec.lsn >= tm->start_lsn(tm->TabletOf(rec.key))) {
          result.wal_ops_expected++;
        }
      });
  result.registry_ops_delta =
      registry.CounterValue("transform.propagate.ops") - ops_before;
  result.registry_records_delta =
      registry.CounterValue("transform.propagate.records") - records_before;
  // Per-run stats are a view over the same instruments that feed the
  // registry: the cell's registry delta must equal the run's own counts.
  EXPECT_EQ(result.registry_ops_delta, stats->ops_propagated);
  EXPECT_EQ(result.registry_records_delta, stats->log_records_processed);
  for (const auto& target : rules->Targets()) {
    const std::vector<Row> rows = morph::testing::SortedRows(*target);
    result.targets.insert(result.targets.end(), rows.begin(), rows.end());
    std::vector<std::string> recs;
    target->ForEach([&](const storage::Record& rec) {
      recs.push_back(rec.row.ToString() + "|lsn=" + std::to_string(rec.lsn) +
                     "|ctr=" + std::to_string(rec.counter) + "|c=" +
                     (rec.consistent ? "1" : "0"));
    });
    std::sort(recs.begin(), recs.end());
    std::string dump;
    for (const std::string& r : recs) {
      dump += r;
      dump += '\n';
    }
    result.target_dumps.push_back(std::move(dump));
  }
  if (op == Operator::kVSplit) {
    auto* split = static_cast<SplitRules*>(rules.get());
    split->s_table()->ForEach([&](const storage::Record& rec) {
      result.s_counters.push_back(Row::Concat(rec.row, Row({rec.counter})));
    });
    std::sort(result.s_counters.begin(), result.s_counters.end());
  }
  return result;
}

}  // namespace morph::transform::testing
