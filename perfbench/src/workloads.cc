#include "workloads.h"

#include <algorithm>
#include <cstdlib>

#include "common/relops.h"
#include "transform/foj.h"
#include "transform/split.h"

namespace perfbench {

using morph::Row;
using morph::Schema;
using morph::Value;
using morph::ValueType;

namespace {

// Sizes and rates are for a 4-core host with the WAL in the page cache (see
// flush_policy.cc). perfbench/WORKLOADS.md says why each workload exists.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec w;
      w.name = "foj_populate";
      w.op = Operator::kFoj;
      w.source_rows = 100'000;
      w.aux_rows = 40'000;
      w.peak_rps = 22'000;
      w.load_share = 0.3;
      w.read_share = 0.5;
      w.source_share = 0.2;
      w.gap_s = 0.3;
      w.setups = 5;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "split_stagger";
      w.op = Operator::kSplit;
      w.source_rows = 50'000;
      w.aux_rows = 20'000;
      w.table_tablets = 16;
      w.tablets = 16;
      w.peak_rps = 17'000;
      w.load_share = 0.35;
      w.read_share = 0.2;
      w.source_share = 0.5;
      // As in bench/fig_tablet_stagger: each tablet latch replays a real
      // catch-up window instead of a converged few hundred records.
      w.sync_threshold = 10'000;
      w.max_records_per_iteration = 1024;
      w.gap_s = 0.2;
      w.setups = 7;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

Schema MakeSchema(std::vector<morph::Column> cols, std::vector<std::string> key) {
  auto s = Schema::Make(std::move(cols), std::move(key));
  if (!s.ok()) std::abort();
  return std::move(s).ValueOrDie();
}

std::shared_ptr<morph::storage::Table> Load(Scenario* sc, const std::string& name,
                                            Schema schema, std::vector<Row> rows,
                                            SpanBuffer* spans) {
  auto table = sc->db->CreateTable(name, std::move(schema));
  if (!table.ok()) std::abort();
  const int64_t t0 = NowNanos();
  if (!sc->db->BulkLoad(table->get(), rows).ok()) std::abort();
  const int64_t t1 = NowNanos();
  if (spans != nullptr) spans->Add("engine.bulkload", nullptr, t0, t1, 0);
  sc->bulkload_rows += rows.size();
  sc->bulkload_nanos += t1 - t0;
  return *table;
}

// Source rows as of a switch: the loaded rows with the updated column
// replaced by the last acknowledged pre-switch write.
std::vector<Row> SourceRowsAt(const WorkloadSpec& spec,
                              const std::vector<int64_t>& pay) {
  std::vector<Row> rows;
  rows.reserve(spec.source_rows);
  for (int64_t i = 0; i < spec.source_rows; ++i) {
    if (spec.op == Operator::kFoj) {
      rows.push_back(Row({i, i % spec.aux_rows, pay[i]}));
    } else {
      const int64_t grp = i % spec.aux_rows;
      rows.push_back(Row({i, grp, "city" + std::to_string(grp), pay[i]}));
    }
  }
  return rows;
}

std::vector<Row> SortedRows(const morph::storage::Table& table) {
  std::vector<Row> rows;
  rows.reserve(table.size());
  table.ForEach([&](const morph::storage::Record& r) { rows.push_back(r.row); });
  std::sort(rows.begin(), rows.end());
  return rows;
}

void CompareSorted(const std::string& what, std::vector<Row> expected,
                   const std::vector<Row>& actual,
                   std::vector<std::string>* errors) {
  std::sort(expected.begin(), expected.end());
  if (expected.size() != actual.size()) {
    errors->push_back(what + ": " + std::to_string(actual.size()) +
                      " rows, oracle has " + std::to_string(expected.size()));
    return;
  }
  size_t diff = 0;
  for (size_t i = 0; i < expected.size(); ++i) diff += expected[i] != actual[i];
  if (diff != 0) {
    errors->push_back(what + ": " + std::to_string(diff) +
                      " rows differ from the oracle");
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Specs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Scenario> SetUp(const WorkloadSpec& spec,
                                const std::string& wal_dir, SpanBuffer* spans) {
  auto sc = std::make_unique<Scenario>();
  morph::engine::DatabaseOptions options;
  options.table_tablets = spec.table_tablets;
  sc->db = std::make_unique<morph::engine::Database>(options);
  morph::wal::WalOptions wal_options;
  wal_options.dir = wal_dir;
  // Rotation creates a segment and rewrites the manifest while holding the
  // log lock. At these log rates 4 MiB segments rotate about once a second.
  wal_options.segment_bytes = 4 << 20;
  if (!sc->db->wal()->OpenDurable(wal_options).ok()) return nullptr;

  const std::vector<int64_t> zeros(spec.source_rows, 0);
  std::vector<Row> source_rows = SourceRowsAt(spec, zeros);
  if (spec.op == Operator::kFoj) {
    sc->source = Load(sc.get(), "r",
                      MakeSchema({{"id", ValueType::kInt64, false},
                                  {"jv", ValueType::kInt64, true},
                                  {"pay", ValueType::kInt64, true}},
                                 {"id"}),
                      std::move(source_rows), spans);
    sc->pay_column = 2;
    std::vector<Row> s_rows;
    for (int64_t i = 0; i < spec.aux_rows; ++i) s_rows.push_back(Row({i, i, int64_t{0}}));
    Load(sc.get(), "s",
         MakeSchema({{"sid", ValueType::kInt64, false},
                     {"jv", ValueType::kInt64, true},
                     {"info", ValueType::kInt64, true}},
                    {"sid"}),
         std::move(s_rows), spans);
  } else {
    sc->source = Load(sc.get(), "t",
                      MakeSchema({{"id", ValueType::kInt64, false},
                                  {"grp", ValueType::kInt64, true},
                                  {"city", ValueType::kString, true},
                                  {"pay", ValueType::kInt64, true}},
                                 {"id"}),
                      std::move(source_rows), spans);
    sc->pay_column = 3;
  }
  std::vector<Row> d_rows;
  for (int64_t i = 0; i < kDummyRows; ++i) d_rows.push_back(Row({i, int64_t{0}}));
  sc->dummy = Load(sc.get(), "dummy",
                   MakeSchema({{"id", ValueType::kInt64, false},
                               {"pay", ValueType::kInt64, true}},
                              {"id"}),
                   std::move(d_rows), spans);
  if (!sc->db->wal()->Sync(sc->db->wal()->LastLsn()).ok()) return nullptr;
  return sc;
}

std::shared_ptr<morph::transform::OperatorRules> MakeRules(
    const WorkloadSpec& spec, Scenario* scenario) {
  if (spec.op == Operator::kFoj) {
    morph::transform::FojSpec foj;
    foj.r_table = "r";
    foj.s_table = "s";
    foj.r_join_column = "jv";
    foj.s_join_column = "jv";
    foj.target_table = "t_joined";
    auto rules = morph::transform::FojRules::Make(scenario->db.get(), foj);
    if (!rules.ok()) std::abort();
    return std::shared_ptr<morph::transform::OperatorRules>(
        std::move(rules).ValueOrDie());
  }
  morph::transform::SplitSpec split;
  split.t_table = "t";
  split.r_columns = {"id", "grp", "pay"};
  split.s_columns = {"grp", "city"};
  split.split_columns = {"grp"};
  split.r_name = "t_r";
  split.s_name = "t_s";
  auto rules = morph::transform::SplitRules::Make(scenario->db.get(), split);
  if (!rules.ok()) std::abort();
  return std::shared_ptr<morph::transform::OperatorRules>(
      std::move(rules).ValueOrDie());
}

size_t CheckTargets(const WorkloadSpec& spec,
                    const morph::transform::OperatorRules& rules,
                    const std::vector<int64_t>& expected_pay,
                    std::vector<std::string>* errors) {
  const auto targets = rules.Targets();
  const std::vector<Row> sources = SourceRowsAt(spec, expected_pay);
  // Target rows keyed by the source key carry the updated column at these
  // positions: FOJ T = (id, jv, pay, sid, jv, info), split R = (id, grp, pay).
  const size_t pay_at = 2;
  const std::vector<Row> main_rows = SortedRows(*targets.at(0));
  std::vector<bool> seen(spec.source_rows, false);
  size_t lost = 0;
  for (const Row& row : main_rows) {
    if (row[0].is_null()) continue;  // FOJ s-only padding record
    const int64_t id = row[0].AsInt64();
    if (id < 0 || id >= spec.source_rows || seen[id]) {
      errors->push_back("unexpected target key " + row.ToString());
      continue;
    }
    seen[id] = true;
    if (row[pay_at].is_null() || row[pay_at].AsInt64() != expected_pay[id]) {
      ++lost;
    }
  }
  lost += static_cast<size_t>(std::count(seen.begin(), seen.end(), false));

  if (spec.op == Operator::kFoj) {
    std::vector<Row> s_rows;
    for (int64_t i = 0; i < spec.aux_rows; ++i) s_rows.push_back(Row({i, i, int64_t{0}}));
    CompareSorted("foj target", morph::FullOuterJoin(sources, 1, s_rows, 1, 3, 3),
                  main_rows, errors);
  } else {
    morph::SplitResult oracle = morph::Split(sources, {0, 1, 3}, {1, 2}, {0});
    CompareSorted("split R", std::move(oracle.r_rows), main_rows, errors);
    CompareSorted("split S", std::move(oracle.s_rows), SortedRows(*targets.at(1)),
                  errors);
  }
  return lost;
}

}  // namespace perfbench
