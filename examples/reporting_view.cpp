// Continuous materialized-view maintenance (§7: "using the technique to
// create other types of derived tables like Materialized Views is an
// obvious example").
//
// A reporting view joining `accounts` and `branches` is created with a
// fuzzy scan and then kept converging by log propagation, with NO
// synchronization step: the sources stay primary, the view is readable the
// whole time, and stopping maintenance is a sub-millisecond latched
// catch-up that dooms nobody.

#include <cstdio>
#include <future>

#include "common/random.h"
#include "engine/database.h"
#include "transform/coordinator.h"
#include "transform/foj.h"

using namespace morph;

int main() {
  engine::Database db;
  auto accounts_schema = *Schema::Make({{"acct", ValueType::kInt64, false},
                                        {"branch", ValueType::kInt64, true},
                                        {"balance", ValueType::kInt64, true}},
                                       {"acct"});
  auto branches_schema = *Schema::Make({{"branch", ValueType::kInt64, false},
                                        {"city", ValueType::kString, true}},
                                       {"branch"});
  auto accounts = *db.CreateTable("accounts", std::move(accounts_schema));
  auto branches = *db.CreateTable("branches", std::move(branches_schema));
  {
    std::vector<Row> rows;
    for (int64_t i = 0; i < 10000; ++i) rows.push_back(Row({i, i % 25, i}));
    if (!db.BulkLoad(accounts.get(), rows).ok()) return 1;
    rows.clear();
    for (int64_t b = 0; b < 25; ++b) {
      rows.push_back(Row({b, "city-" + std::to_string(b)}));
    }
    if (!db.BulkLoad(branches.get(), rows).ok()) return 1;
  }

  transform::FojSpec spec;
  spec.r_table = "accounts";
  spec.s_table = "branches";
  spec.r_join_column = "branch";
  spec.s_join_column = "branch";
  spec.target_table = "account_report";
  auto rules = transform::FojRules::Make(&db, spec);
  auto shared =
      std::shared_ptr<transform::FojRules>(std::move(rules).ValueOrDie());

  transform::TransformConfig config;
  config.continuous = true;      // materialized view: maintain, don't switch
  config.priority = 0.3;
  transform::TransformCoordinator coordinator(&db, shared, config);
  auto stats_f =
      std::async(std::launch::async, [&] { return coordinator.Run(); });
  while (coordinator.phase() <
         transform::TransformCoordinator::Phase::kPropagating) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("view 'account_report' is live and being maintained\n");

  // OLTP traffic against the sources, with periodic reads of the view.
  Random rng(123);
  size_t writes = 0;
  size_t view_reads = 0;
  auto view = db.catalog()->GetByName("account_report");
  for (int i = 0; i < 5000; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    auto txn = db.Begin();
    const int64_t acct = static_cast<int64_t>(rng.Uniform(10000));
    Status st = db.Update(txn, accounts.get(), Row({acct}),
                          {{2, Value(static_cast<int64_t>(rng.Uniform(100000)))}});
    if (st.ok() && db.Commit(txn).ok()) writes++;
    if (i % 500 == 0) {
      // The view is readable while maintained (slightly stale, converging).
      auto read_txn = db.Begin();
      auto row = db.Read(read_txn, view.get(), Row({acct, acct % 25}));
      if (row.ok()) view_reads++;
      (void)db.Commit(read_txn);
    }
  }

  coordinator.RequestFinish();
  auto stats = stats_f.get();
  if (!stats.ok() || !stats->completed) {
    std::fprintf(stderr, "view maintenance failed\n");
    return 1;
  }
  std::printf("maintenance finished:\n");
  std::printf("  source writes applied : %zu\n", writes);
  std::printf("  log records replayed  : %zu\n", stats->log_records_processed);
  std::printf("  view reads during run : %zu\n", view_reads);
  std::printf("  final catch-up pause  : %.3f ms\n",
              stats->sync_latch_nanos / 1e6);
  std::printf("  sources + view intact : accounts=%zu branches=%zu view=%zu\n",
              accounts->size(), branches->size(), view->size());
  return 0;
}
