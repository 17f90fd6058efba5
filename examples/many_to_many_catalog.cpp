// Many-to-many full outer join (paper §4.2 sketch).
//
// A logistics schema: orders(order_id, region, item) and
// couriers(courier_id, region, vehicle). The join attribute `region` is
// unique in NEITHER table, so an order in region x pairs with every courier
// covering x — a genuine many-to-many join. The transformed dispatch table
// is keyed by (order_id, courier_id): one candidate key from each source,
// exactly as §3.1 requires.

#include <cstdio>
#include <future>

#include "common/random.h"
#include "engine/database.h"
#include "transform/coordinator.h"
#include "transform/foj.h"

using namespace morph;

int main() {
  engine::Database db;
  auto orders_schema = *Schema::Make({{"order_id", ValueType::kInt64, false},
                                      {"region", ValueType::kInt64, true},
                                      {"item", ValueType::kString, true}},
                                     {"order_id"});
  auto couriers_schema = *Schema::Make({{"courier_id", ValueType::kInt64, false},
                                        {"region", ValueType::kInt64, true},
                                        {"vehicle", ValueType::kString, true}},
                                       {"courier_id"});
  auto orders = *db.CreateTable("orders", std::move(orders_schema));
  auto couriers = *db.CreateTable("couriers", std::move(couriers_schema));

  constexpr int kOrders = 600;
  constexpr int kRegions = 30;
  constexpr int kCouriers = 90;  // 3 per region
  std::vector<Row> order_rows;
  for (int i = 0; i < kOrders; ++i) {
    order_rows.push_back(Row({i, static_cast<int64_t>(i % kRegions),
                              "item-" + std::to_string(i % 40)}));
  }
  std::vector<Row> courier_rows;
  for (int c = 0; c < kCouriers; ++c) {
    courier_rows.push_back(Row({c, static_cast<int64_t>(c % kRegions),
                                c % 2 ? "van" : "bike"}));
  }
  if (!db.BulkLoad(orders.get(), order_rows).ok() ||
      !db.BulkLoad(couriers.get(), courier_rows).ok()) {
    return 1;
  }

  transform::FojSpec spec;
  spec.r_table = "orders";
  spec.s_table = "couriers";
  spec.r_join_column = "region";
  spec.s_join_column = "region";
  spec.target_table = "dispatch";
  auto rules = transform::FojRules::Make(&db, spec);
  auto shared_rules =
      std::shared_ptr<transform::FojRules>(std::move(rules).ValueOrDie());

  transform::TransformConfig config;
  config.strategy = transform::SyncStrategy::kNonBlockingCommit;
  transform::TransformCoordinator coordinator(&db, shared_rules, config);

  // Concurrent traffic: orders move between regions, couriers change
  // vehicles — every one of those ops fans out over multiple dispatch rows.
  auto stats_future =
      std::async(std::launch::async, [&] { return coordinator.Run(); });
  Random rng(7);
  size_t committed = 0;
  while (coordinator.phase() <
         transform::TransformCoordinator::Phase::kCompleted) {
    // Paced workload: region moves fan out over several dispatch rows each,
    // so a tight loop would swamp the background propagator.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    auto txn = db.Begin();
    if (txn->epoch() > 0) {
      (void)db.Abort(txn);
      break;
    }
    Status st;
    if (rng.Bernoulli(0.8)) {
      st = db.Update(txn, orders.get(),
                     Row({static_cast<int64_t>(rng.Uniform(kOrders))}),
                     {{1, Value(static_cast<int64_t>(rng.Uniform(kRegions)))}});
    } else {
      st = db.Update(txn, couriers.get(),
                     Row({static_cast<int64_t>(rng.Uniform(kCouriers))}),
                     {{2, Value(rng.Bernoulli(0.5) ? "van" : "bike")}});
    }
    if (st.ok() && db.Commit(txn).ok()) {
      committed++;
    } else if (!txn->finished()) {
      (void)db.Abort(txn);
    }
  }

  auto stats = stats_future.get();
  if (!stats.ok() || !stats->completed) {
    std::fprintf(stderr, "transformation failed\n");
    return 1;
  }
  auto dispatch = db.catalog()->GetByName("dispatch");
  std::printf("many-to-many dispatch table built online:\n");
  std::printf("  orders x couriers rows : %zu (%d orders x 3 couriers/region)\n",
              dispatch->size(), kOrders);
  std::printf("  concurrent txns        : %zu committed\n", committed);
  std::printf("  log records replayed   : %zu\n", stats->log_records_processed);
  std::printf("  sync latch pause       : %.3f ms\n",
              stats->sync_latch_nanos / 1e6);

  // Spot-check the fan-out: order 0 (region 0) pairs with couriers 0/12/24.
  size_t pairs = 0;
  dispatch->ForEach([&](const storage::Record& rec) {
    if (rec.row[0] == Value(0)) pairs++;
  });
  std::printf("  dispatch rows for order 0: %zu\n", pairs);
  return 0;
}
