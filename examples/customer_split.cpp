// Customer split — the paper's Example 1, end to end.
//
// A customer table keyed by customer id carries a functional dependency
// postal_code → city that the DBMS does not enforce, and the data contains
// the paper's famous typo: customers 1 and 134 share postal code 7050 but
// disagree on the city ("Trondheim" vs "Trnodheim").
//
// The table is split online into customers(id, name, postal_code) and
// locations(postal_code, city). Because consistency is NOT guaranteed
// (§5.3), every locations record carries a C/U flag and a background
// consistency checker (CC) verifies U-flagged records against the live
// source without locks. The transformation refuses to synchronize while any
// record is U; once the DBA repairs the typo through an ordinary update
// transaction, the CC blesses the record and the split completes.

#include <cstdio>
#include <future>
#include <thread>

#include "engine/database.h"
#include "transform/coordinator.h"
#include "transform/split.h"

using namespace morph;

int main() {
  engine::Database db;
  auto schema = *Schema::Make({{"id", ValueType::kInt64, false},
                               {"name", ValueType::kString, true},
                               {"postal_code", ValueType::kInt64, true},
                               {"city", ValueType::kString, true}},
                              {"id"});
  auto customers = *db.CreateTable("customers", std::move(schema));

  std::vector<Row> rows = {
      Row({1, "Peter", 7050, "Trondheim"}),
      Row({2, "Mark", 5020, "Bergen"}),
      Row({3, "Gary", 50, "Oslo"}),
      Row({134, "Jen", 7050, "Trnodheim"}),  // the Example 1 inconsistency
  };
  for (int i = 200; i < 400; ++i) {
    const int64_t zip = 1000 + i % 20;
    rows.push_back(Row({i, "cust-" + std::to_string(i), zip,
                        "city-" + std::to_string(zip)}));
  }
  if (!db.BulkLoad(customers.get(), rows).ok()) return 1;
  std::printf("loaded %zu customers (postal 7050 is inconsistent)\n",
              customers->size());

  transform::SplitSpec spec;
  spec.t_table = "customers";
  spec.r_columns = {"id", "name", "postal_code"};
  spec.s_columns = {"postal_code", "city"};
  spec.split_columns = {"postal_code"};
  spec.r_name = "customers_slim";
  spec.s_name = "locations";
  spec.assume_consistent = false;  // §5.3 mode: flags + consistency checker

  auto rules = transform::SplitRules::Make(&db, spec);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  auto shared_rules =
      std::shared_ptr<transform::SplitRules>(std::move(rules).ValueOrDie());

  transform::TransformConfig config;
  config.strategy = transform::SyncStrategy::kNonBlockingAbort;
  transform::TransformCoordinator coordinator(&db, shared_rules, config);

  auto stats_future =
      std::async(std::launch::async, [&] { return coordinator.Run(); });

  // The transformation parks in propagation while 7050 stays U-flagged.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::printf("U-flagged locations  : %zu (CC cannot bless postal 7050)\n",
              shared_rules->CountInconsistent());
  std::printf("transformation phase : %s\n",
              coordinator.phase() ==
                      transform::TransformCoordinator::Phase::kPropagating
                  ? "propagating (sync blocked by U flag)"
                  : "unexpected");

  // The DBA fixes the typo with a perfectly ordinary transaction.
  auto txn = db.Begin();
  if (!db.Update(txn, customers.get(), Row({134}), {{3, Value("Trondheim")}})
           .ok() ||
      !db.Commit(txn).ok()) {
    std::fprintf(stderr, "repair failed\n");
    return 1;
  }
  std::printf("repaired customer 134: Trnodheim -> Trondheim\n");

  auto stats = stats_future.get();
  if (!stats.ok() || !stats->completed) {
    std::fprintf(stderr, "transformation failed: %s\n",
                 stats.ok() ? stats->abort_reason.c_str()
                            : stats.status().ToString().c_str());
    return 1;
  }

  auto locations = shared_rules->s_table();
  auto loc = locations->Get(Row({7050}));
  std::printf("split complete:\n");
  std::printf("  customers_slim rows : %zu\n", shared_rules->r_table()->size());
  std::printf("  locations rows      : %zu\n", locations->size());
  std::printf("  locations[7050]     : %s  counter=%lld  flag=%s\n",
              loc->row.ToString().c_str(), static_cast<long long>(loc->counter),
              loc->consistent ? "C" : "U");
  std::printf("  sync latch pause    : %.3f ms\n", stats->sync_latch_nanos / 1e6);
  return 0;
}
