#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "transform/coordinator.h"
#include "transform/operator_rules.h"
#include "trace_spans.h"

namespace perfbench {

enum class Operator { kFoj, kSplit };

// Shared by every workload.
constexpr size_t kClients = 3;  ///< open-loop client threads; the coordinator takes a 4th core
constexpr size_t kOpsPerRequest = 10;
constexpr int64_t kDeadlineMs = 2000;  ///< a request not committed by due + this fails
constexpr int64_t kDummyRows = 50'000;

/// \brief Everything that defines one named workload. The sizes, rates and
/// transform settings are fixed here so that two commits run identical
/// inputs; only the seed varies the keys.
struct WorkloadSpec {
  std::string name;
  Operator op = Operator::kSplit;

  // Data. FOJ: R(id, jv, pay) ⟗ S(sid, jv, info) on jv, jv unique in S.
  // Split: T(id, grp, city, pay) → R(id, grp, pay), S(grp, city).
  int64_t source_rows = 0;  ///< R (FOJ) or T (split)
  int64_t aux_rows = 0;     ///< S rows (FOJ) or split groups
  size_t table_tablets = 1;

  // Open-loop load. The offered rate is a fixed share of the mix's unpaced
  // peak, measured once with `--peak 1` and written down here, so that a
  // faster engine is offered the same load as a slower one.
  double peak_rps = 0;    ///< unpaced requests per second, kClients closed loops
  double load_share = 0;  ///< offered rate over peak_rps
  double read_share = 0;  ///< read-only requests (10 point reads on the source)
  double source_share = 0;  ///< share of updates on the transformed source

  // Transform cycles.
  size_t tablets = 1;
  size_t sync_threshold = 512;
  size_t max_records_per_iteration = 0;
  double gap_s = 0;   ///< no-transform (baseline) window before each cycle
  size_t setups = 3;  ///< setups timed per run; the last one is used

  double offered_rps() const { return load_share * peak_rps; }
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief The loaded database of one workload, over a durable WAL.
struct Scenario {
  std::unique_ptr<morph::engine::Database> db;
  std::shared_ptr<morph::storage::Table> source;  ///< R (FOJ) or T (split)
  std::shared_ptr<morph::storage::Table> dummy;
  size_t pay_column = 0;  ///< updated column of `source`
  size_t bulkload_rows = 0;
  int64_t bulkload_nanos = 0;
};

/// \brief Creates and loads the tables of `spec` on a fresh database whose
/// WAL lives in `wal_dir`, and syncs the WAL. `spans` (may be null) gets one
/// engine.bulkload span per table.
std::unique_ptr<Scenario> SetUp(const WorkloadSpec& spec,
                                const std::string& wal_dir, SpanBuffer* spans);

/// \brief Fresh operator rules for one transform cycle.
std::shared_ptr<morph::transform::OperatorRules> MakeRules(
    const WorkloadSpec& spec, Scenario* scenario);

/// \brief Checks the targets of a completed cycle against the operator
/// applied to the sources as of the switch: `expected_pay[k]` is the last
/// acknowledged pre-switch value of source key k's updated column. Returns
/// the number of keys whose target value is missing or wrong (lost
/// updates); `errors` gets one line per failed structural check (row
/// counts, oracle mismatch).
size_t CheckTargets(const WorkloadSpec& spec,
                    const morph::transform::OperatorRules& rules,
                    const std::vector<int64_t>& expected_pay,
                    std::vector<std::string>* errors);

}  // namespace perfbench
