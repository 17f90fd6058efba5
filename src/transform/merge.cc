#include "transform/merge.h"

#include "common/clock.h"
#include "transform/populate.h"

namespace morph::transform {

namespace {

/// Structural schema equality (names, types, nullability, key positions).
bool SchemasMatch(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  if (a.key_indices() != b.key_indices()) return false;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).name != b.column(i).name ||
        a.column(i).type != b.column(i).type ||
        a.column(i).nullable != b.column(i).nullable) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<MergeRules>> MergeRules::Make(engine::Database* db,
                                                     MergeSpec spec) {
  auto r = db->catalog()->GetByName(spec.r_table);
  if (r == nullptr) return Status::NotFound("no table named " + spec.r_table);
  auto s = db->catalog()->GetByName(spec.s_table);
  if (s == nullptr) return Status::NotFound("no table named " + spec.s_table);
  if (!SchemasMatch(r->schema(), s->schema())) {
    return Status::InvalidArgument(
        "merge requires identical schemas: " + r->schema().ToString() +
        " vs " + s->schema().ToString());
  }
  return std::unique_ptr<MergeRules>(
      new MergeRules(db, std::move(spec), std::move(r), std::move(s)));
}

Status MergeRules::Prepare() {
  MORPH_ASSIGN_OR_RETURN(t_, CreateTarget(spec_.target_table, r_->schema()));
  return Status::OK();
}

Status MergeRules::InitialPopulate() {
  // Fuzzy-copy both sources through the LSN-gated batch upsert; on a
  // (transient) duplicate key, the copy with the higher LSN wins — the same
  // newest-contributor seeding the split uses, making the LSN gates of the
  // propagation rules sound. The gate is evaluated inside the table under
  // its shard mutex, so it resolves duplicates across *workers'* batches in
  // any arrival order just as it did across the two serial scans.
  t_->Reserve(r_->size() + s_->size());
  return RunPopulatePhase(
      throttle_controller(), populate_config(),
      [&](PopulateWorker& w) -> Status {
        BatchSink sink(t_.get(), BatchSink::Mode::kLsnUpsert, &w);
        for (const auto& src : {r_, s_}) {
          MORPH_RETURN_NOT_OK(
              w.ScanShards(*src, [&](storage::Record& rec) -> Status {
                storage::Record copy;
                copy.row = std::move(rec.row);
                copy.lsn = rec.lsn;
                return sink.Add(std::move(copy));
              }));
        }
        return sink.Flush();
      });
}

Status MergeRules::Apply(const Op& op, std::vector<txn::RecordId>* affected) {
  if (!IsSource(op.table_id)) {
    return Status::Internal("op on a table that is not a merge source");
  }
  if (affected != nullptr) affected->push_back({t_->id(), op.key});
  switch (op.type) {
    case OpType::kInsert: {
      // Insert, or overwrite an older copy, in one step under the shard
      // mutex. A present key counts as ignored: it was either already
      // reflected or a newer image is present (Theorem-1 via the LSN).
      bool existed = false;
      const Status st = t_->Rmw(op.key, [&](storage::Record* cur, bool exists) {
        existed = exists;
        if (exists && cur->lsn >= op.lsn) return storage::Table::RmwAction::kKeep;
        cur->row = op.after;
        cur->lsn = op.lsn;
        return storage::Table::RmwAction::kPut;
      });
      (existed ? counters_.ops_ignored : counters_.ops_applied)++;
      return st;
    }
    case OpType::kDelete: {
      auto cur = t_->Get(op.key);
      if (!cur.ok() || cur->lsn >= op.lsn) {
        counters_.ops_ignored++;
        return Status::OK();
      }
      counters_.ops_applied++;
      const Status st = t_->Delete(op.key);
      if (st.IsNotFound()) return Status::OK();
      return st;
    }
    case OpType::kUpdate: {
      bool applied = false;
      const Status st = t_->Mutate(op.key, [&](storage::Record* cur) {
        if (cur->lsn >= op.lsn) return false;
        for (size_t i = 0; i < op.updated_columns.size(); ++i) {
          cur->row[op.updated_columns[i]] = op.after_values[i];
        }
        cur->lsn = op.lsn;
        applied = true;
        return true;
      });
      if (applied) {
        counters_.ops_applied++;
      } else {
        counters_.ops_ignored++;
      }
      if (st.IsNotFound()) return Status::OK();
      return st;
    }
  }
  return Status::Internal("unreachable");
}

std::vector<txn::RecordId> MergeRules::AffectedTargets(TableId table,
                                                       const Row& pk) {
  if (!IsSource(table)) return {};
  return {txn::RecordId{t_->id(), pk}};
}

}  // namespace morph::transform
