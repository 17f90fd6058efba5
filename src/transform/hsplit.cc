#include "transform/hsplit.h"

#include "common/clock.h"
#include "transform/populate.h"

namespace morph::transform {

Result<std::unique_ptr<HorizontalSplitRules>> HorizontalSplitRules::Make(
    engine::Database* db, HorizontalSplitSpec spec) {
  auto t = db->catalog()->GetByName(spec.t_table);
  if (t == nullptr) return Status::NotFound("no table named " + spec.t_table);
  auto col = t->schema().IndexOf(spec.predicate.column);
  if (!col) {
    return Status::InvalidArgument("no column " + spec.predicate.column +
                                   " in " + spec.t_table);
  }
  return std::unique_ptr<HorizontalSplitRules>(
      new HorizontalSplitRules(db, std::move(spec), std::move(t), *col));
}

Status HorizontalSplitRules::Prepare() {
  MORPH_ASSIGN_OR_RETURN(r_, CreateTarget(spec_.r_name, t_src_->schema()));
  MORPH_ASSIGN_OR_RETURN(s_, CreateTarget(spec_.s_name, t_src_->schema()));
  return Status::OK();
}

Status HorizontalSplitRules::InitialPopulate() {
  // Shard-partitioned fuzzy scan of T; each worker routes its verbatim
  // copies (source LSN = state identifier) into one batch sink per side.
  // Each T key lives in exactly one shard, so exactly one worker emits it —
  // the targets are identical for any worker count. Either side holds at
  // most every source row.
  const size_t source_rows = t_src_->size();
  r_->Reserve(source_rows);
  s_->Reserve(source_rows);
  return RunPopulatePhase(
      throttle_controller(), populate_config(),
      [&](PopulateWorker& w) -> Status {
        BatchSink r_sink(r_.get(), BatchSink::Mode::kInsert, &w);
        BatchSink s_sink(s_.get(), BatchSink::Mode::kInsert, &w);
        MORPH_RETURN_NOT_OK(
            w.ScanShards(*t_src_, [&](storage::Record& rec) -> Status {
              storage::Record copy;
              copy.row = std::move(rec.row);
              copy.lsn = rec.lsn;
              BatchSink& sink = Route(copy.row) == r_.get() ? r_sink : s_sink;
              return sink.Add(std::move(copy));
            }));
        MORPH_RETURN_NOT_OK(r_sink.Flush());
        return s_sink.Flush();
      });
}

Status HorizontalSplitRules::Apply(const Op& op,
                                   std::vector<txn::RecordId>* affected) {
  if (op.table_id != t_src_->id()) {
    return Status::Internal("op on a table that is not the split source");
  }

  // Current copy of the key, if any: check both sides (fuzzy anomalies can
  // transiently duplicate a key across them; the newer copy is the truth).
  storage::Table* holder = nullptr;
  storage::Record current;
  for (storage::Table* side : {r_.get(), s_.get()}) {
    auto rec = side->Get(op.key);
    if (rec.ok() && (holder == nullptr || rec->lsn > current.lsn)) {
      holder = side;
      current = *rec;
    }
  }
  auto note = [&](storage::Table* side) {
    if (affected != nullptr) affected->push_back({side->id(), op.key});
  };

  /// Removes stale copies (LSN below the op) from every side but `keep`
  /// (from both sides when `keep` is null).
  auto clean = [&](storage::Table* keep) -> Status {
    for (storage::Table* side : {r_.get(), s_.get()}) {
      if (side == keep) continue;
      auto rec = side->Get(op.key);
      if (rec.ok() && rec->lsn < op.lsn) {
        note(side);
        const Status st = side->Delete(op.key);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
    }
    return Status::OK();
  };

  /// Stores `row` on `dest` unless its copy is at least as new as the op:
  /// insert, or replace an older copy, in one step under the shard mutex.
  auto put = [&](storage::Table* dest, Row row) -> Status {
    return dest->Rmw(op.key, [&](storage::Record* cur, bool exists) {
      if (exists && cur->lsn >= op.lsn) return storage::Table::RmwAction::kKeep;
      cur->row = std::move(row);
      cur->lsn = op.lsn;
      return storage::Table::RmwAction::kPut;
    });
  };

  switch (op.type) {
    case OpType::kInsert: {
      storage::Table* dest = Route(op.after);
      note(dest);
      if (holder != nullptr && current.lsn >= op.lsn) {
        counters_.ops_ignored++;
        return Status::OK();
      }
      MORPH_RETURN_NOT_OK(clean(dest));
      counters_.ops_applied++;
      return put(dest, op.after);
    }
    case OpType::kDelete: {
      if (holder == nullptr || current.lsn >= op.lsn) {
        counters_.ops_ignored++;
        return Status::OK();
      }
      counters_.ops_applied++;
      return clean(nullptr);
    }
    case OpType::kUpdate: {
      if (holder == nullptr || current.lsn >= op.lsn) {
        counters_.ops_ignored++;
        return Status::OK();
      }
      counters_.ops_applied++;
      Row new_row = current.row;
      for (size_t i = 0; i < op.updated_columns.size(); ++i) {
        new_row[op.updated_columns[i]] = op.after_values[i];
      }
      storage::Table* dest = Route(new_row);
      if (dest == holder) {
        note(dest);
        MORPH_RETURN_NOT_OK(clean(dest));
        return dest->Mutate(op.key, [&](storage::Record* cur) {
          if (cur->lsn >= op.lsn) return false;
          cur->row = std::move(new_row);
          cur->lsn = op.lsn;
          return true;
        });
      }
      // The update flips the predicate: migrate across targets.
      counters_.migrations++;
      note(holder);
      note(dest);
      MORPH_RETURN_NOT_OK(clean(dest));
      return put(dest, std::move(new_row));
    }
  }
  return Status::Internal("unreachable");
}

std::vector<txn::RecordId> HorizontalSplitRules::AffectedTargets(
    TableId table, const Row& pk) {
  if (table != t_src_->id()) return {};
  // The record may live on (or move to) either side; mirror the lock onto
  // both so post-switch transactions cannot slip between them.
  return {txn::RecordId{r_->id(), pk}, txn::RecordId{s_->id(), pk}};
}

}  // namespace morph::transform
