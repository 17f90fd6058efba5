#include "transform/foj.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>

#include "common/clock.h"
#include "transform/populate.h"

namespace morph::transform {

Result<std::unique_ptr<FojRules>> FojRules::Make(engine::Database* db,
                                                 FojSpec spec) {
  auto r = db->catalog()->GetByName(spec.r_table);
  if (r == nullptr) return Status::NotFound("no table named " + spec.r_table);
  auto s = db->catalog()->GetByName(spec.s_table);
  if (s == nullptr) return Status::NotFound("no table named " + spec.s_table);
  auto r_join = r->schema().IndexOf(spec.r_join_column);
  if (!r_join) {
    return Status::InvalidArgument("no column " + spec.r_join_column + " in " +
                                   spec.r_table);
  }
  auto s_join = s->schema().IndexOf(spec.s_join_column);
  if (!s_join) {
    return Status::InvalidArgument("no column " + spec.s_join_column + " in " +
                                   spec.s_table);
  }
  return std::unique_ptr<FojRules>(
      new FojRules(db, std::move(spec), std::move(r), std::move(s), *r_join,
                   *s_join));
}

FojRules::FojRules(engine::Database* db, FojSpec spec,
                   std::shared_ptr<storage::Table> r,
                   std::shared_ptr<storage::Table> s, size_t r_join_idx,
                   size_t s_join_idx)
    : OperatorRules(db), spec_(std::move(spec)) {
  const size_t r_width = r->schema().num_columns();
  const size_t s_width = s->schema().num_columns();
  sides_[0] = {std::move(r), "r", spec_.r_prefix,
               /*offset=*/0, r_width, r_join_idx, /*t_join=*/r_join_idx};
  sides_[1] = {std::move(s), "s", spec_.s_prefix,
               /*offset=*/r_width, s_width, s_join_idx,
               /*t_join=*/r_width + s_join_idx};
}

Status FojRules::Prepare() {
  // T's columns: R's columns (prefixed), then S's (prefixed); everything
  // nullable, because either half may be the null padding record. T's
  // primary key is both source keys together — one candidate key from each
  // source, as §3.1 requires; unique even for padding records.
  std::vector<Column> columns;
  std::vector<std::string> key_names;
  for (const Side& side : sides_) {
    for (size_t i = 0; i < side.width; ++i) {
      const Column& c = side.table->schema().column(i);
      columns.push_back({side.prefix + c.name, c.type, /*nullable=*/true});
    }
    for (size_t k : side.table->schema().key_indices()) {
      key_names.push_back(columns[side.offset + k].name);
    }
  }
  MORPH_ASSIGN_OR_RETURN(Schema t_schema,
                         Schema::Make(std::move(columns), std::move(key_names)));
  MORPH_ASSIGN_OR_RETURN(t_,
                         CreateTarget(spec_.target_table, std::move(t_schema)));

  // The four lookup paths of §4.1: identify T-records by either source key,
  // and by the join value on either side (created in that order).
  for (Side& side : sides_) {
    std::vector<std::string> names;
    for (size_t k : side.table->schema().key_indices()) {
      names.push_back(t_->schema().column(side.offset + k).name);
    }
    MORPH_RETURN_NOT_OK(t_->CreateIndex(side.name + "_key", names));
    side.key_index = t_->GetIndex(side.name + "_key");
  }
  for (Side& side : sides_) {
    MORPH_RETURN_NOT_OK(t_->CreateIndex(
        side.name + "_join", {t_->schema().column(side.t_join).name}));
    side.join_index = t_->GetIndex(side.name + "_join");
  }
  return Status::OK();
}

Status FojRules::InitialPopulate() {
  // Partitioned hash join, streamed (paper §3.2): S is scanned into `parts`
  // hash partitions keyed by its join value, R is probed shard by shard,
  // and every result row goes straight through a BatchSink into T. The
  // full `joined` vector the pre-pipeline code materialized (on top of two
  // whole-table snapshots) never exists — peak memory is the S build side
  // plus one batch per worker instead of ~3x the output. Every (r, s) pair
  // and every padding record is emitted exactly once by exactly one worker,
  // so T is identical for any worker count. All T records carry
  // lsn = kInvalidLsn: no valid state identifier exists in T (§4.2), and
  // duplicates from fuzzy anomalies are tolerated — the log converges them.
  const Side& r = sides_[0];
  const Side& s = sides_[1];
  const PopulateConfig& config = populate_config();
  const size_t parts = std::max<size_t>(1, config.workers);
  // A one-to-many join emits |R| + (unmatched S) rows: |R| + |S| bounds it.
  t_->Reserve(r.table->size() + s.table->size());

  struct SPartition {
    std::vector<Row> rows;
    /// join-value hash -> indices into rows; equality re-checked on probe
    /// (hash collisions share a bucket).
    std::unordered_map<size_t, std::vector<size_t>> by_join;
    /// Set by probe workers (relaxed: phase joins are the sync points).
    std::unique_ptr<std::atomic<bool>[]> matched;
  };
  std::vector<SPartition> partitions(parts);
  // Scanner-local buckets[scanner][partition]: scanners own disjoint S
  // shards and write only their own row; partition owners merge afterwards,
  // so no bucket is ever shared between threads.
  std::vector<std::vector<std::vector<Row>>> buckets(
      parts, std::vector<std::vector<Row>>(parts));

  // Phase 1 — scan S: rows with a NULL join value match nothing and are
  // emitted as padding immediately; the rest are bucketed by join hash.
  MORPH_RETURN_NOT_OK(RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        BatchSink sink(t_.get(), BatchSink::Mode::kInsert, &w);
        std::vector<std::vector<Row>>& mine = buckets[w.index()];
        MORPH_RETURN_NOT_OK(
            w.ScanShards(*s.table, [&](storage::Record& rec) -> Status {
              const Value& jv = rec.row[s.join_idx];
              if (!jv.is_null()) {
                mine[jv.Hash() % parts].push_back(std::move(rec.row));
                return Status::OK();
              }
              storage::Record out;
              out.row = MakeT(Row::Nulls(r.width), rec.row);
              out.lsn = kInvalidLsn;
              return sink.Add(std::move(out));
            }));
        return sink.Flush();
      }));

  // Phase 2 — build: worker p owns partition p; it merges every scanner's
  // bucket for p and builds the probe map. No cross-thread writes.
  MORPH_RETURN_NOT_OK(RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        SPartition& part = partitions[w.index()];
        size_t total = 0;
        for (size_t scanner = 0; scanner < parts; ++scanner) {
          total += buckets[scanner][w.index()].size();
        }
        part.rows.reserve(total);
        for (size_t scanner = 0; scanner < parts; ++scanner) {
          for (Row& row : buckets[scanner][w.index()]) {
            part.rows.push_back(std::move(row));
          }
          buckets[scanner][w.index()].clear();
        }
        part.by_join.reserve(part.rows.size());
        for (size_t i = 0; i < part.rows.size(); ++i) {
          part.by_join[part.rows[i][s.join_idx].Hash()].push_back(i);
        }
        part.matched = std::make_unique<std::atomic<bool>[]>(part.rows.size());
        for (size_t i = 0; i < part.rows.size(); ++i) {
          part.matched[i].store(false, std::memory_order_relaxed);
        }
        return Status::OK();
      }));

  // Phase 3 — probe R shard by shard. The partition maps are read-only
  // now; any worker may read any partition. Matched S rows are flagged.
  MORPH_RETURN_NOT_OK(RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        BatchSink sink(t_.get(), BatchSink::Mode::kInsert, &w);
        const Row s_nulls = Row::Nulls(s.width);
        MORPH_RETURN_NOT_OK(
            w.ScanShards(*r.table, [&](const storage::Record& rec) -> Status {
              const Row& r_row = rec.row;
              const Value& jv = r_row[r.join_idx];
              bool matched_any = false;
              if (!jv.is_null()) {
                const size_t h = jv.Hash();
                SPartition& part = partitions[h % parts];
                auto it = part.by_join.find(h);
                if (it != part.by_join.end()) {
                  for (size_t i : it->second) {
                    if (!(part.rows[i][s.join_idx] == jv)) continue;
                    matched_any = true;
                    part.matched[i].store(true, std::memory_order_relaxed);
                    storage::Record out;
                    out.row = MakeT(r_row, part.rows[i]);
                    out.lsn = kInvalidLsn;
                    MORPH_RETURN_NOT_OK(sink.Add(std::move(out)));
                  }
                }
              }
              if (matched_any) return Status::OK();
              storage::Record out;
              out.row = MakeT(r_row, s_nulls);
              out.lsn = kInvalidLsn;
              return sink.Add(std::move(out));
            }));
        return sink.Flush();
      }));

  // Phase 4 — each partition owner emits its unmatched S rows as padding.
  return RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        BatchSink sink(t_.get(), BatchSink::Mode::kInsert, &w);
        SPartition& part = partitions[w.index()];
        const Row r_nulls = Row::Nulls(r.width);
        for (size_t i = 0; i < part.rows.size(); ++i) {
          if (part.matched[i].load(std::memory_order_relaxed)) continue;
          storage::Record out;
          out.row = MakeT(r_nulls, part.rows[i]);
          out.lsn = kInvalidLsn;
          MORPH_RETURN_NOT_OK(sink.Add(std::move(out)));
        }
        return sink.Flush();
      });
}

// --- T-row helpers ---------------------------------------------------------

Row FojRules::Part(const Side& side, const Row& t_row) const {
  const auto first = t_row.values().begin() + side.offset;
  return Row(std::vector<Value>(first, first + side.width));
}

Row FojRules::KeyOf(const Side& side, const Row& t_row) const {
  const std::vector<size_t>& key_indices = side.table->schema().key_indices();
  std::vector<Value> vals;
  vals.reserve(key_indices.size());
  for (size_t k : key_indices) {
    vals.push_back(t_row[side.offset + k]);
  }
  return Row(std::move(vals));
}

bool FojRules::PartNull(const Side& side, const Row& t_row) const {
  for (size_t k : side.table->schema().key_indices()) {
    if (!t_row[side.offset + k].is_null()) return false;
  }
  return true;
}

Status FojRules::InsertT(Row t_row, Lsn lsn,
                         std::vector<txn::RecordId>* affected) {
  const Row key = TKeyOf(t_row);
  storage::Record record;
  record.row = std::move(t_row);
  record.lsn = lsn;
  const Status st = t_->Insert(std::move(record));
  if (affected != nullptr) affected->push_back({t_->id(), key});
  if (st.IsAlreadyExists()) return Status::OK();  // newer state reflected
  return st;
}

Status FojRules::DeleteT(const Row& t_key, std::vector<txn::RecordId>* affected) {
  const Status st = t_->Delete(t_key);
  if (affected != nullptr) affected->push_back({t_->id(), t_key});
  if (st.IsNotFound()) return Status::OK();  // newer state reflected
  return st;
}

Status FojRules::ReplaceT(const Row& old_key, Row new_row, Lsn lsn,
                          std::vector<txn::RecordId>* affected) {
  MORPH_RETURN_NOT_OK(DeleteT(old_key, affected));
  return InsertT(std::move(new_row), lsn, affected);
}

Status FojRules::MutateT(const Row& t_key, const std::vector<uint32_t>& cols,
                         const std::vector<Value>& values, Lsn lsn,
                         std::vector<txn::RecordId>* affected) {
  const Status st = t_->Mutate(t_key, [&](storage::Record* rec) {
    for (size_t i = 0; i < cols.size(); ++i) rec->row[cols[i]] = values[i];
    rec->lsn = lsn;
    return true;
  });
  if (affected != nullptr) affected->push_back({t_->id(), t_key});
  if (st.IsNotFound()) return Status::OK();
  return st;
}

std::vector<Row> FojRules::LookupJoin(const Value& x) const {
  const Row key({x});
  std::vector<Row> out = sides_[0].join_index->Lookup(key);
  for (Row& pk : sides_[1].join_index->Lookup(key)) {
    if (std::find(out.begin(), out.end(), pk) == out.end()) {
      out.push_back(std::move(pk));
    }
  }
  return out;
}

Row FojRules::ApplyUpdates(const Row& row, const Op& op) {
  Row out = row;
  for (size_t i = 0; i < op.updated_columns.size(); ++i) {
    out[op.updated_columns[i]] = op.after_values[i];
  }
  return out;
}

// --- dispatch ----------------------------------------------------------------

Status FojRules::Apply(const Op& op, std::vector<txn::RecordId>* affected) {
  for (const Side& side : sides_) {
    if (op.table_id != side.table->id()) continue;
    switch (op.type) {
      case OpType::kInsert:
        return Insert(side, op, affected);
      case OpType::kDelete:
        return Delete(side, op, affected);
      case OpType::kUpdate:
        return Update(side, op, affected);
    }
  }
  return Status::Internal("op on a table that is not a source");
}

// --- insert: rules 1 and 2 ---------------------------------------------------

Status FojRules::Insert(const Side& side, const Op& op,
                        std::vector<txn::RecordId>* affected) {
  // A T-record already containing this source record means the insert is
  // reflected (Theorem 1).
  const std::vector<Row> existing = side.key_index->Lookup(op.key);
  if (!existing.empty()) {
    counters_.ops_ignored++;
    if (affected != nullptr) {
      for (const Row& pk : existing) affected->push_back({t_->id(), pk});
    }
    return Status::OK();
  }
  counters_.ops_applied++;
  return Attach(side, op.after, op.lsn, affected);
}

Status FojRules::Attach(const Side& side, const Row& row, Lsn lsn,
                        std::vector<txn::RecordId>* affected) {
  const Value x = row[side.join_idx];
  if (x.is_null()) {
    // A NULL join attribute matches nothing; keep the record FOJ-style.
    return InsertT(Padded(side, row), lsn, affected);
  }
  // Every distinct other-side record with join value x currently in T;
  // remember the padding record it may live in (t^null_x for an R insert,
  // t^y_null for an S insert), which the new match replaces.
  const Side& other = Other(side);
  struct Partner {
    Row part;
    std::optional<Row> null_home;  // T-pk of the padding record
  };
  std::unordered_map<Row, Partner, RowHasher> partners;
  for (const Row& pk : LookupJoin(x)) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (PartNull(other, rec->row)) continue;
    if (rec->row[other.t_join] != x) continue;
    Partner& partner = partners[KeyOf(other, rec->row)];
    partner.part = Part(other, rec->row);
    if (PartNull(side, rec->row)) partner.null_home = pk;
  }
  if (partners.empty()) {
    // No join partner: the record is padded (rules 1 and 2, last case).
    return InsertT(Padded(side, row), lsn, affected);
  }
  for (auto& [key, partner] : partners) {
    if (partner.null_home) {
      // The padding record is updated with the new values.
      MORPH_RETURN_NOT_OK(ReplaceT(*partner.null_home,
                                   Join(side, row, partner.part), lsn,
                                   affected));
    } else {
      // The partner gains an additional match (many-to-many fan-out).
      MORPH_RETURN_NOT_OK(InsertT(Join(side, row, partner.part), lsn, affected));
    }
  }
  return Status::OK();
}

// --- delete: rules 3 and 4 ---------------------------------------------------

Status FojRules::Delete(const Side& side, const Op& op,
                        std::vector<txn::RecordId>* affected) {
  const std::vector<Row> pks = side.key_index->Lookup(op.key);
  if (pks.empty()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;
  return Detach(side, pks, op.lsn, affected);
}

Status FojRules::Detach(const Side& side, const std::vector<Row>& pks, Lsn lsn,
                        std::vector<txn::RecordId>* affected) {
  const Side& other = Other(side);
  for (const Row& pk : pks) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
    if (PartNull(other, rec->row)) continue;
    // FOJ invariant: the other-side record survives its last match ("t^null_x
    // is inserted after joining s^x with t^null").
    if (other.key_index->Count(KeyOf(other, rec->row)) == 0) {
      MORPH_RETURN_NOT_OK(
          InsertT(Padded(other, Part(other, rec->row)), lsn, affected));
    }
  }
  return Status::OK();
}

// --- update: rules 5, 6 and 7 ------------------------------------------------

Status FojRules::Update(const Side& side, const Op& op,
                        std::vector<txn::RecordId>* affected) {
  Value x_old;
  const bool join_updated = op.UpdatesColumn(side.join_idx, &x_old);
  const std::vector<Row> pks = side.key_index->Lookup(op.key);
  if (pks.empty()) {
    // Theorem 1: the record was deleted later; the delete's log record will
    // arrive and nothing is lost.
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (!join_updated) {
    // Rule 7: update this side's columns of every T-record containing the
    // source record.
    counters_.ops_applied++;
    return WriteColumns(side, op, pks, affected);
  }
  // Rules 5/6: join attribute updated from x_old to z — a delete at x_old
  // followed by an insert at z, with the unlogged attributes read from T.
  auto rec0 = t_->Get(pks[0]);
  if (!rec0.ok()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (rec0->row[side.t_join] != x_old) {
    // Already in a newer state (w != x): the move is redundant, but the
    // op's other columns are still applied as rule 7 would, because a
    // replayed earlier rule-7 op may have left them stale.
    counters_.ops_ignored++;
    return WriteColumns(side, op, pks, affected);
  }
  counters_.ops_applied++;
  const Row moved = ApplyUpdates(Part(side, rec0->row), op);
  MORPH_RETURN_NOT_OK(Detach(side, pks, op.lsn, affected));
  return Attach(side, moved, op.lsn, affected);
}

Status FojRules::WriteColumns(const Side& side, const Op& op,
                              const std::vector<Row>& pks,
                              std::vector<txn::RecordId>* affected) {
  std::vector<uint32_t> t_cols;
  std::vector<Value> values;
  for (size_t i = 0; i < op.updated_columns.size(); ++i) {
    if (op.updated_columns[i] == side.join_idx) continue;
    t_cols.push_back(static_cast<uint32_t>(side.offset) + op.updated_columns[i]);
    values.push_back(op.after_values[i]);
  }
  for (const Row& pk : pks) {
    MORPH_RETURN_NOT_OK(MutateT(pk, t_cols, values, op.lsn, affected));
  }
  return Status::OK();
}

// --- lock mirroring / lifecycle -----------------------------------------------

std::vector<txn::RecordId> FojRules::AffectedTargets(TableId table,
                                                     const Row& pk) {
  std::vector<txn::RecordId> out;
  for (const Side& side : sides_) {
    if (table != side.table->id()) continue;
    for (Row& t_pk : side.key_index->Lookup(pk)) {
      out.push_back({t_->id(), std::move(t_pk)});
    }
    break;
  }
  return out;
}

}  // namespace morph::transform
