#include "transform/foj.h"

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
    : db_(db),
      spec_(std::move(spec)),
      r_(std::move(r)),
      s_(std::move(s)),
      r_join_idx_(r_join_idx),
      s_join_idx_(s_join_idx) {
  r_width_ = r_->schema().num_columns();
  s_width_ = s_->schema().num_columns();
  t_rjoin_col_ = r_join_idx_;
  t_sjoin_col_ = r_width_ + s_join_idx_;
}

Status FojRules::Prepare() {
  // T's columns: R's columns (prefixed), then S's (prefixed); everything
  // nullable, because either half may be the null padding record. T's
  // primary key is both source keys together — one candidate key from each
  // source, as §3.1 requires; unique even for padding records.
  std::vector<Column> columns;
  std::vector<std::string> key_names;
  for (size_t i = 0; i < r_width_; ++i) {
    const Column& c = r_->schema().column(i);
    columns.push_back({spec_.r_prefix + c.name, c.type, /*nullable=*/true});
  }
  for (size_t i = 0; i < s_width_; ++i) {
    const Column& c = s_->schema().column(i);
    columns.push_back({spec_.s_prefix + c.name, c.type, /*nullable=*/true});
  }
  for (size_t k : r_->schema().key_indices()) {
    key_names.push_back(columns[k].name);
  }
  for (size_t k : s_->schema().key_indices()) {
    key_names.push_back(columns[r_width_ + k].name);
  }
  MORPH_ASSIGN_OR_RETURN(Schema t_schema,
                         Schema::Make(std::move(columns), std::move(key_names)));
  MORPH_ASSIGN_OR_RETURN(t_, db_->CreateTable(spec_.target_table,
                                              std::move(t_schema)));

  // The four lookup paths of §4.1: identify T-records by either source key,
  // and by the join value on either side.
  std::vector<std::string> rkey_names;
  for (size_t k : r_->schema().key_indices()) {
    rkey_names.push_back(t_->schema().column(k).name);
  }
  std::vector<std::string> skey_names;
  for (size_t k : s_->schema().key_indices()) {
    skey_names.push_back(t_->schema().column(r_width_ + k).name);
  }
  MORPH_RETURN_NOT_OK(t_->CreateIndex("r_key", rkey_names));
  MORPH_RETURN_NOT_OK(t_->CreateIndex("s_key", skey_names));
  MORPH_RETURN_NOT_OK(
      t_->CreateIndex("r_join", {t_->schema().column(t_rjoin_col_).name}));
  MORPH_RETURN_NOT_OK(
      t_->CreateIndex("s_join", {t_->schema().column(t_sjoin_col_).name}));
  idx_rkey_ = t_->GetIndex("r_key");
  idx_skey_ = t_->GetIndex("s_key");
  idx_rjoin_ = t_->GetIndex("r_join");
  idx_sjoin_ = t_->GetIndex("s_join");
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
  const PopulateConfig& config = populate_config();
  const size_t parts = std::max<size_t>(1, config.workers);
  // A one-to-many join emits |R| + (unmatched S) rows: |R| + |S| bounds it.
  t_->Reserve(r_->size() + s_->size());

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
        for (size_t sh = w.index(); sh < s_->num_shards();
             sh += w.partitions()) {
          for (storage::Record& rec : w.Snapshot(*s_, sh)) {
            const Value& jv = rec.row[s_join_idx_];
            if (jv.is_null()) {
              storage::Record out;
              out.row = MakeT(Row::Nulls(r_width_), rec.row);
              out.lsn = kInvalidLsn;
              MORPH_RETURN_NOT_OK(sink.Add(std::move(out)));
              continue;
            }
            mine[jv.Hash() % parts].push_back(std::move(rec.row));
          }
        }
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
          part.by_join[part.rows[i][s_join_idx_].Hash()].push_back(i);
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
        const Row s_nulls = Row::Nulls(s_width_);
        for (size_t sh = w.index(); sh < r_->num_shards();
             sh += w.partitions()) {
          for (const storage::Record& rec : w.Snapshot(*r_, sh)) {
            const Row& r_row = rec.row;
            const Value& jv = r_row[r_join_idx_];
            bool matched_any = false;
            if (!jv.is_null()) {
              const size_t h = jv.Hash();
              SPartition& part = partitions[h % parts];
              auto it = part.by_join.find(h);
              if (it != part.by_join.end()) {
                for (size_t i : it->second) {
                  if (!(part.rows[i][s_join_idx_] == jv)) continue;
                  matched_any = true;
                  part.matched[i].store(true, std::memory_order_relaxed);
                  storage::Record out;
                  out.row = MakeT(r_row, part.rows[i]);
                  out.lsn = kInvalidLsn;
                  MORPH_RETURN_NOT_OK(sink.Add(std::move(out)));
                }
              }
            }
            if (!matched_any) {
              storage::Record out;
              out.row = MakeT(r_row, s_nulls);
              out.lsn = kInvalidLsn;
              MORPH_RETURN_NOT_OK(sink.Add(std::move(out)));
            }
          }
        }
        return sink.Flush();
      }));

  // Phase 4 — each partition owner emits its unmatched S rows as padding.
  return RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        BatchSink sink(t_.get(), BatchSink::Mode::kInsert, &w);
        SPartition& part = partitions[w.index()];
        const Row r_nulls = Row::Nulls(r_width_);
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

Row FojRules::RPart(const Row& t_row) const {
  std::vector<Value> vals(t_row.values().begin(),
                          t_row.values().begin() + r_width_);
  return Row(std::move(vals));
}

Row FojRules::SPart(const Row& t_row) const {
  std::vector<Value> vals(t_row.values().begin() + r_width_,
                          t_row.values().end());
  return Row(std::move(vals));
}

bool FojRules::RPartNull(const Row& t_row) const {
  for (size_t k : r_->schema().key_indices()) {
    if (!t_row[k].is_null()) return false;
  }
  return true;
}

bool FojRules::SPartNull(const Row& t_row) const {
  for (size_t k : s_->schema().key_indices()) {
    if (!t_row[r_width_ + k].is_null()) return false;
  }
  return true;
}

namespace {
Row ShiftedKey(const Row& t_row, const std::vector<size_t>& key_indices,
               size_t offset) {
  std::vector<Value> vals;
  vals.reserve(key_indices.size());
  for (size_t k : key_indices) vals.push_back(t_row[offset + k]);
  return Row(std::move(vals));
}
}  // namespace

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
  std::vector<Row> out = idx_rjoin_->Lookup(key);
  for (Row& pk : idx_sjoin_->Lookup(key)) {
    bool dup = false;
    for (const Row& existing : out) {
      if (existing == pk) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(std::move(pk));
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
  if (op.table_id == r_->id()) {
    switch (op.type) {
      case OpType::kInsert:
        return InsertR(op, affected);
      case OpType::kDelete:
        return DeleteR(op, affected);
      case OpType::kUpdate:
        return UpdateR(op, affected);
    }
  } else if (op.table_id == s_->id()) {
    switch (op.type) {
      case OpType::kInsert:
        return InsertS(op, affected);
      case OpType::kDelete:
        return DeleteS(op, affected);
      case OpType::kUpdate:
        return UpdateS(op, affected);
    }
  }
  return Status::Internal("op on a table that is not a source");
}

// --- insert ------------------------------------------------------------------

Status FojRules::InsertR(const Op& op, std::vector<txn::RecordId>* affected) {
  // Rule 1: a T-record keyed by y already exists -> already reflected.
  const std::vector<Row> existing = idx_rkey_->Lookup(op.key);
  if (!existing.empty()) {
    counters_.ops_ignored++;
    if (affected != nullptr) {
      for (const Row& pk : existing) affected->push_back({t_->id(), pk});
    }
    return Status::OK();
  }
  counters_.ops_applied++;
  return InsertRImage(op.after, affected, op.lsn);
}

Status FojRules::InsertRImage(const Row& r_row,
                              std::vector<txn::RecordId>* affected, Lsn lsn) {
  const Value x = r_row[r_join_idx_];
  if (x.is_null()) {
    // A NULL join attribute matches nothing; keep the record FOJ-style.
    return InsertT(MakeT(r_row, Row::Nulls(s_width_)), lsn, affected);
  }
  // Every distinct S-part with join value x currently in T; remember the
  // r-null padding record (t^null_x) it may live in, which the new match
  // replaces (rule 1's "t^null_x is updated with the attribute values").
  struct SCand {
    Row s_part;
    std::optional<Row> null_home;  // T-pk of the r-null padding record
  };
  std::unordered_map<Row, SCand, RowHasher> cands;
  for (const Row& pk : LookupJoin(x)) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (SPartNull(rec->row)) continue;
    if (rec->row[t_sjoin_col_] != x) continue;
    const Row s_key = ShiftedKey(rec->row, s_->schema().key_indices(), r_width_);
    SCand& cand = cands[s_key];
    cand.s_part = SPart(rec->row);
    if (RPartNull(rec->row)) cand.null_home = pk;
  }
  if (cands.empty()) {
    // No join partner: t^y_null (rule 1's third case).
    return InsertT(MakeT(r_row, Row::Nulls(s_width_)), lsn, affected);
  }
  for (auto& [s_key, cand] : cands) {
    if (cand.null_home) {
      MORPH_RETURN_NOT_OK(
          ReplaceT(*cand.null_home, MakeT(r_row, cand.s_part), lsn, affected));
    } else {
      MORPH_RETURN_NOT_OK(InsertT(MakeT(r_row, cand.s_part), lsn, affected));
    }
  }
  return Status::OK();
}

Status FojRules::InsertS(const Op& op, std::vector<txn::RecordId>* affected) {
  // Rule 2 (Theorem-1 guard): any T-record already containing this S-record
  // means the insert is reflected.
  const std::vector<Row> existing = idx_skey_->Lookup(op.key);
  if (!existing.empty()) {
    counters_.ops_ignored++;
    if (affected != nullptr) {
      for (const Row& pk : existing) affected->push_back({t_->id(), pk});
    }
    return Status::OK();
  }
  counters_.ops_applied++;
  return InsertSImage(op.after, affected, op.lsn);
}

Status FojRules::InsertSImage(const Row& s_row,
                              std::vector<txn::RecordId>* affected, Lsn lsn) {
  const Value x = s_row[s_join_idx_];
  if (x.is_null()) {
    return InsertT(MakeT(Row::Nulls(r_width_), s_row), lsn, affected);
  }
  struct RCand {
    Row r_part;
    std::optional<Row> null_home;  // T-pk of the s-null padding record
  };
  std::unordered_map<Row, RCand, RowHasher> cands;
  for (const Row& pk : LookupJoin(x)) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (RPartNull(rec->row)) continue;
    if (rec->row[t_rjoin_col_] != x) continue;
    const Row r_key = ShiftedKey(rec->row, r_->schema().key_indices(), 0);
    RCand& cand = cands[r_key];
    cand.r_part = RPart(rec->row);
    if (SPartNull(rec->row)) cand.null_home = pk;
  }
  if (cands.empty()) {
    // Rule 2: "if no records have x as the join attribute, t^null_x is
    // inserted after joining r^null with s^x."
    return InsertT(MakeT(Row::Nulls(r_width_), s_row), lsn, affected);
  }
  for (auto& [r_key, cand] : cands) {
    if (cand.null_home) {
      // Rule 2: records joined with s^null are updated with the new values.
      MORPH_RETURN_NOT_OK(
          ReplaceT(*cand.null_home, MakeT(cand.r_part, s_row), lsn, affected));
    } else {
      // Many-to-many fan-out: this R-record gains an additional match.
      MORPH_RETURN_NOT_OK(InsertT(MakeT(cand.r_part, s_row), lsn, affected));
    }
  }
  return Status::OK();
}

// --- delete ------------------------------------------------------------------

Status FojRules::DeleteR(const Op& op, std::vector<txn::RecordId>* affected) {
  // Rule 3.
  const std::vector<Row> pks = idx_rkey_->Lookup(op.key);
  if (pks.empty()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;
  for (const Row& pk : pks) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (SPartNull(rec->row)) {
      MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
      continue;
    }
    const Row s_part = SPart(rec->row);
    const Row s_key = ShiftedKey(rec->row, s_->schema().key_indices(), r_width_);
    MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
    // FOJ invariant: the S-record must survive even if this was its last
    // match ("t^null_x is inserted after joining s^x with t^null").
    if (idx_skey_->Count(s_key) == 0) {
      MORPH_RETURN_NOT_OK(
          InsertT(MakeT(Row::Nulls(r_width_), s_part), op.lsn, affected));
    }
  }
  return Status::OK();
}

Status FojRules::DeleteS(const Op& op, std::vector<txn::RecordId>* affected) {
  // Rule 4.
  const std::vector<Row> pks = idx_skey_->Lookup(op.key);
  if (pks.empty()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;
  for (const Row& pk : pks) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (RPartNull(rec->row)) {
      // t^null_x is simply deleted.
      MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
      continue;
    }
    const Row r_part = RPart(rec->row);
    const Row r_key = ShiftedKey(rec->row, r_->schema().key_indices(), 0);
    MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
    // The R-record must survive: join it with s^null unless it still has
    // other matches (many-to-many).
    if (idx_rkey_->Count(r_key) == 0) {
      MORPH_RETURN_NOT_OK(
          InsertT(MakeT(r_part, Row::Nulls(s_width_)), op.lsn, affected));
    }
  }
  return Status::OK();
}

// --- update ------------------------------------------------------------------

Status FojRules::UpdateR(const Op& op, std::vector<txn::RecordId>* affected) {
  Value x_old, z;
  const bool join_updated = op.UpdatesColumn(r_join_idx_, &x_old, &z);
  const std::vector<Row> pks = idx_rkey_->Lookup(op.key);
  if (pks.empty()) {
    // Theorem 1: the record was deleted later; the delete's log record will
    // arrive and nothing is lost.
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (!join_updated) {
    // Rule 7 (R side): update the R-part columns of every T-record keyed y.
    counters_.ops_applied++;
    std::vector<uint32_t> t_cols = op.updated_columns;  // same positions
    for (const Row& pk : pks) {
      MORPH_RETURN_NOT_OK(MutateT(pk, t_cols, op.after_values, op.lsn, affected));
    }
    return Status::OK();
  }
  // Rule 5: join attribute updated from x_old to z.
  auto rec0 = t_->Get(pks[0]);
  if (!rec0.ok()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (rec0->row[t_rjoin_col_] != x_old) {
    // Already in a newer state (w != x); applying would be redundant work.
    counters_.ops_ignored++;
    if (affected != nullptr) {
      for (const Row& pk : pks) affected->push_back({t_->id(), pk});
    }
    return Status::OK();
  }
  counters_.ops_applied++;
  const Row r_new = ApplyUpdates(RPart(rec0->row), op);
  // Detach from the old join value, preserving orphaned S-records.
  for (const Row& pk : pks) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (SPartNull(rec->row)) {
      MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
      continue;
    }
    const Row s_part = SPart(rec->row);
    const Row s_key = ShiftedKey(rec->row, s_->schema().key_indices(), r_width_);
    MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
    if (idx_skey_->Count(s_key) == 0) {
      MORPH_RETURN_NOT_OK(
          InsertT(MakeT(Row::Nulls(r_width_), s_part), op.lsn, affected));
    }
  }
  // Attach at the new join value (same fan-out as an R insert).
  return InsertRImage(r_new, affected, op.lsn);
}

Status FojRules::UpdateS(const Op& op, std::vector<txn::RecordId>* affected) {
  Value x_old, z;
  const bool join_updated = op.UpdatesColumn(s_join_idx_, &x_old, &z);
  const std::vector<Row> pks = idx_skey_->Lookup(op.key);
  if (pks.empty()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (!join_updated) {
    // Rule 7 (S side): update the S-part columns of every T-record
    // containing s.
    counters_.ops_applied++;
    std::vector<uint32_t> t_cols;
    t_cols.reserve(op.updated_columns.size());
    for (uint32_t c : op.updated_columns) {
      t_cols.push_back(static_cast<uint32_t>(r_width_) + c);
    }
    for (const Row& pk : pks) {
      MORPH_RETURN_NOT_OK(MutateT(pk, t_cols, op.after_values, op.lsn, affected));
    }
    return Status::OK();
  }
  // Rule 6: join attribute updated from x_old to z — delete of s^x followed
  // by insert of s^z, with the unlogged attributes read from T.
  auto rec0 = t_->Get(pks[0]);
  if (!rec0.ok()) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  if (rec0->row[t_sjoin_col_] != x_old) {
    counters_.ops_ignored++;
    if (affected != nullptr) {
      for (const Row& pk : pks) affected->push_back({t_->id(), pk});
    }
    return Status::OK();
  }
  counters_.ops_applied++;
  const Row s_new = ApplyUpdates(SPart(rec0->row), op);
  for (const Row& pk : pks) {
    auto rec = t_->Get(pk);
    if (!rec.ok()) continue;
    if (RPartNull(rec->row)) {
      MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
      continue;
    }
    const Row r_part = RPart(rec->row);
    const Row r_key = ShiftedKey(rec->row, r_->schema().key_indices(), 0);
    MORPH_RETURN_NOT_OK(DeleteT(pk, affected));
    if (idx_rkey_->Count(r_key) == 0) {
      MORPH_RETURN_NOT_OK(
          InsertT(MakeT(r_part, Row::Nulls(s_width_)), op.lsn, affected));
    }
  }
  return InsertSImage(s_new, affected, op.lsn);
}

// --- lock mirroring / lifecycle -----------------------------------------------

std::vector<txn::RecordId> FojRules::AffectedTargets(TableId table,
                                                     const Row& pk) {
  std::vector<Row> pks;
  if (table == r_->id()) {
    pks = idx_rkey_->Lookup(pk);
  } else if (table == s_->id()) {
    pks = idx_skey_->Lookup(pk);
  }
  std::vector<txn::RecordId> out;
  out.reserve(pks.size());
  for (Row& t_pk : pks) out.push_back({t_->id(), std::move(t_pk)});
  return out;
}

Status FojRules::DropTargets() {
  const Status st = db_->DropTable(spec_.target_table);
  if (st.IsNotFound()) return Status::OK();
  return st;
}

}  // namespace morph::transform
