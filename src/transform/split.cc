#include "transform/split.h"

#include <algorithm>
#include <unordered_map>

#include "common/clock.h"
#include "transform/populate.h"

namespace morph::transform {

Result<std::unique_ptr<SplitRules>> SplitRules::Make(engine::Database* db,
                                                     SplitSpec spec) {
  auto t = db->catalog()->GetByName(spec.t_table);
  if (t == nullptr) return Status::NotFound("no table named " + spec.t_table);
  std::unique_ptr<SplitRules> rules(
      new SplitRules(db, std::move(spec), std::move(t)));
  MORPH_RETURN_NOT_OK(rules->ResolveColumns());
  return rules;
}

SplitRules::SplitRules(engine::Database* db, SplitSpec spec,
                       std::shared_ptr<storage::Table> t)
    : OperatorRules(db), spec_(std::move(spec)), t_src_(std::move(t)) {}

Status SplitRules::ResolveColumns() {
  const Schema& ts = t_src_->schema();
  if (spec_.reuse_source_as_r) {
    // §5.2 alternative strategy: the "R side" is only the propagation
    // bookkeeping table P = (T's key, split attribute, LSN); the real R is
    // T itself, renamed at completion.
    std::vector<std::string> p_columns;
    for (size_t k : ts.key_indices()) p_columns.push_back(ts.column(k).name);
    for (const std::string& c : spec_.split_columns) {
      if (std::find(p_columns.begin(), p_columns.end(), c) == p_columns.end()) {
        p_columns.push_back(c);
      }
    }
    spec_.r_columns = std::move(p_columns);
  }
  MORPH_ASSIGN_OR_RETURN(r_cols_, ts.IndicesOf(spec_.r_columns));
  MORPH_ASSIGN_OR_RETURN(s_cols_, ts.IndicesOf(spec_.s_columns));
  MORPH_ASSIGN_OR_RETURN(split_in_t_, ts.IndicesOf(spec_.split_columns));

  // R must keep T's key (it stays the key of R) and the split attribute
  // (the foreign key to S; rules 9/11 read the affected S-record from it).
  for (size_t k : ts.key_indices()) {
    if (std::find(r_cols_.begin(), r_cols_.end(), k) == r_cols_.end()) {
      return Status::InvalidArgument("r_columns must include T's key column " +
                                     ts.column(k).name);
    }
  }
  for (size_t k : split_in_t_) {
    if (std::find(r_cols_.begin(), r_cols_.end(), k) == r_cols_.end()) {
      return Status::InvalidArgument(
          "r_columns must include the split column " + ts.column(k).name);
    }
    if (std::find(s_cols_.begin(), s_cols_.end(), k) == s_cols_.end()) {
      return Status::InvalidArgument(
          "s_columns must include the split column " + ts.column(k).name);
    }
  }

  auto position_within = [](const std::vector<size_t>& projection, size_t t_pos)
      -> std::optional<size_t> {
    for (size_t i = 0; i < projection.size(); ++i) {
      if (projection[i] == t_pos) return i;
    }
    return std::nullopt;
  };
  for (size_t k : split_in_t_) {
    split_in_r_.push_back(*position_within(r_cols_, k));
    split_in_s_.push_back(*position_within(s_cols_, k));
  }
  for (size_t i = 0; i < s_cols_.size(); ++i) {
    if (std::find(split_in_s_.begin(), split_in_s_.end(), i) ==
        split_in_s_.end()) {
      s_nonkey_within_.push_back(i);
    }
  }
  return Status::OK();
}

Status SplitRules::Prepare() {
  const Schema& ts = t_src_->schema();

  std::vector<Column> r_columns;
  std::vector<std::string> r_keys;
  for (size_t c : r_cols_) r_columns.push_back(ts.column(c));
  for (size_t k : ts.key_indices()) r_keys.push_back(ts.column(k).name);
  MORPH_ASSIGN_OR_RETURN(Schema r_schema,
                         Schema::Make(std::move(r_columns), std::move(r_keys)));
  // Under the alternative strategy the bookkeeping table gets an internal
  // name; spec_.r_name is reserved for the renamed T.
  const std::string r_table_name =
      spec_.reuse_source_as_r ? spec_.r_name + "__p" : spec_.r_name;
  MORPH_ASSIGN_OR_RETURN(r_, CreateTarget(r_table_name, std::move(r_schema)));

  std::vector<Column> s_columns;
  for (size_t c : s_cols_) s_columns.push_back(ts.column(c));
  MORPH_ASSIGN_OR_RETURN(
      Schema s_schema, Schema::Make(std::move(s_columns), spec_.split_columns));
  MORPH_ASSIGN_OR_RETURN(s_, CreateTarget(spec_.s_name, std::move(s_schema)));
  return Status::OK();
}

Status SplitRules::InitialPopulate() {
  // Fuzzy-read T once, shard-partitioned across the population pipeline's
  // workers; R gets one projected record per T record (keeping its LSN as
  // the state identifier), S gets one record per split value, its image and
  // LSN taken from the *newest* contributing row so the stored image is
  // never older than its LSN claims.
  //
  // The per-bucket accumulation is order-independent — the stored image is
  // the max-LSN contributor and `consistent` holds iff *all* contributing
  // images were equal (once a mismatch flips it false, later image
  // replacements can't flip it back) — so scanners can aggregate partials
  // over disjoint shard ranges and partition owners merge them with the
  // same rule applied to pre-aggregated halves, byte-identical to the
  // serial scan in any interleaving.
  struct SAccum {
    Row image;
    Lsn lsn = kInvalidLsn;
    int64_t counter = 0;
    bool consistent = true;
  };
  using AccumMap = std::unordered_map<Row, SAccum, RowHasher>;

  const PopulateConfig& config = populate_config();
  const size_t parts = std::max<size_t>(1, config.workers);
  // R gets one record per T record; S at most as many. A staggered run
  // sizes the targets for the whole table on its first tablet.
  const size_t source_rows = t_src_->size();
  r_->Reserve(source_rows);
  s_->Reserve(source_rows);
  // A staggered run's later tablets find buckets from earlier tablets'
  // scans (and their propagation) already in S and merge into them; a
  // first scan writes S in batches. Nothing else writes S while this runs.
  const bool s_empty = s_->size() == 0;
  // accums[scanner][partition]: scanner-local S-side partials, bucketed by
  // split-key hash. No SAccum map is ever shared between threads — scanners
  // write only their own row, owners merge only their own column.
  std::vector<std::vector<AccumMap>> accums(parts, std::vector<AccumMap>(parts));

  // Phase 1 — scan T: R records stream through the batch sink, the S side
  // aggregates locally.
  MORPH_RETURN_NOT_OK(RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        BatchSink r_sink(r_.get(), BatchSink::Mode::kInsert, &w);
        std::vector<AccumMap>& mine = accums[w.index()];
        MORPH_RETURN_NOT_OK(
            w.ScanShards(*t_src_, [&](const storage::Record& rec) -> Status {
              storage::Record r_rec;
              r_rec.row = rec.row.Project(r_cols_);
              r_rec.lsn = rec.lsn;
              MORPH_RETURN_NOT_OK(r_sink.Add(std::move(r_rec)));
              Row s_row = rec.row.Project(s_cols_);
              Row s_key = SplitKeyOfS(s_row);
              SAccum& acc = mine[s_key.Hash() % parts][std::move(s_key)];
              acc.counter++;
              if (acc.counter == 1) {
                acc.image = std::move(s_row);
                acc.lsn = rec.lsn;
              } else {
                if (acc.image != s_row) acc.consistent = false;
                if (rec.lsn > acc.lsn) {
                  acc.lsn = rec.lsn;
                  acc.image = std::move(s_row);
                }
              }
              return Status::OK();
            }));
        return r_sink.Flush();
      }));

  // Phase 2 — partition owners merge the scanners' partials and flush S
  // through the batch sink, which (unlike the pre-pipeline flush loop) pays
  // the duty cycle for the burst.
  return RunPopulatePhase(
      throttle_controller(), config, [&](PopulateWorker& w) -> Status {
        AccumMap merged = std::move(accums[0][w.index()]);
        for (size_t scanner = 1; scanner < parts; ++scanner) {
          for (auto& [s_key, acc] : accums[scanner][w.index()]) {
            auto [it, fresh] = merged.try_emplace(s_key, std::move(acc));
            if (fresh) continue;
            SAccum& into = it->second;
            into.counter += acc.counter;
            if (!(into.consistent && acc.consistent &&
                  into.image == acc.image)) {
              into.consistent = false;
            }
            if (acc.lsn > into.lsn) {
              into.lsn = acc.lsn;
              into.image = std::move(acc.image);
            }
          }
        }
        if (!s_empty) {
          // Staggered mode: earlier tablets' scans already stored partial
          // buckets, so this tablet's partials fold *into* them under the
          // shard mutex with the same merge rule as the cross-scanner merge
          // above. The union over all tablets of disjoint shard-range scans
          // contributes each T record exactly once, so the final counters
          // and max-LSN images equal the whole-table scan's.
          using Action = storage::Table::RmwAction;
          size_t since_pay = 0;
          for (auto& [s_key, acc] : merged) {
            MORPH_RETURN_NOT_OK(s_->Rmw(s_key, [&](storage::Record* rec,
                                                   bool exists) {
              if (!exists) {
                rec->row = std::move(acc.image);
                rec->lsn = acc.lsn;
                rec->counter = acc.counter;
                rec->consistent = spec_.assume_consistent || acc.consistent;
                return Action::kPut;
              }
              rec->counter += acc.counter;
              if (!spec_.assume_consistent &&
                  !(rec->consistent && acc.consistent &&
                    rec->row == acc.image)) {
                rec->consistent = false;
              }
              if (acc.lsn > rec->lsn) {
                rec->lsn = acc.lsn;
                rec->row = std::move(acc.image);
              }
              return Action::kPut;
            }));
            if (++since_pay >= w.batch_size()) {
              w.PayThrottle();
              since_pay = 0;
            }
          }
          w.PayThrottle();
          return Status::OK();
        }
        BatchSink s_sink(s_.get(), BatchSink::Mode::kInsert, &w);
        for (auto& [s_key, acc] : merged) {
          storage::Record s_rec;
          s_rec.row = std::move(acc.image);
          s_rec.lsn = acc.lsn;
          s_rec.counter = acc.counter;
          // §5.2 assumes consistency; §5.3 flags every S-record that was
          // not provably consistent in the fuzzy read.
          s_rec.consistent = spec_.assume_consistent || acc.consistent;
          MORPH_RETURN_NOT_OK(s_sink.Add(std::move(s_rec)));
        }
        return s_sink.Flush();
      });
}

// --- helpers -----------------------------------------------------------------

Row SplitRules::SplitKeyOfR(const Row& r_row) const {
  return r_row.Project(split_in_r_);
}

void SplitRules::MapUpdates(const Op& op, std::vector<uint32_t>* r_cols,
                            std::vector<Value>* r_vals,
                            std::vector<uint32_t>* s_cols,
                            std::vector<Value>* s_vals) const {
  for (size_t i = 0; i < op.updated_columns.size(); ++i) {
    const size_t t_pos = op.updated_columns[i];
    for (size_t j = 0; j < r_cols_.size(); ++j) {
      if (r_cols_[j] == t_pos) {
        r_cols->push_back(static_cast<uint32_t>(j));
        r_vals->push_back(op.after_values[i]);
      }
    }
    for (size_t j = 0; j < s_cols_.size(); ++j) {
      if (s_cols_[j] == t_pos) {
        s_cols->push_back(static_cast<uint32_t>(j));
        s_vals->push_back(op.after_values[i]);
      }
    }
  }
}

void SplitRules::TouchSplitValue(const Row& s_key) {
  std::unique_lock lock(cc_mu_);
  auto it = cc_open_.find(s_key);
  if (it != cc_open_.end()) it->second = true;
}

Status SplitRules::BumpS(const Row& s_key, int delta, Lsn lsn,
                         const Row* insert_image,
                         std::vector<txn::RecordId>* affected) {
  if (affected != nullptr) affected->push_back({s_->id(), s_key});
  TouchSplitValue(s_key);
  // One atomic step against the bucket: existence check, counter bump,
  // image/LSN maintenance and removal-at-zero all happen under the shard
  // mutex (Table::Rmw). Splitting this into a Mutate plus a separate
  // Insert (when absent) or Delete (at zero) would let a client thread
  // mirroring locks (AffectedTargets) observe the bucket between the steps.
  using Action = storage::Table::RmwAction;
  return s_->Rmw(s_key, [&](storage::Record* rec, bool exists) {
    if (!exists) {
      // Decrement of a missing record: nothing to do (already gone).
      if (delta <= 0 || insert_image == nullptr) return Action::kKeep;
      rec->row = *insert_image;
      rec->lsn = lsn;
      rec->counter = 1;
      rec->consistent = true;
      return Action::kPut;
    }
    rec->counter += delta;
    if (rec->counter <= 0) {
      // "If the counter of a record reaches zero, the record is removed."
      return Action::kErase;
    }
    if (insert_image != nullptr) {
      if (!spec_.assume_consistent && rec->row != *insert_image) {
        // §5.3: inserting an s^x that differs from the stored image makes
        // the record's consistency unknown.
        rec->consistent = false;
      }
      // The record's LSN tracks the newest *image-bearing* operation
      // applied — pure membership bumps do not advance it — and a newer
      // full image replaces the stored one. That makes bucket maintenance
      // commute across workers: in any arrival order the max-LSN image
      // wins, which is exactly what the serial LSN order leaves behind.
      if (lsn > rec->lsn) {
        rec->row = *insert_image;
        rec->lsn = lsn;
      }
    }
    return Action::kPut;
  });
}

// --- dispatch ----------------------------------------------------------------

Status SplitRules::Apply(const Op& op, std::vector<txn::RecordId>* affected) {
  if (op.table_id != t_src_->id()) {
    return Status::Internal("op on a table that is not the split source");
  }
  switch (op.type) {
    case OpType::kInsert:
      return InsertTOp(op, affected);
    case OpType::kDelete:
      return DeleteTOp(op, affected);
    case OpType::kUpdate:
      return UpdateTOp(op, affected);
  }
  return Status::Internal("unreachable");
}

// Rule 8.
Status SplitRules::InsertTOp(const Op& op, std::vector<txn::RecordId>* affected) {
  if (affected != nullptr) affected->push_back({r_->id(), op.key});
  if (r_->Contains(op.key)) {
    // r^y already present: the log record is reflected (Theorem 1); neither
    // R nor S is touched.
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;
  storage::Record r_rec;
  r_rec.row = op.after.Project(r_cols_);
  r_rec.lsn = op.lsn;
  const Status st = r_->Insert(std::move(r_rec));
  if (!st.ok() && !st.IsAlreadyExists()) return st;

  const Row s_row = op.after.Project(s_cols_);
  return BumpS(SplitKeyOfS(s_row), +1, op.lsn, &s_row, affected);
}

// Rule 9.
Status SplitRules::DeleteTOp(const Op& op, std::vector<txn::RecordId>* affected) {
  if (affected != nullptr) affected->push_back({r_->id(), op.key});
  auto r_rec = r_->Get(op.key);
  if (!r_rec.ok() || r_rec->lsn >= op.lsn) {
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;
  // The bucket this record is currently counted in is named by the R
  // record's *current* split value ("a record r^y_v ... is deleted").
  const Row s_key = SplitKeyOfR(r_rec->row);
  const Status st = r_->Delete(op.key);
  if (!st.ok() && !st.IsNotFound()) return st;
  return BumpS(s_key, -1, op.lsn, nullptr, affected);
}

// Rules 10 + 11.
Status SplitRules::UpdateTOp(const Op& op, std::vector<txn::RecordId>* affected) {
  if (affected != nullptr) affected->push_back({r_->id(), op.key});
  auto r_rec = r_->Get(op.key);
  if (!r_rec.ok() || r_rec->lsn >= op.lsn) {
    // Rule 10: unknown or newer R record → the operation is reflected;
    // rule 11's precondition ("updates are only applied to Si if ry was
    // updated") then skips the S side too.
    counters_.ops_ignored++;
    return Status::OK();
  }
  counters_.ops_applied++;

  std::vector<uint32_t> r_upd_cols, s_upd_cols;
  std::vector<Value> r_upd_vals, s_upd_vals;
  MapUpdates(op, &r_upd_cols, &r_upd_vals, &s_upd_cols, &s_upd_vals);

  const Row old_s_key = SplitKeyOfR(r_rec->row);

  // Rule 10: apply the R-side column updates; the LSN advances even when no
  // R column changed (it is the record's state identifier).
  MORPH_RETURN_NOT_OK(r_->Mutate(op.key, [&](storage::Record* rec) {
    for (size_t i = 0; i < r_upd_cols.size(); ++i) {
      rec->row[r_upd_cols[i]] = r_upd_vals[i];
    }
    rec->lsn = op.lsn;
    return true;
  }));

  if (s_upd_cols.empty()) return Status::OK();

  // Rule 11. Does the update move the record to a different split value?
  bool split_updated = false;
  for (size_t i = 0; i < op.updated_columns.size(); ++i) {
    for (size_t k : split_in_t_) {
      if (op.updated_columns[i] == k &&
          op.before_values[i] != op.after_values[i]) {
        split_updated = true;
      }
    }
  }

  if (!split_updated) {
    // Non-split attributes only: update the stored image, guarded by the
    // S-record's LSN (its image already reflects operations up to that LSN).
    if (affected != nullptr) affected->push_back({s_->id(), old_s_key});
    TouchSplitValue(old_s_key);
    const Status st = s_->Mutate(old_s_key, [&](storage::Record* rec) {
      if (rec->lsn >= op.lsn) return false;  // image already newer
      for (size_t i = 0; i < s_upd_cols.size(); ++i) {
        rec->row[s_upd_cols[i]] = s_upd_vals[i];
      }
      rec->lsn = op.lsn;
      if (!spec_.assume_consistent) {
        if (rec->counter > 1) {
          // Other contributors may now disagree.
          rec->consistent = false;
        } else if (rec->counter == 1 &&
                   s_upd_cols.size() >= s_nonkey_within_.size()) {
          // "A U-flag is changed to C only if the operation updates all
          // non-key attributes of a record with a counter of 1."
          bool covers_all = true;
          for (size_t nk : s_nonkey_within_) {
            if (std::find(s_upd_cols.begin(), s_upd_cols.end(),
                          static_cast<uint32_t>(nk)) == s_upd_cols.end()) {
              covers_all = false;
            }
          }
          if (covers_all) rec->consistent = true;
        }
      }
      return true;
    });
    if (!st.ok() && !st.IsNotFound()) return st;
    return Status::OK();
  }

  // Split attribute updated: "treated as a deletion of s^x, followed by the
  // insertion of s^v". The new image is the stored s^x image with the
  // logged updates applied (the log does not carry unchanged attributes).
  Row new_image;
  {
    auto s_old = s_->Get(old_s_key);
    Row base;
    if (s_old.ok()) {
      base = s_old->row;
    } else {
      // The old S-record is already gone (newer state); reconstruct what we
      // can from the R record and the logged values.
      base = Row::Nulls(s_cols_.size());
      for (size_t i = 0; i < split_in_s_.size(); ++i) {
        base[split_in_s_[i]] = old_s_key[i];
      }
    }
    for (size_t i = 0; i < s_upd_cols.size(); ++i) {
      base[s_upd_cols[i]] = s_upd_vals[i];
    }
    new_image = std::move(base);
  }
  MORPH_RETURN_NOT_OK(BumpS(old_s_key, -1, op.lsn, nullptr, affected));
  return BumpS(SplitKeyOfS(new_image), +1, op.lsn, &new_image, affected);
}

// --- consistency checker (§5.3) ------------------------------------------------

Status SplitRules::OnControlRecord(const wal::LogRecord& rec) {
  switch (rec.type) {
    case wal::LogRecordType::kCcBegin: {
      std::unique_lock lock(cc_mu_);
      cc_open_[rec.key] = false;
      return Status::OK();
    }
    case wal::LogRecordType::kCcOk: {
      bool disturbed = true;
      {
        std::unique_lock lock(cc_mu_);
        auto it = cc_open_.find(rec.key);
        if (it != cc_open_.end()) {
          disturbed = it->second;
          cc_open_.erase(it);
        }
      }
      if (disturbed) {
        counters_.cc_disturbed++;
        return Status::OK();
      }
      // Undisturbed bracket: the verified image is authoritative; flip to C.
      const Status st = s_->Mutate(rec.key, [&](storage::Record* s_rec) {
        Row image = rec.after;
        s_rec->row = std::move(image);
        s_rec->consistent = true;
        return true;
      });
      if (st.ok()) counters_.cc_upgrades++;
      if (!st.ok() && !st.IsNotFound()) return st;
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<size_t> SplitRules::RunConsistencyCheck(size_t max_records) {
  if (spec_.assume_consistent) return size_t{0};
  // Collect up to max_records U-flagged split keys.
  std::vector<Row> candidates;
  s_->FuzzyScan([&](const storage::Record& rec) {
    if (!rec.consistent && candidates.size() < max_records) {
      candidates.push_back(SplitKeyOfS(rec.row));
    }
  });
  size_t written = 0;
  for (const Row& s_key : candidates) {
    wal::LogRecord begin;
    begin.type = wal::LogRecordType::kCcBegin;
    begin.table_id = t_src_->id();
    begin.key = s_key;
    db()->wal()->Append(std::move(begin));

    // Read every contributing T-record without locks and compare images.
    std::optional<Row> image;
    bool agree = true;
    t_src_->FuzzyScan([&](const storage::Record& rec) {
      if (!agree) return;
      Row s_row = rec.row.Project(s_cols_);
      if (SplitKeyOfS(s_row) != s_key) return;
      if (!image) {
        image = std::move(s_row);
      } else if (*image != s_row) {
        agree = false;
      }
    });
    if (!agree || !image) {
      // Genuinely inconsistent (or vanished): leave the flag as U; the DBA
      // must repair T (paper Example 1) before synchronization can start.
      continue;
    }
    wal::LogRecord ok;
    ok.type = wal::LogRecordType::kCcOk;
    ok.table_id = t_src_->id();
    ok.key = s_key;
    ok.after = *image;
    db()->wal()->Append(std::move(ok));
    written++;
  }
  return written;
}

size_t SplitRules::CountInconsistent() const {
  if (spec_.assume_consistent) return 0;
  size_t n = 0;
  s_->FuzzyScan([&](const storage::Record& rec) {
    if (!rec.consistent) n++;
  });
  return n;
}

bool SplitRules::ReadyForSync() const { return CountInconsistent() == 0; }

std::vector<txn::RecordId> SplitRules::AffectedTargets(TableId table,
                                                       const Row& pk) {
  std::vector<txn::RecordId> out;
  if (table != t_src_->id()) return out;
  out.push_back({r_->id(), pk});
  auto r_rec = r_->Get(pk);
  if (r_rec.ok()) out.push_back({s_->id(), SplitKeyOfR(r_rec->row)});
  return out;
}

Status SplitRules::FinalizeTargets() {
  if (!spec_.reuse_source_as_r) return Status::OK();
  // §5.2 alternative strategy: drop the bookkeeping table and rename T into
  // R. The S-only attributes remain physically present; their removal is a
  // table-description change (§2.4), outside the transformation itself.
  MORPH_RETURN_NOT_OK(db()->DropTable(r_->name()));
  return db()->catalog()->RenameTable(spec_.t_table, spec_.r_name);
}

bool SplitRules::KeepSource(TableId id) const {
  return spec_.reuse_source_as_r && id == t_src_->id();
}

}  // namespace morph::transform
