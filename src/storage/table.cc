#include "storage/table.h"

#include "common/failpoint.h"
#include "common/metrics.h"

namespace morph::storage {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

Table::Table(TableId id, std::string name, Schema schema, size_t num_shards,
             size_t num_tablets)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      shard_mask_(RoundUpPow2(num_shards) - 1),
      shards_(shard_mask_ + 1),
      tablets_(shard_mask_ + 1, num_tablets),
      latches_(tablets_.num_tablets()) {}

std::vector<SecondaryIndex*> Table::IndexSnapshot() const {
  std::unique_lock lock(indexes_mu_);
  std::vector<SecondaryIndex*> out;
  out.reserve(indexes_.size());
  for (const auto& idx : indexes_) out.push_back(idx.get());
  return out;
}

void Table::Reserve(size_t n) {
  // Hash skew leaves some shards above the mean; an eighth of slack keeps
  // them from rehashing.
  const size_t per_shard = n / shards_.size() + n / (8 * shards_.size()) + 1;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    if (shard.map.bucket_count() * shard.map.max_load_factor() < per_shard) {
      shard.map.reserve(per_shard);
    }
  }
  for (SecondaryIndex* idx : IndexSnapshot()) idx->Reserve(n);
}

void Table::IndexAdd(const Record& record, const Row& pk) {
  MORPH_FAILPOINT_VOID("storage.index.add");
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Add(idx->KeyOf(record.row), pk);
}

void Table::IndexRemove(const Record& record, const Row& pk) {
  MORPH_FAILPOINT_VOID("storage.index.remove");
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Remove(idx->KeyOf(record.row), pk);
}

Status Table::Insert(Record record) {
  MORPH_FAILPOINT("storage.table.insert");
  MORPH_COUNTER_INC("storage.table.inserts");
  const Row pk = schema_.KeyOf(record.row);
  Shard& shard = ShardFor(pk);
  {
    std::unique_lock lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(pk, record);
    if (!inserted) {
      return Status::AlreadyExists("duplicate key " + pk.ToString() + " in " +
                                   name_);
    }
  }
  IndexAdd(record, pk);
  return Status::OK();
}

Status Table::Update(const Row& key, Record record) {
  MORPH_FAILPOINT("storage.table.update");
  MORPH_COUNTER_INC("storage.table.updates");
  const Row new_pk = schema_.KeyOf(record.row);
  if (new_pk != key) {
    return Status::InvalidArgument("Update may not change the primary key (" +
                                   key.ToString() + " -> " + new_pk.ToString() +
                                   ")");
  }
  Shard& shard = ShardFor(key);
  Record old_record;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    old_record = it->second;
    it->second = record;
  }
  IndexRemove(old_record, key);
  IndexAdd(record, key);
  return Status::OK();
}

Status Table::Delete(const Row& key) {
  MORPH_FAILPOINT("storage.table.delete");
  MORPH_COUNTER_INC("storage.table.deletes");
  Shard& shard = ShardFor(key);
  Record old_record;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    old_record = std::move(it->second);
    shard.map.erase(it);
  }
  IndexRemove(old_record, key);
  return Status::OK();
}

Result<Record> Table::Get(const Row& key) const {
  const Shard& shard = ShardFor(key);
  std::unique_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return Status::NotFound("no record with key " + key.ToString() + " in " +
                            name_);
  }
  return it->second;
}

bool Table::Contains(const Row& key) const {
  const Shard& shard = ShardFor(key);
  std::unique_lock lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

Status Table::Mutate(const Row& key, const std::function<bool(Record*)>& fn) {
  MORPH_FAILPOINT("storage.table.mutate");
  MORPH_COUNTER_INC("storage.table.mutates");
  Shard& shard = ShardFor(key);
  Record old_record;
  Record new_record;
  bool changed = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return Status::NotFound("no record with key " + key.ToString() + " in " +
                              name_);
    }
    old_record = it->second;
    Record tmp = it->second;
    if (fn(&tmp)) {
      if (schema_.KeyOf(tmp.row) != key) {
        return Status::InvalidArgument("Mutate may not change the primary key");
      }
      it->second = tmp;
      new_record = std::move(tmp);
      changed = true;
    }
  }
  if (changed && !(old_record.row == new_record.row)) {
    IndexRemove(old_record, key);
    IndexAdd(new_record, key);
  }
  return Status::OK();
}

Status Table::Rmw(const Row& key,
                  const std::function<RmwAction(Record*, bool)>& fn) {
  MORPH_FAILPOINT("storage.table.rmw");
  MORPH_COUNTER_INC("storage.table.rmws");
  Shard& shard = ShardFor(key);
  Record old_record;
  Record new_record;
  bool had_old = false;
  bool has_new = false;
  {
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    const bool exists = it != shard.map.end();
    Record tmp = exists ? it->second : Record{};
    switch (fn(&tmp, exists)) {
      case RmwAction::kKeep:
        return Status::OK();
      case RmwAction::kPut:
        if (schema_.KeyOf(tmp.row) != key) {
          return Status::InvalidArgument(
              "Rmw may not store a row whose key differs from " +
              key.ToString());
        }
        if (exists) {
          old_record = it->second;
          had_old = true;
          it->second = tmp;
        } else {
          shard.map.emplace(key, tmp);
        }
        new_record = std::move(tmp);
        has_new = true;
        break;
      case RmwAction::kErase:
        if (!exists) return Status::OK();
        old_record = std::move(it->second);
        had_old = true;
        shard.map.erase(it);
        break;
    }
  }
  // Index maintenance outside the shard mutex, matching Insert/Update/Delete.
  if (had_old && has_new && old_record.row == new_record.row) return Status::OK();
  if (had_old) IndexRemove(old_record, key);
  if (has_new) IndexAdd(new_record, key);
  return Status::OK();
}

Result<Table::BatchStats> Table::InsertBatch(std::vector<Record> records) {
  return ApplyBatch(std::move(records), /*lsn_upsert=*/false);
}

Result<Table::BatchStats> Table::UpsertBatchLsnGated(
    std::vector<Record> records) {
  return ApplyBatch(std::move(records), /*lsn_upsert=*/true);
}

Result<Table::BatchStats> Table::ApplyBatch(std::vector<Record> records,
                                            bool lsn_upsert) {
  BatchStats stats;
  if (records.empty()) return stats;
  MORPH_FAILPOINT("storage.table.insert_batch");
  const size_t n = records.size();

  // Each primary key is extracted once. `keep` drops the in-batch losers:
  // the LSN-gated upsert resolves them up front (the highest-LSN
  // occurrence wins); a plain insert keeps every record, because the shard
  // pass below runs in batch order and so already lets the first
  // occurrence win and counts the rest as skipped.
  std::vector<Row> pks;
  pks.reserve(n);
  for (const Record& rec : records) pks.push_back(schema_.KeyOf(rec.row));
  std::vector<char> keep(n, 1);
  if (lsn_upsert) {
    std::unordered_map<Row, size_t, RowHasher> winner;
    winner.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, fresh] = winner.try_emplace(pks[i], i);
      if (fresh) continue;
      stats.skipped++;
      if (records[it->second].lsn < records[i].lsn) {
        keep[it->second] = 0;
        it->second = i;
      } else {
        keep[i] = 0;
      }
    }
  }

  // Per-shard lists in batch order: within a shard the first occurrence
  // of a key is stored first.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) by_shard[pks[i].Hash() & shard_mask_].push_back(i);
  }

  // Index keys are taken now, outside every shard mutex: the shard pass
  // moves the records into the table.
  const std::vector<SecondaryIndex*> indexes = IndexSnapshot();
  std::vector<std::vector<Row>> index_keys(indexes.size(),
                                           std::vector<Row>(n));
  for (size_t k = 0; k < indexes.size(); ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) index_keys[k][i] = indexes[k]->KeyOf(records[i].row);
    }
  }

  // One mutex acquisition per destination shard. Replaced old images are
  // kept aside: their index entries must go, but never under a shard mutex
  // (the lock-order rule every mutation path follows).
  std::vector<size_t> stored;      // records[] indices now in the table
  std::vector<Record> replaced;    // old images needing IndexRemove
  std::vector<size_t> replaced_i;  // parallel: records[] index of the winner
  stored.reserve(n);
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    if (by_shard[sh].empty()) continue;
    Shard& shard = shards_[sh];
    std::unique_lock lock(shard.mu);
    for (size_t i : by_shard[sh]) {
      auto [it, inserted] =
          shard.map.try_emplace(pks[i], std::move(records[i]));
      if (inserted) {
        stats.inserted++;
        stored.push_back(i);
      } else if (lsn_upsert && it->second.lsn < records[i].lsn) {
        replaced.push_back(std::move(it->second));
        replaced_i.push_back(i);
        it->second = std::move(records[i]);
        stored.push_back(i);
        stats.replaced++;
      } else {
        stats.skipped++;
      }
    }
  }
  MORPH_COUNTER_ADD("storage.table.inserts",
                    static_cast<int64_t>(stats.inserted + stats.replaced));
  if (stored.empty()) return stats;

  // An index created since the snapshot above got no keys from it, and its
  // backfill may have scanned these shards before the records were stored.
  // Its entries come from the stored records; Add deduplicates against the
  // backfill.
  const std::vector<SecondaryIndex*> now = IndexSnapshot();
  for (size_t k = indexes.size(); k < now.size(); ++k) {
    SecondaryIndex* idx = now[k];
    for (size_t r = 0; r < replaced.size(); ++r) {
      idx->Remove(idx->KeyOf(replaced[r].row), pks[replaced_i[r]]);
    }
    for (size_t i : stored) {
      Row key;
      {
        Shard& shard = ShardFor(pks[i]);
        std::unique_lock lock(shard.mu);
        auto it = shard.map.find(pks[i]);
        if (it == shard.map.end()) continue;
        key = idx->KeyOf(it->second.row);
      }
      idx->Add(key, pks[i]);
    }
  }

  // One AddBatch per index; the last index takes the primary keys by move.
  for (size_t k = 0; k < indexes.size(); ++k) {
    SecondaryIndex* idx = indexes[k];
    for (size_t r = 0; r < replaced.size(); ++r) {
      idx->Remove(idx->KeyOf(replaced[r].row), pks[replaced_i[r]]);
    }
    const bool last = k + 1 == indexes.size();
    std::vector<Row> keys;
    std::vector<Row> batch_pks;
    keys.reserve(stored.size());
    batch_pks.reserve(stored.size());
    for (size_t i : stored) {
      keys.push_back(std::move(index_keys[k][i]));
      batch_pks.push_back(last ? std::move(pks[i]) : pks[i]);
    }
    idx->AddBatch(std::move(keys), std::move(batch_pks));
  }
  return stats;
}

void Table::FuzzyScan(const std::function<void(const Record&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::vector<Record> snapshot;
    {
      std::unique_lock lock(shard.mu);
      snapshot.reserve(shard.map.size());
      for (const auto& [key, record] : shard.map) snapshot.push_back(record);
    }
    for (const Record& record : snapshot) fn(record);
  }
}

std::vector<Record> Table::SnapshotShard(size_t shard_index) const {
  std::vector<Record> snapshot;
  if (shard_index >= shards_.size()) return snapshot;
  const Shard& shard = shards_[shard_index];
  std::unique_lock lock(shard.mu);
  snapshot.reserve(shard.map.size());
  for (const auto& [key, record] : shard.map) snapshot.push_back(record);
  return snapshot;
}

void Table::ForEach(const std::function<void(const Record&)>& fn) const {
  // Lock every shard, in index order, for the whole pass. Writers take
  // exactly one shard mutex each and never while holding another, so a
  // fixed acquisition order here cannot deadlock against them (or against a
  // concurrent ForEach, which uses the same order). The default shard count
  // stays below 64 because TSan's deadlock detector aborts when one thread
  // holds 64 mutexes at once.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& shard : shards_) locks.emplace_back(shard.mu);
  for (const Shard& shard : shards_) {
    for (const auto& [key, record] : shard.map) fn(record);
  }
}

size_t Table::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names) {
  MORPH_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                         schema_.IndicesOf(column_names));
  auto index = std::make_unique<SecondaryIndex>(index_name, std::move(cols));
  {
    std::unique_lock lock(indexes_mu_);
    for (const auto& existing : indexes_) {
      if (existing->name() == index_name) {
        return Status::AlreadyExists("index " + index_name + " already exists");
      }
    }
    indexes_.push_back(std::move(index));
  }
  // Backfill. New writers already see the index (it is in indexes_), so a
  // record written during backfill may be added twice; SecondaryIndex::Add
  // deduplicates (key, pk) pairs, making this idempotent.
  SecondaryIndex* idx = GetIndex(index_name);
  FuzzyScan([&](const Record& record) {
    idx->Add(idx->KeyOf(record.row), schema_.KeyOf(record.row));
  });
  return Status::OK();
}

SecondaryIndex* Table::GetIndex(const std::string& index_name) const {
  std::unique_lock lock(indexes_mu_);
  for (const auto& idx : indexes_) {
    if (idx->name() == index_name) return idx.get();
  }
  return nullptr;
}

void Table::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.map.clear();
  }
  std::unique_lock lock(indexes_mu_);
  for (auto& idx : indexes_) idx->Clear();
}

}  // namespace morph::storage
