#include "storage/index.h"

#include <algorithm>
#include <utility>

namespace morph::storage {

template <typename K, typename P>
void SecondaryIndex::AddLocked(K&& index_key, P&& pk) {
  auto [it, fresh] = map_.try_emplace(std::forward<K>(index_key));
  auto& pks = it->second;
  if (!fresh && std::find(pks.begin(), pks.end(), pk) != pks.end()) return;
  pks.push_back(std::forward<P>(pk));
}

void SecondaryIndex::Add(const Row& index_key, const Row& pk) {
  std::unique_lock lock(mu_);
  AddLocked(index_key, pk);
}

void SecondaryIndex::AddBatch(std::vector<Row> keys, std::vector<Row> pks) {
  std::unique_lock lock(mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    AddLocked(std::move(keys[i]), std::move(pks[i]));
  }
}

void SecondaryIndex::Reserve(size_t n) {
  std::unique_lock lock(mu_);
  if (map_.bucket_count() * map_.max_load_factor() < n) map_.reserve(n);
}

void SecondaryIndex::Remove(const Row& index_key, const Row& pk) {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  if (it == map_.end()) return;
  auto& pks = it->second;
  pks.erase(std::remove(pks.begin(), pks.end(), pk), pks.end());
  if (pks.empty()) map_.erase(it);
}

std::vector<Row> SecondaryIndex::Lookup(const Row& index_key) const {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  if (it == map_.end()) return {};
  return it->second;
}

size_t SecondaryIndex::Count(const Row& index_key) const {
  std::unique_lock lock(mu_);
  auto it = map_.find(index_key);
  return it == map_.end() ? 0 : it->second.size();
}

size_t SecondaryIndex::num_entries() const {
  std::unique_lock lock(mu_);
  size_t n = 0;
  for (const auto& [key, pks] : map_) n += pks.size();
  return n;
}

void SecondaryIndex::Clear() {
  std::unique_lock lock(mu_);
  map_.clear();
}

}  // namespace morph::storage
