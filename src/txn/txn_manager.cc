#include "txn/txn_manager.h"

namespace morph::txn {

std::string_view TxnStateToString(TxnState state) {
  switch (state) {
    case TxnState::kActive:
      return "ACTIVE";
    case TxnState::kAborting:
      return "ABORTING";
    case TxnState::kCommitted:
      return "COMMITTED";
    case TxnState::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

std::shared_ptr<Transaction> TransactionManager::Begin(
    const std::atomic<TxnEpoch>* epoch_source) {
  std::unique_lock lock(mu_);
  const TxnId id = next_id_++;
  lock.unlock();

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kBegin;
  rec.txn_id = id;
  const Lsn lsn = wal_->Append(std::move(rec));

  auto t = std::make_shared<Transaction>(id, lsn);
  lock.lock();
  // Epoch read and registration are one step under mu_: an advance that
  // happened before an ActiveBefore scan is visible here, and a Begin that
  // read the old epoch is already in active_ when that scan runs.
  if (epoch_source != nullptr) {
    t->set_epoch(epoch_source->load(std::memory_order_acquire));
  }
  active_[id] = t;
  return t;
}

Status TransactionManager::Commit(const std::shared_ptr<Transaction>& t) {
  if (t->state() != TxnState::kActive) {
    return Status::InvalidArgument("commit of non-active transaction " +
                                   std::to_string(t->id()));
  }
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCommit;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  t->set_last_lsn(wal_->Append(std::move(rec)));
  t->set_state(TxnState::kCommitted);
  std::unique_lock lock(mu_);
  active_.erase(t->id());
  return Status::OK();
}

Status TransactionManager::BeginAbort(const std::shared_ptr<Transaction>& t) {
  if (t->state() != TxnState::kActive) {
    return Status::InvalidArgument("abort of non-active transaction " +
                                   std::to_string(t->id()));
  }
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kAbort;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  t->set_last_lsn(wal_->Append(std::move(rec)));
  t->set_state(TxnState::kAborting);
  return Status::OK();
}

Status TransactionManager::EndAbort(const std::shared_ptr<Transaction>& t) {
  if (t->state() != TxnState::kAborting) {
    return Status::InvalidArgument("EndAbort of transaction not aborting: " +
                                   std::to_string(t->id()));
  }
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kTxnEnd;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn();
  t->set_last_lsn(wal_->Append(std::move(rec)));
  t->set_state(TxnState::kAborted);
  std::unique_lock lock(mu_);
  active_.erase(t->id());
  return Status::OK();
}

std::shared_ptr<Transaction> TransactionManager::Find(TxnId id) const {
  std::unique_lock lock(mu_);
  auto it = active_.find(id);
  return it == active_.end() ? nullptr : it->second;
}

ActiveSnapshot TransactionManager::Snapshot() const {
  std::unique_lock lock(mu_);
  ActiveSnapshot snap;
  snap.txns.reserve(active_.size());
  for (const auto& [id, t] : active_) {
    snap.txns.push_back(id);
    snap.last_lsns.push_back(t->last_lsn());
    if (snap.min_first_lsn == kInvalidLsn || t->first_lsn() < snap.min_first_lsn) {
      snap.min_first_lsn = t->first_lsn();
    }
  }
  return snap;
}

std::vector<std::shared_ptr<Transaction>> TransactionManager::ActiveBefore(
    TxnEpoch epoch) const {
  std::unique_lock lock(mu_);
  std::vector<std::shared_ptr<Transaction>> out;
  for (const auto& [id, t] : active_) {
    if (t->epoch() < epoch) out.push_back(t);
  }
  return out;
}

size_t TransactionManager::num_active() const {
  std::unique_lock lock(mu_);
  return active_.size();
}

}  // namespace morph::txn
