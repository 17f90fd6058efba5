#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "txn/transaction.h"
#include "wal/wal.h"

namespace morph::txn {

/// \brief Snapshot of the active-transaction table, written into fuzzy
/// marks (paper §3.2: the fuzzy mark "must include the transaction
/// identifiers of all transactions that are active on the source tables").
struct ActiveSnapshot {
  std::vector<TxnId> txns;
  /// Per-transaction undo-chain heads, parallel to `txns` (checkpoints
  /// store them so a loser with no post-checkpoint records can still be
  /// rolled back from the right place).
  std::vector<Lsn> last_lsns;
  /// Oldest BEGIN LSN among the active transactions; kInvalidLsn if none.
  /// Log propagation's first iteration starts here (paper §3.3).
  Lsn min_first_lsn = kInvalidLsn;
};

/// \brief Allocates transaction ids, tracks the active-transaction table and
/// writes the transaction-lifecycle log records.
///
/// Data operations (insert/update/delete + undo with CLRs) are logged by the
/// engine layer, which owns the storage the records live in; this class owns
/// only identity and lifecycle.
class TransactionManager {
 public:
  explicit TransactionManager(wal::Wal* wal) : wal_(wal) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// \brief Starts a transaction: assigns the next id, logs BEGIN, and
  /// registers it in the active table. The epoch is read from
  /// `epoch_source` (0 when null) under the same mutex that registers the
  /// transaction and that ActiveBefore takes, so a Begin racing an epoch
  /// advance either reads the new epoch or is registered in time for
  /// ActiveBefore(new epoch) to see it — it can never run with an old
  /// epoch unseen by a switch-over's drain.
  std::shared_ptr<Transaction> Begin(
      const std::atomic<TxnEpoch>* epoch_source = nullptr);

  /// \brief Logs COMMIT and removes the transaction from the active table.
  /// The caller is responsible for releasing its locks afterwards (strict
  /// 2PL: locks are held past the commit record).
  Status Commit(const std::shared_ptr<Transaction>& t);

  /// \brief Logs ABORT and flips the state to kAborting. The engine then
  /// performs the undo pass (writing CLRs) and finishes with EndAbort.
  Status BeginAbort(const std::shared_ptr<Transaction>& t);

  /// \brief Logs TXN_END after the undo pass and removes the transaction
  /// from the active table.
  Status EndAbort(const std::shared_ptr<Transaction>& t);

  /// \brief Lookup by id; nullptr if unknown (already forgotten).
  std::shared_ptr<Transaction> Find(TxnId id) const;

  /// \brief Snapshot of currently active transactions for a fuzzy mark.
  ActiveSnapshot Snapshot() const;

  /// \brief Active transactions whose epoch is strictly less than `epoch`
  /// (used at switch-over to find the pre-switch stragglers).
  std::vector<std::shared_ptr<Transaction>> ActiveBefore(TxnEpoch epoch) const;

  size_t num_active() const;

 private:
  wal::Wal* wal_;
  mutable std::mutex mu_;
  TxnId next_id_ = 1;
  std::unordered_map<TxnId, std::shared_ptr<Transaction>> active_;
};

}  // namespace morph::txn
