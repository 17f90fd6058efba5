#pragma once

#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "txn/lock_manager.h"

namespace morph::txn {

/// \brief Where a lock held on a transformed-table record came from.
///
/// During a transformation, the log propagator mirrors source-table locks
/// onto the transformed table ("locks are maintained on records in the
/// transformed tables during the entire transformation", paper §3.3). Since
/// a full-outer-join merges records of two source tables R and S into one
/// record of T, two *non-conflicting* source operations can map to the same
/// T record; the paper's Figure 2 therefore relaxes the compatibility matrix
/// so that source-origin locks never conflict with each other, while they do
/// conflict with locks taken by new transactions running against T.
enum class LockOrigin : uint8_t {
  kSource0 = 0,  ///< R in a FOJ; T in a split
  kSource1 = 1,  ///< S in a FOJ; unused in a split
  kTarget = 2,   ///< a new transaction operating on the transformed table
};

enum class Access : uint8_t { kRead = 0, kWrite = 1 };

/// \brief Lock table for transformed-table records implementing the paper's
/// Figure 2 compatibility matrix.
///
/// Two populations use it:
///  - the log propagator *transfers* source locks with AddTransferred —
///    never blocking, because conflicts among source locks cannot happen by
///    the matrix, and conflicts with target locks are only possible after
///    switch-over under non-blocking commit, where the *target* side is the
///    one made to wait;
///  - new transactions admitted to the transformed table after switch-over
///    acquire target locks with AcquireTarget, which waits (bounded) until
///    conflicting transferred locks are released. Transferred locks are
///    released when the propagator processes the owner's commit/abort log
///    record (ReleaseTxn).
///
/// Thread safety: every method takes `mu_` for its whole critical section.
/// The propagator (coordinator thread) calls AddTransferred and ReleaseTxn,
/// concurrently with client threads running OnOp under non-blocking commit
/// (AddTransferred) and post-switch client threads calling
/// AcquireTarget/ReleaseTxn. AddTransferred's duplicate collapse and
/// held_-list append are a single atomic step under `mu_`, so two threads
/// mirroring locks for the same transaction cannot tear the entry lists;
/// ReleaseTxn wakes AcquireTarget waiters via `cv_` under the same mutex.
class TransformLockTable {
 public:
  explicit TransformLockTable(int64_t wait_timeout_micros = 5'000'000)
      : wait_timeout_micros_(wait_timeout_micros) {}

  TransformLockTable(const TransformLockTable&) = delete;
  TransformLockTable& operator=(const TransformLockTable&) = delete;

  /// \brief Figure 2, generalized: source-origin locks are mutually
  /// compatible; target reads are compatible with source reads and target
  /// reads; target writes are compatible with nothing.
  static bool Compatible(LockOrigin o1, Access a1, LockOrigin o2, Access a2);

  /// \brief Records a lock transferred from a source-table operation.
  /// Never blocks; duplicate (txn, rid, origin, access) entries collapse.
  void AddTransferred(TxnId txn, const RecordId& rid, LockOrigin origin,
                      Access access);

  /// \brief Acquires a target-origin lock for a post-switch-over
  /// transaction. If `wait` is false and the lock conflicts, returns
  /// Status::Busy immediately.
  Status AcquireTarget(TxnId txn, const RecordId& rid, Access access, bool wait);

  /// \brief True if a target-side access to `rid` would conflict with locks
  /// held by transactions other than `self`.
  bool WouldBlockTarget(const RecordId& rid, Access access, TxnId self) const;

  /// \brief For non-blocking *commit* synchronization: true if a source-side
  /// access would conflict with a target-origin lock held by someone else
  /// ("locks must be transferred both from T to R and S and vice versa",
  /// paper §4.3).
  bool WouldBlockSource(const RecordId& rid, Access access, TxnId self) const;

  /// \brief Releases every lock (transferred and target) held by `txn`.
  /// Called by the propagator when it processes the owner's commit/abort
  /// record, and by the engine when a target-side transaction finishes.
  void ReleaseTxn(TxnId txn);

  /// \brief Releases only `txn`'s target-origin locks, leaving transferred
  /// ones in place. Used while a staggered transformation is partially
  /// migrated: a finishing transaction may hold target locks (migrated
  /// tablets, released here) *and* mirrored source locks (unmigrated
  /// tablets, which must survive until the propagator has applied all its
  /// ops and processes its completion record).
  void ReleaseTxnTargetLocks(TxnId txn);

  /// \brief Number of distinct (txn, record) lock entries held.
  size_t num_locks() const;

  /// \brief Drops all state (end of transformation).
  void Clear();

 private:
  struct Entry {
    TxnId txn;
    LockOrigin origin;
    Access access;
  };

  bool ConflictsLocked(const RecordId& rid, TxnId self, LockOrigin origin,
                       Access access) const;

  int64_t wait_timeout_micros_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<RecordId, std::vector<Entry>, RecordIdHasher> table_;
  std::unordered_map<TxnId, std::vector<RecordId>> held_;
};

}  // namespace morph::txn
