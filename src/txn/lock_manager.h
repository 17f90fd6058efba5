#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "common/types.h"

namespace morph::txn {

/// \brief Identity of a lockable record: table plus primary-key value.
struct RecordId {
  TableId table = kInvalidTableId;
  Row key;

  bool operator==(const RecordId& other) const {
    return table == other.table && key == other.key;
  }

  std::string ToString() const {
    std::string out = "t";
    out += std::to_string(table);
    out += key.ToString();
    return out;
  }
};

struct RecordIdHasher {
  size_t operator()(const RecordId& rid) const {
    return rid.key.Hash() * 1000003ULL ^ rid.table;
  }
};

/// \brief Lock modes. Records use kShared/kExclusive — the engine's writes
/// always take exclusive locks (the paper's propagation rules assume "all
/// write operations on the source tables use exclusive locks; delta updates
/// are not allowed", §4.2). Tables additionally use the multigranularity
/// intention modes (the extension the paper's §4.3 notes "can easily" be
/// made): kIntentionShared / kIntentionExclusive announce record-level
/// activity, so a table-granularity kShared/kExclusive can coexist with or
/// exclude it by the classic matrix:
///
///           IS   IX   S    X
///   IS      ✓    ✓    ✓    ✗
///   IX      ✓    ✓    ✗    ✗
///   S       ✓    ✗    ✓    ✗
///   X       ✗    ✗    ✗    ✗
enum class LockMode : uint8_t {
  kIntentionShared = 0,
  kIntentionExclusive = 1,
  kShared = 2,
  kExclusive = 3,
};

/// \brief True if two holders in the given modes may coexist.
bool LockModesCompatible(LockMode a, LockMode b);

/// \brief Strict two-phase record lock manager with wait-die deadlock
/// avoidance.
///
/// Transactions acquire record locks as they touch records and release
/// everything at commit/abort via ReleaseAll. Wait-die uses the transaction
/// id as the timestamp (lower id = older): an older requester waits for a
/// conflicting holder; a younger requester "dies" and gets
/// Status::Deadlock, which the engine surfaces as a transaction abort the
/// client may retry. A configurable wait timeout (default 5 s) is a
/// belt-and-braces backstop; hitting it returns Status::Busy.
class LockManager {
 public:
  explicit LockManager(int64_t wait_timeout_micros = 5'000'000)
      : wait_timeout_micros_(wait_timeout_micros) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// \brief Acquires (or upgrades to) `mode` on `rid` for `txn`.
  ///
  /// Re-entrant: holding a mode that covers the request satisfies it
  /// (kExclusive ⊇ all, kShared ⊇ kIntentionShared, kIntentionExclusive ⊇
  /// kIntentionShared); an upgrade is granted when compatible with the
  /// other holders, and otherwise follows wait-die.
  ///
  /// Table-granularity locks use a RecordId with an empty key row; the
  /// engine acquires intention locks there before record locks when
  /// multigranularity locking is enabled (DatabaseOptions).
  Status Acquire(TxnId txn, const RecordId& rid, LockMode mode);

  /// \brief The table-granularity lock id for `table`.
  static RecordId TableLockId(TableId table) { return RecordId{table, Row()}; }

  /// \brief Releases every lock held by `txn` and wakes waiters.
  void ReleaseAll(TxnId txn);

  /// \brief Test/introspection helper: does `txn` hold `rid` in at least
  /// `mode`?
  bool Holds(TxnId txn, const RecordId& rid, LockMode mode) const;

  /// \brief Snapshot of the record ids currently locked by `txn`.
  std::vector<RecordId> LocksOf(TxnId txn) const;

  /// \brief Total number of held (granted) locks, across all transactions.
  size_t num_locks() const;

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  struct LockQueue {
    std::vector<Holder> holders;
    // Waiters block on the manager-wide condition variable; a queue version
    // counter avoids missed wakeups.
    uint64_t version = 0;
    int waiters = 0;
  };

  /// True if a holder in `q` other than `txn` conflicts with `mode`.
  static bool Conflicts(const LockQueue& q, TxnId txn, LockMode mode);
  /// True if any conflicting holder is *older* (smaller id) than `txn`.
  static bool ShouldDie(const LockQueue& q, TxnId txn, LockMode mode);

  int64_t wait_timeout_micros_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<RecordId, LockQueue, RecordIdHasher> table_;
  std::unordered_map<TxnId, std::vector<RecordId>> held_;
};

}  // namespace morph::txn
