#pragma once

#include <optional>
#include <vector>

#include "common/row.h"
#include "common/types.h"
#include "wal/log_record.h"

namespace morph::transform {

/// \brief A data operation distilled from the log, as seen by the
/// propagation rules.
///
/// CLRs are normalized into the inverse operation they physically perform
/// (undo-insert → delete, undo-delete → insert, undo-update → update), so
/// the operator rules never special-case rollback: redoing a transaction's
/// forward records followed by its CLRs leaves the transformed tables
/// exactly compensated, as the ARIES discipline guarantees.
enum class OpType : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };

struct Op {
  OpType type = OpType::kInsert;
  Lsn lsn = kInvalidLsn;
  TxnId txn_id = kInvalidTxnId;
  TableId table_id = kInvalidTableId;
  /// Primary key of the affected source record (all types).
  Row key;
  /// kInsert: the full new image.
  Row after;
  /// kDelete: the full old image (the engine logs it for undo; the
  /// propagation rules only *need* the key plus — for splits — the split
  /// attribute, matching the paper's minimal-information assumption).
  Row before;
  /// kUpdate: changed columns with old and new values (parallel vectors).
  /// Deliberately partial — rules 5/6/11 reconstruct unlogged attributes
  /// from the transformed tables.
  std::vector<uint32_t> updated_columns;
  std::vector<Value> before_values;
  std::vector<Value> after_values;

  /// \brief Distills a log record into an Op; nullopt for non-data records.
  /// The caller filters by source table (OperatorRules::Sources()).
  static std::optional<Op> FromLogRecord(const wal::LogRecord& rec);

  /// \brief True if `column` is among updated_columns; when true,
  /// `*before_out` / `*after_out` receive the old/new values.
  bool UpdatesColumn(size_t column, Value* before_out = nullptr,
                     Value* after_out = nullptr) const;
};

}  // namespace morph::transform
