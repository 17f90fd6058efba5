#pragma once

#include <string>

#include "common/codec.h"
#include "common/io_env.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"

namespace morph::storage {

/// \brief Binary serialization of a table's *contents* (rows plus storage
/// metadata — LSNs, split counters, consistency flags). Schemas are not
/// stored: like the paper's prototype, DDL is not logged, so whoever
/// restores a snapshot recreates the schema first (mirrors
/// engine::Recovery's contract).
///
/// Snapshots are taken with a fuzzy scan, so a snapshot of a live table is
/// transactionally inconsistent by itself; engine::Checkpointer makes it
/// usable by pairing it with the WAL position captured *before* the scan
/// and replaying the suffix with LSN-gated redo. A checkpoint stores its
/// snapshots inside its one file (Encode / Decode); Save and Load put one
/// snapshot in a file of its own.
class TableSnapshot {
 public:
  /// The failpoint sites of snapshot and checkpoint file writes, and the
  /// site of their reads.
  static constexpr IoEnv::AtomicWriteSites kFileSites{
      "engine.checkpoint.file.write", "engine.checkpoint.file.fsync",
      "engine.checkpoint.file.rename", "engine.checkpoint.dirsync"};
  static constexpr const char* kReadSite = "engine.checkpoint.read";

  /// \brief Appends `table`'s current (fuzzily scanned) contents to `out`.
  static void Encode(const Table& table, std::string* out);

  /// \brief Decodes one snapshot at `r` into `table` (which must be empty);
  /// `source` names where the bytes came from in errors.
  static Status Decode(Table* table, codec::Reader* r,
                       const std::string& source);

  /// \brief Writes `table`'s snapshot to `path`, atomically and durably
  /// (IoEnv::WriteFileAtomic): a failure leaves the previous file intact.
  static Status Save(const Table& table, const std::string& path);

  /// \brief Loads the snapshot in `path` into `table` (which must be empty).
  static Status Load(Table* table, const std::string& path);
};

}  // namespace morph::storage
