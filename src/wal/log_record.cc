#include "wal/log_record.h"

#include "common/codec.h"

namespace morph::wal {

std::string_view LogRecordTypeToString(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBegin:
      return "BEGIN";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kTxnEnd:
      return "TXN_END";
    case LogRecordType::kInsert:
      return "INSERT";
    case LogRecordType::kDelete:
      return "DELETE";
    case LogRecordType::kUpdate:
      return "UPDATE";
    case LogRecordType::kClr:
      return "CLR";
    case LogRecordType::kFuzzyMark:
      return "FUZZY_MARK";
    case LogRecordType::kCcBegin:
      return "CC_BEGIN";
    case LogRecordType::kCcOk:
      return "CC_OK";
  }
  return "UNKNOWN";
}

using codec::Reader;
using codec::PutRow;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::PutValue;

void LogRecord::EncodeTo(std::string* out) const {
  PutU64(out, lsn);
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, txn_id);
  PutU64(out, prev_lsn);
  PutU32(out, table_id);
  PutRow(out, key);
  PutRow(out, before);
  PutRow(out, after);
  PutU32(out, static_cast<uint32_t>(updated_columns.size()));
  for (uint32_t c : updated_columns) PutU32(out, c);
  for (const Value& v : before_values) PutValue(out, v);
  for (const Value& v : after_values) PutValue(out, v);
  PutU64(out, undo_next_lsn);
  PutU8(out, static_cast<uint8_t>(clr_action));
  PutU32(out, static_cast<uint32_t>(active_txns.size()));
  for (TxnId t : active_txns) PutU64(out, t);
  PutU64(out, min_active_lsn);
}

Result<LogRecord> LogRecord::Decode(std::string_view data, size_t* offset) {
  Reader r{data, *offset, false};
  LogRecord rec;
  rec.lsn = r.GetU64();
  rec.type = static_cast<LogRecordType>(r.GetU8());
  rec.txn_id = r.GetU64();
  rec.prev_lsn = r.GetU64();
  rec.table_id = r.GetU32();
  rec.key = r.GetRow();
  rec.before = r.GetRow();
  rec.after = r.GetRow();
  const uint32_t nupd = r.GetU32();
  rec.updated_columns.reserve(nupd);
  for (uint32_t i = 0; i < nupd; ++i) rec.updated_columns.push_back(r.GetU32());
  rec.before_values.reserve(nupd);
  for (uint32_t i = 0; i < nupd; ++i) rec.before_values.push_back(r.GetValue());
  rec.after_values.reserve(nupd);
  for (uint32_t i = 0; i < nupd; ++i) rec.after_values.push_back(r.GetValue());
  rec.undo_next_lsn = r.GetU64();
  rec.clr_action = static_cast<ClrAction>(r.GetU8());
  const uint32_t nact = r.GetU32();
  rec.active_txns.reserve(nact);
  for (uint32_t i = 0; i < nact; ++i) rec.active_txns.push_back(r.GetU64());
  rec.min_active_lsn = r.GetU64();
  if (r.failed) return Status::Corruption("truncated log record");
  *offset = r.pos;
  return rec;
}

std::string LogRecord::ToString() const {
  std::string out = "[";
  out += std::to_string(lsn);
  out += "] ";
  out += LogRecordTypeToString(type);
  out += " txn=" + std::to_string(txn_id);
  if (table_id != kInvalidTableId) out += " tbl=" + std::to_string(table_id);
  if (!key.empty()) out += " key=" + key.ToString();
  switch (type) {
    case LogRecordType::kInsert:
      out += " after=" + after.ToString();
      break;
    case LogRecordType::kDelete:
      out += " before=" + before.ToString();
      break;
    case LogRecordType::kUpdate: {
      out += " set{";
      for (size_t i = 0; i < updated_columns.size(); ++i) {
        if (i) out += ", ";
        out += '#';
        out += std::to_string(updated_columns[i]);
        out += '=';
        out += after_values[i].ToString();
      }
      out += "}";
      break;
    }
    case LogRecordType::kFuzzyMark:
      out += " active=" + std::to_string(active_txns.size()) +
             " min_lsn=" + std::to_string(min_active_lsn);
      break;
    default:
      break;
  }
  return out;
}

}  // namespace morph::wal
