#include "storage/snapshot.h"

namespace morph::storage {

namespace {
constexpr uint32_t kMagic = 0x4d534e50;  // "MSNP"
}

void TableSnapshot::Encode(const Table& table, std::string* out) {
  codec::PutU32(out, kMagic);
  // Record count patched in after the scan (fuzzy: size() is advisory).
  const size_t count_pos = out->size();
  codec::PutU64(out, 0);
  uint64_t count = 0;
  table.FuzzyScan([&](const Record& rec) {
    codec::PutRow(out, rec.row);
    codec::PutU64(out, rec.lsn);
    codec::PutI64(out, rec.counter);
    codec::PutU8(out, rec.consistent ? 1 : 0);
    count++;
  });
  std::string count_bytes;
  codec::PutU64(&count_bytes, count);
  out->replace(count_pos, count_bytes.size(), count_bytes);
}

Status TableSnapshot::Decode(Table* table, codec::Reader* r,
                             const std::string& source) {
  if (r->GetU32() != kMagic) {
    return Status::Corruption("bad snapshot magic in " + source);
  }
  const uint64_t count = r->GetU64();
  for (uint64_t i = 0; i < count; ++i) {
    Record rec;
    rec.row = r->GetRow();
    rec.lsn = r->GetU64();
    rec.counter = r->GetI64();
    rec.consistent = r->GetU8() != 0;
    if (r->failed) break;
    MORPH_RETURN_NOT_OK(table->Insert(std::move(rec)));
  }
  if (r->failed) return Status::Corruption("truncated snapshot " + source);
  return Status::OK();
}

Status TableSnapshot::Save(const Table& table, const std::string& path) {
  std::string buf;
  Encode(table, &buf);
  return IoEnv::Default().WriteFileAtomic(path, buf, kFileSites);
}

Status TableSnapshot::Load(Table* table, const std::string& path) {
  MORPH_ASSIGN_OR_RETURN(const std::string buf,
                         IoEnv::Default().ReadFile(path, kReadSite));
  codec::Reader r{buf, 0, false};
  MORPH_RETURN_NOT_OK(Decode(table, &r, path));
  if (r.pos != buf.size()) {
    return Status::Corruption("truncated snapshot " + path);
  }
  return Status::OK();
}

}  // namespace morph::storage
