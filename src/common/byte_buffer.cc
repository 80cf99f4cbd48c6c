#include "common/byte_buffer.h"

#include <algorithm>
#include <bit>

namespace mlcs {

static_assert(std::endian::native == std::endian::little,
              "mlcs serialization assumes a little-endian host");

namespace {
Status Truncated(const char* what) {
  return Status::OutOfRange(std::string("truncated input while reading ") +
                            what);
}
}  // namespace

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Truncated("u8");
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  uint16_t v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  uint32_t v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  uint64_t v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<int32_t> ByteReader::ReadI32() {
  int32_t v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  int64_t v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<double> ByteReader::ReadDouble() {
  double v = 0;
  MLCS_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<bool> ByteReader::ReadBool() {
  MLCS_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  return v != 0;
}

Result<std::string> ByteReader::ReadString() {
  MLCS_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (remaining() < len) return Truncated("string body");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) return Status::ParseError("varint too long");
    MLCS_ASSIGN_OR_RETURN(uint8_t byte, ReadU8());
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<uint64_t> ByteReader::ReadCount(size_t min_element_bytes,
                                       const char* what) {
  MLCS_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
  if (count > remaining() / std::max<size_t>(min_element_bytes, 1)) {
    return Status::ParseError(std::string(what) +
                              " count exceeds the remaining input");
  }
  return count;
}

Status ByteReader::ReadRaw(void* out, size_t size) {
  if (remaining() < size) return Truncated("raw bytes");
  // `out` may be null for a zero-length read (e.g. an empty column's
  // data pointer); memcpy's arguments must be non-null even then.
  if (size > 0) {
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }
  return Status::OK();
}

Status ByteReader::Skip(size_t size) {
  if (remaining() < size) return Truncated("skip");
  pos_ += size;
  return Status::OK();
}

}  // namespace mlcs
