#ifndef MLCS_COMMON_BYTE_BUFFER_H_
#define MLCS_COMMON_BYTE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mlcs {

/// Append-only little-endian binary writer. Shared by model serialization
/// ("pickle"), the wire protocols, and the on-disk file formats.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Fixed-width primitives, written little-endian (the host is assumed
  /// little-endian; static_assert'ed in byte_buffer.cc).
  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU16(uint16_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteRaw(s.data(), s.size());
  }

  /// Raw bytes with no length prefix.
  // GCC 12 constant-propagates small fixed-size writes through this
  // resize+memcpy when it inlines into a caller (notably at -O3 under
  // -fsanitize=thread) and reports bogus -Wstringop-overflow /
  // -Warray-bounds against libstdc++'s own vector internals — a known
  // GCC 12 false-positive class (DESIGN.md §7). The repo builds -Werror,
  // so suppress the pair for exactly this function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Warray-bounds"
  void WriteRaw(const void* data, size_t size) {
    if (size == 0) return;
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + size);
    std::memcpy(buffer_.data() + old_size, data, size);
  }
#pragma GCC diagnostic pop

  /// Appends `size` bytes for the caller to write in place and returns a
  /// pointer to the first, valid until the next write. An encoder sizes a
  /// whole record's worst case once, writes through the pointer, then
  /// Truncates the unwritten tail.
  uint8_t* Extend(size_t size) {
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + size);
    return buffer_.data() + old_size;
  }

  /// Variable-length unsigned integer (LEB128); compact counts in formats.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      WriteU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    WriteU8(static_cast<uint8_t>(v));
  }

  /// Overwrites the 4 bytes at `offset`, which an earlier WriteU32 wrote:
  /// a length prefix filled in once the bytes it counts are written.
  /// Requires offset + 4 <= size().
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(buffer_.data() + offset, &v, sizeof(v));
  }

  /// Drops every byte from `size` on (requires size <= size()), keeping
  /// the capacity.
  void Truncate(size_t size) {
    buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(size),
                  buffer_.end());
  }

  /// Empties the writer but keeps its capacity, so a writer reused for
  /// one frame after another allocates only for the largest.
  void Clear() { buffer_.clear(); }

  const std::vector<uint8_t>& data() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

  /// Moves the accumulated bytes out as a std::string (BLOB payload).
  std::string TakeString() {
    std::string out(reinterpret_cast<const char*>(buffer_.data()),
                    buffer_.size());
    buffer_.clear();
    return out;
  }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked little-endian reader over a borrowed byte span.
/// All reads return Status/Result; truncated input is reported as
/// kOutOfRange, never UB.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::string& s) : ByteReader(s.data(), s.size()) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : ByteReader(v.data(), v.size()) {}

  size_t position() const { return pos_; }
  /// The next unread byte. A decoder that bounds-checks a whole record
  /// against remaining() once reads it from here, then Skips past it.
  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == size_; }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<uint64_t> ReadVarint();
  /// Reads a varint element count that sizes an allocation. A ParseError
  /// when `count` elements of at least `min_element_bytes` each (0 counts
  /// as 1) cannot fit in the remaining input, so a corrupt count never
  /// sizes an allocation beyond the input itself. `what` names the
  /// elements in the error.
  Result<uint64_t> ReadCount(size_t min_element_bytes, const char* what);

  /// Copies `size` bytes into `out`.
  Status ReadRaw(void* out, size_t size);
  /// Advances without copying.
  Status Skip(size_t size);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_BYTE_BUFFER_H_
