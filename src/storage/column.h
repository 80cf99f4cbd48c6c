#ifndef MLCS_STORAGE_COLUMN_H_
#define MLCS_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "types/data_type.h"
#include "types/value.h"

namespace mlcs {

class Column;
using ColumnPtr = std::shared_ptr<Column>;

/// Physical representation of a column's payload (DESIGN.md §13). The
/// logical contents — type(), size(), GetValue(), null pattern — are
/// identical across encodings; only the bytes behind them differ.
enum class ColumnEncoding : uint8_t {
  kPlain = 0,  ///< typed vector, one slot per row
  kDict = 1,   ///< dense uint32 codes into a sorted unique-value dictionary
};

/// A single column: contiguous typed vector plus an optional validity
/// (null) vector. This is the unit the vectorized engine and the UDFs
/// operate on — MonetDB-style full-column-at-a-time, which is exactly the
/// "vectorized UDF" granularity the paper leverages.
///
/// Physical layouts (kPlain):
///   BOOL            -> std::vector<uint8_t> (0/1)
///   INTEGER         -> std::vector<int32_t>
///   BIGINT          -> std::vector<int64_t>
///   DOUBLE          -> std::vector<double>
///   VARCHAR / BLOB  -> std::vector<std::string>
///
/// The encoded layout holds the payload compressed instead of in the
/// typed vector (which stays empty):
///   kDict -> codes() (uint32 per row) + dict() (plain column of unique
///            non-null values; null rows carry code 0 and are never
///            dereferenced — IsNull() decides first)
///
/// Contract: every logical operation (GetValue, Take, Slice, AppendColumn,
/// Equals, CastTo, ToDoubleVector, Serialize) works on any encoding and
/// returns logically identical results; Decode()/EnsurePlain() is the
/// always-available fallback. The typed raw accessors (`i32_data()` …) are
/// only meaningful on plain columns — hot paths that use them must either
/// check encoding() or sit behind one of the decode boundaries
/// (storage/encoding.h).
class Column {
 public:
  explicit Column(TypeId type);

  static ColumnPtr Make(TypeId type) { return std::make_shared<Column>(type); }

  /// A column of `count` copies of `v` (used to broadcast scalars into the
  /// vectorized kernels). NULL values produce an all-null column.
  static ColumnPtr Constant(const Value& v, size_t count);

  /// Builds a column from typed data in one move (zero extra copies).
  static ColumnPtr FromInt32(std::vector<int32_t> data);
  static ColumnPtr FromInt64(std::vector<int64_t> data);
  static ColumnPtr FromDouble(std::vector<double> data);
  static ColumnPtr FromBool(std::vector<uint8_t> data);
  static ColumnPtr FromStrings(std::vector<std::string> data,
                               TypeId type = TypeId::kVarchar);

  /// -- Encoded construction ------------------------------------------------
  /// Builds a dictionary-encoded column: `dict` must be a plain, null-free
  /// column of distinct values of `type`; every code of a non-null row must
  /// index into it (null rows' codes are normalized to 0). `validity`
  /// follows the plain-column convention (empty = all valid). Whether the
  /// dictionary is sorted ascending is detected here and exposed through
  /// dict_sorted() — range predicates on codes require it.
  static Result<ColumnPtr> MakeDictionary(TypeId type,
                                          std::vector<uint32_t> codes,
                                          ColumnPtr dict,
                                          std::vector<uint8_t> validity = {});

  TypeId type() const { return type_; }
  size_t size() const;

  ColumnEncoding encoding() const { return encoding_; }
  bool is_encoded() const { return encoding_ != ColumnEncoding::kPlain; }

  /// -- Encoded raw access (code-aware kernel fast paths) -------------------
  const std::vector<uint32_t>& codes() const { return codes_; }
  const ColumnPtr& dict() const { return dict_; }
  bool dict_sorted() const { return dict_sorted_; }

  /// A plain deep copy with identical logical contents (the decode
  /// fallback; counts one mlcs.encode.decode_events). Returns a copy even
  /// when already plain.
  [[nodiscard]] ColumnPtr Decode() const;
  /// In-place decode; no-op on plain columns. Mutating entry points call
  /// this so in-place appends always see the typed vector.
  void EnsurePlain();

  /// -- Null handling ------------------------------------------------------
  /// The validity vector is allocated lazily; a column with no nulls keeps
  /// it empty so the common all-valid path costs nothing.
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }
  [[nodiscard]] bool IsNull(size_t row) const {
    return !validity_.empty() && validity_[row] == 0;
  }
  void SetNull(size_t row);
  /// Raw validity bytes (1 = valid), nullptr when all rows are valid.
  /// Branchless selection loops read this instead of calling IsNull per row.
  const uint8_t* validity_data() const {
    return validity_.empty() ? nullptr : validity_.data();
  }

  /// -- Typed raw access (hot paths; plain columns only) --------------------
  std::vector<uint8_t>& bool_data() { return std::get<kBoolIdx>(data_); }
  const std::vector<uint8_t>& bool_data() const {
    return std::get<kBoolIdx>(data_);
  }
  std::vector<int32_t>& i32_data() { return std::get<kI32Idx>(data_); }
  const std::vector<int32_t>& i32_data() const {
    return std::get<kI32Idx>(data_);
  }
  std::vector<int64_t>& i64_data() { return std::get<kI64Idx>(data_); }
  const std::vector<int64_t>& i64_data() const {
    return std::get<kI64Idx>(data_);
  }
  std::vector<double>& f64_data() { return std::get<kF64Idx>(data_); }
  const std::vector<double>& f64_data() const {
    return std::get<kF64Idx>(data_);
  }
  std::vector<std::string>& str_data() { return std::get<kStrIdx>(data_); }
  const std::vector<std::string>& str_data() const {
    return std::get<kStrIdx>(data_);
  }

  /// -- Appending ----------------------------------------------------------
  void Reserve(size_t capacity);
  void AppendBool(bool v) {
    if (encoding_ != ColumnEncoding::kPlain) EnsurePlain();
    std::get<kBoolIdx>(data_).push_back(v ? 1 : 0);
    MarkAppendedValid();
  }
  void AppendInt32(int32_t v) {
    if (encoding_ != ColumnEncoding::kPlain) EnsurePlain();
    std::get<kI32Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendInt64(int64_t v) {
    if (encoding_ != ColumnEncoding::kPlain) EnsurePlain();
    std::get<kI64Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendDouble(double v) {
    if (encoding_ != ColumnEncoding::kPlain) EnsurePlain();
    std::get<kF64Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendString(std::string v) {
    if (encoding_ != ColumnEncoding::kPlain) EnsurePlain();
    std::get<kStrIdx>(data_).push_back(std::move(v));
    MarkAppendedValid();
  }
  void AppendNull();
  /// Type-checked append of a Value (casts numerics when lossless).
  Status AppendValue(const Value& v);
  /// Appends all rows of `other` (must have the same type). Appending an
  /// encoded column to an empty plain column adopts its encoding; two
  /// dictionary columns over the same (or equal) dictionary concatenate
  /// codes; any other mix decodes.
  Status AppendColumn(const Column& other);

  /// -- Row access (boundaries, tests, protocols) --------------------------
  /// ValueAt(row) after checking that row < size().
  Result<Value> GetValue(size_t row) const;
  /// The value of `row`, unchecked: requires row < size().
  Value ValueAt(size_t row) const;

  /// -- Bulk transforms ----------------------------------------------------
  /// Element-wise cast; NULLs are preserved.
  Result<ColumnPtr> CastTo(TypeId target) const;
  /// Gather: out[i] = this[indices[i]]. Dictionary columns gather codes and
  /// share the dictionary.
  [[nodiscard]] ColumnPtr Take(const std::vector<uint32_t>& indices) const;
  /// Pointer-range gather over indices[0, count). Lets morsel-parallel
  /// operators gather disjoint pieces of one selection vector without
  /// copying it per morsel.
  [[nodiscard]] ColumnPtr Take(const uint32_t* indices, size_t count) const;
  /// Contiguous sub-range copy. Dictionary slices share the dictionary.
  [[nodiscard]] ColumnPtr Slice(size_t offset, size_t length) const;
  /// Numeric column as doubles (ML ingestion). NULLs become NaN.
  Result<std::vector<double>> ToDoubleVector() const;

  /// Payload bytes this column holds — the data-movement footprint the
  /// scan bytes-touched accounting reads. Plain: fixed-width element bytes
  /// (or summed string lengths) plus the validity vector. Dictionary:
  /// codes at their packed width (1/2/4 bytes by dictionary size, the
  /// width Serialize writes) plus the dictionary itself.
  [[nodiscard]] size_t ByteSize() const;

  [[nodiscard]] bool Equals(const Column& other) const;

  void Serialize(ByteWriter* writer) const;
  static Result<ColumnPtr> Deserialize(ByteReader* reader);

 private:
  static constexpr size_t kBoolIdx = 0;
  static constexpr size_t kI32Idx = 1;
  static constexpr size_t kI64Idx = 2;
  static constexpr size_t kF64Idx = 3;
  static constexpr size_t kStrIdx = 4;

  /// Serialized-form tag bits OR'ed onto the type byte (plain columns keep
  /// the bare type byte, so pre-encoding payloads still load). Any other
  /// tag byte, such as the retired run-length tag 0xA0 + type, is a
  /// ParseError.
  static constexpr uint8_t kDictTagBase = 0x80;

  /// Deserialize's plain form, after its tag byte has been read.
  static Result<ColumnPtr> DeserializePlain(uint8_t type_byte,
                                            ByteReader* reader);

  /// Bytes per serialized code, by dictionary size.
  size_t CodeWidth() const;

  void EnsureValidity();
  /// Raw payload equality for plain null-free columns (dictionaries):
  /// compares the backing vectors directly instead of boxing every row
  /// into a Value like Equals — AppendColumn checks dictionary
  /// compatibility once per appended block, on the scan hot path.
  bool PlainPayloadEquals(const Column& other) const {
    return type_ == other.type_ && data_ == other.data_;
  }
  /// Keeps the lazily-allocated validity vector aligned after any append of
  /// a non-null value.
  void MarkAppendedValid() {
    if (!validity_.empty()) validity_.push_back(1);
  }

  TypeId type_;
  std::variant<std::vector<uint8_t>, std::vector<int32_t>,
               std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  /// 1 = valid, 0 = null. Empty means "all valid". Always per logical row,
  /// whatever the encoding.
  std::vector<uint8_t> validity_;
  size_t null_count_ = 0;

  ColumnEncoding encoding_ = ColumnEncoding::kPlain;
  // kDict state (empty/null otherwise). dict_ is shared across Take/Slice
  // results and is never mutated through this column (mutation paths call
  // EnsurePlain first).
  std::vector<uint32_t> codes_;
  ColumnPtr dict_;
  bool dict_sorted_ = false;
};

}  // namespace mlcs

#endif  // MLCS_STORAGE_COLUMN_H_
