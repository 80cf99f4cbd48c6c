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

/// A single column: contiguous typed vector plus an optional validity
/// (null) vector. This is the unit the vectorized engine and the UDFs
/// operate on — MonetDB-style full-column-at-a-time, which is exactly the
/// "vectorized UDF" granularity the paper leverages.
///
/// Every column is plain, in memory and in block files (DESIGN.md §13):
///   BOOL            -> std::vector<uint8_t> (0/1)
///   INTEGER         -> std::vector<int32_t>
///   BIGINT          -> std::vector<int64_t>
///   DOUBLE          -> std::vector<double>
///   VARCHAR / BLOB  -> std::vector<std::string>
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

  TypeId type() const { return type_; }
  size_t size() const;

  /// Compatibility shims for the benchmark harness
  /// (`mlcsbench/mlcs_bench.cc`, which decodes its label column before
  /// reading it). Columns are always plain: is_encoded() is false and
  /// Decode() returns a deep copy. Nothing in the engine calls either.
  bool is_encoded() const { return false; }
  [[nodiscard]] ColumnPtr Decode() const {
    return std::make_shared<Column>(*this);
  }

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

  /// -- Typed raw access (hot paths) ----------------------------------------
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
    std::get<kBoolIdx>(data_).push_back(v ? 1 : 0);
    MarkAppendedValid();
  }
  void AppendInt32(int32_t v) {
    std::get<kI32Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendInt64(int64_t v) {
    std::get<kI64Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendDouble(double v) {
    std::get<kF64Idx>(data_).push_back(v);
    MarkAppendedValid();
  }
  void AppendString(std::string v) {
    std::get<kStrIdx>(data_).push_back(std::move(v));
    MarkAppendedValid();
  }
  void AppendNull();
  /// Type-checked append of a Value (casts numerics when lossless).
  Status AppendValue(const Value& v);
  /// Appends all rows of `other` (must have the same type).
  Status AppendColumn(const Column& other);

  /// -- Row access (boundaries, tests, protocols) --------------------------
  /// ValueAt(row) after checking that row < size().
  Result<Value> GetValue(size_t row) const;
  /// The value of `row`, unchecked: requires row < size().
  Value ValueAt(size_t row) const;

  /// -- Bulk transforms ----------------------------------------------------
  /// Element-wise cast; NULLs are preserved.
  Result<ColumnPtr> CastTo(TypeId target) const;
  /// Gather: out[i] = this[indices[i]].
  [[nodiscard]] ColumnPtr Take(const std::vector<uint32_t>& indices) const;
  /// Pointer-range gather over indices[0, count). Lets morsel-parallel
  /// operators gather disjoint pieces of one selection vector without
  /// copying it per morsel.
  [[nodiscard]] ColumnPtr Take(const uint32_t* indices, size_t count) const;
  /// Contiguous sub-range copy.
  [[nodiscard]] ColumnPtr Slice(size_t offset, size_t length) const;
  /// Numeric column as doubles (ML ingestion). NULLs become NaN.
  Result<std::vector<double>> ToDoubleVector() const;

  /// Payload bytes this column holds — the data-movement footprint the
  /// scan bytes-touched accounting reads: fixed-width element bytes (or
  /// summed string lengths) plus the validity vector.
  [[nodiscard]] size_t ByteSize() const;

  [[nodiscard]] bool Equals(const Column& other) const;

  /// The serialized form starts with the bare type byte (0–5). Any other
  /// tag byte, such as the retired dictionary tag 0x80 + type or run-length
  /// tag 0xA0 + type, is a ParseError.
  void Serialize(ByteWriter* writer) const;
  static Result<ColumnPtr> Deserialize(ByteReader* reader);

 private:
  static constexpr size_t kBoolIdx = 0;
  static constexpr size_t kI32Idx = 1;
  static constexpr size_t kI64Idx = 2;
  static constexpr size_t kF64Idx = 3;
  static constexpr size_t kStrIdx = 4;

  void EnsureValidity();
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
  /// 1 = valid, 0 = null. Empty means "all valid".
  std::vector<uint8_t> validity_;
  size_t null_count_ = 0;
};

}  // namespace mlcs

#endif  // MLCS_STORAGE_COLUMN_H_
