#ifndef MLCS_TYPES_DATA_TYPE_H_
#define MLCS_TYPES_DATA_TYPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace mlcs {

/// Logical column types supported by the engine. BLOB is first-class because
/// serialized models are stored in BLOB columns (paper §3.1, Listing 1).
enum class TypeId : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kVarchar = 4,
  kBlob = 5,
};

/// SQL-facing name ("INTEGER", "BIGINT", "DOUBLE", "VARCHAR", "BLOB",
/// "BOOLEAN").
const char* TypeIdToString(TypeId type);

/// Parses a SQL type name (case-insensitive; accepts common aliases such as
/// INT/INTEGER, FLOAT/DOUBLE/REAL, TEXT/STRING/VARCHAR).
Result<TypeId> TypeIdFromString(std::string_view name);

/// True for BOOL/INT32/INT64/DOUBLE.
[[nodiscard]] bool IsNumericType(TypeId type);

/// Numeric promotion used by arithmetic kernels: the smallest numeric type
/// both inputs can be losslessly converted to (int32+int32→int32,
/// int32+int64→int64, any+double→double).
Result<TypeId> CommonNumericType(TypeId a, TypeId b);

}  // namespace mlcs

#endif  // MLCS_TYPES_DATA_TYPE_H_
