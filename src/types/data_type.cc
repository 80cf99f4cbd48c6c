#include "types/data_type.h"

#include "common/string_util.h"

namespace mlcs {

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt32:
      return "INTEGER";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kVarchar:
      return "VARCHAR";
    case TypeId::kBlob:
      return "BLOB";
  }
  return "UNKNOWN";
}

Result<TypeId> TypeIdFromString(std::string_view name) {
  std::string upper = ToUpper(TrimView(name));
  if (upper == "BOOLEAN" || upper == "BOOL") return TypeId::kBool;
  if (upper == "INTEGER" || upper == "INT" || upper == "INT32") {
    return TypeId::kInt32;
  }
  if (upper == "BIGINT" || upper == "INT64" || upper == "LONG") {
    return TypeId::kInt64;
  }
  if (upper == "DOUBLE" || upper == "FLOAT" || upper == "REAL" ||
      upper == "FLOAT64") {
    return TypeId::kDouble;
  }
  if (upper == "VARCHAR" || upper == "TEXT" || upper == "STRING") {
    return TypeId::kVarchar;
  }
  if (upper == "BLOB" || upper == "BYTEA") return TypeId::kBlob;
  return Status::ParseError("unknown type name: '" + std::string(name) + "'");
}

bool IsNumericType(TypeId type) {
  switch (type) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDouble:
      return true;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      return false;
  }
  return false;
}

Result<TypeId> CommonNumericType(TypeId a, TypeId b) {
  if (!IsNumericType(a) || !IsNumericType(b)) {
    return Status::TypeMismatch(
        std::string("no numeric promotion between ") + TypeIdToString(a) +
        " and " + TypeIdToString(b));
  }
  if (a == TypeId::kDouble || b == TypeId::kDouble) return TypeId::kDouble;
  if (a == TypeId::kInt64 || b == TypeId::kInt64) return TypeId::kInt64;
  if (a == TypeId::kInt32 || b == TypeId::kInt32) return TypeId::kInt32;
  return TypeId::kBool;
}

}  // namespace mlcs
