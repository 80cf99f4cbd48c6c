#include "storage/text_cell.h"

#include <charconv>
#include <cstdint>
#include <string>

#include "common/string_util.h"

namespace mlcs {

Status AppendTextCell(Column* col, std::string_view text) {
  const TypeId type = col->type();
  if (type == TypeId::kVarchar || type == TypeId::kBlob) {
    col->AppendString(std::string(text));
    return Status::OK();
  }
  std::string_view trimmed = TrimView(text);
  switch (type) {
    case TypeId::kBool:
      if (EqualsIgnoreCase(trimmed, "t") || EqualsIgnoreCase(trimmed, "true")) {
        col->AppendBool(true);
        return Status::OK();
      }
      if (EqualsIgnoreCase(trimmed, "f") ||
          EqualsIgnoreCase(trimmed, "false")) {
        col->AppendBool(false);
        return Status::OK();
      }
      return Status::ParseError("invalid bool: '" + std::string(text) + "'");
    case TypeId::kInt32:
    case TypeId::kInt64: {
      int64_t v = 0;
      if (!FromCharsWhole(trimmed, &v)) {
        return Status::ParseError("invalid integer: '" + std::string(text) +
                                  "'");
      }
      if (type == TypeId::kInt64) {
        col->AppendInt64(v);
        return Status::OK();
      }
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::OutOfRange("integer out of int32 range: " +
                                  std::string(text));
      }
      col->AppendInt32(static_cast<int32_t>(v));
      return Status::OK();
    }
    case TypeId::kDouble: {
      double v = 0;
      if (!FromCharsWhole(trimmed, &v)) {
        return Status::ParseError("invalid double: '" + std::string(text) +
                                  "'");
      }
      col->AppendDouble(v);
      return Status::OK();
    }
    case TypeId::kVarchar:
    case TypeId::kBlob:
      break;
  }
  return Status::Internal("unreachable");
}

char* FormatNumberCell(const Column& col, size_t row, char* out) {
  char* const end = out + kMaxNumberCellBytes;
  std::to_chars_result res{out, std::errc()};
  switch (col.type()) {
    case TypeId::kInt32:
      res = std::to_chars(out, end, col.i32_data()[row]);
      break;
    case TypeId::kInt64:
      res = std::to_chars(out, end, col.i64_data()[row]);
      break;
    case TypeId::kDouble:
      res = std::to_chars(out, end, col.f64_data()[row]);
      break;
    case TypeId::kBool:
    case TypeId::kVarchar:
    case TypeId::kBlob:
      break;
  }
  return res.ptr;
}

}  // namespace mlcs
