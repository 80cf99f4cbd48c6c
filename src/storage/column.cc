#include "storage/column.h"

#include <cmath>
#include <cstdlib>

namespace mlcs {

namespace {
/// Default-constructs the right vector alternative for a type.
size_t VariantIndexFor(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return 0;
    case TypeId::kInt32:
      return 1;
    case TypeId::kInt64:
      return 2;
    case TypeId::kDouble:
      return 3;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      return 4;
  }
  return 1;
}
}  // namespace

Column::Column(TypeId type) : type_(type) {
  switch (VariantIndexFor(type)) {
    case 0:
      data_.emplace<std::vector<uint8_t>>();
      break;
    case 1:
      data_.emplace<std::vector<int32_t>>();
      break;
    case 2:
      data_.emplace<std::vector<int64_t>>();
      break;
    case 3:
      data_.emplace<std::vector<double>>();
      break;
    case 4:
      data_.emplace<std::vector<std::string>>();
      break;
  }
}

ColumnPtr Column::Constant(const Value& v, size_t count) {
  ColumnPtr col = Make(v.type());
  col->Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (v.is_null()) {
      col->AppendNull();
    } else {
      // AppendValue cannot fail here: the types match by construction.
      (void)col->AppendValue(v);
    }
  }
  return col;
}

ColumnPtr Column::FromInt32(std::vector<int32_t> data) {
  ColumnPtr col = Make(TypeId::kInt32);
  col->data_.emplace<std::vector<int32_t>>(std::move(data));
  return col;
}

ColumnPtr Column::FromInt64(std::vector<int64_t> data) {
  ColumnPtr col = Make(TypeId::kInt64);
  col->data_.emplace<std::vector<int64_t>>(std::move(data));
  return col;
}

ColumnPtr Column::FromDouble(std::vector<double> data) {
  ColumnPtr col = Make(TypeId::kDouble);
  col->data_.emplace<std::vector<double>>(std::move(data));
  return col;
}

ColumnPtr Column::FromBool(std::vector<uint8_t> data) {
  ColumnPtr col = Make(TypeId::kBool);
  col->data_.emplace<std::vector<uint8_t>>(std::move(data));
  return col;
}

ColumnPtr Column::FromStrings(std::vector<std::string> data, TypeId type) {
  ColumnPtr col = Make(type);
  col->data_.emplace<std::vector<std::string>>(std::move(data));
  return col;
}

size_t Column::size() const {
  switch (data_.index()) {
    case kBoolIdx:
      return std::get<kBoolIdx>(data_).size();
    case kI32Idx:
      return std::get<kI32Idx>(data_).size();
    case kI64Idx:
      return std::get<kI64Idx>(data_).size();
    case kF64Idx:
      return std::get<kF64Idx>(data_).size();
    case kStrIdx:
      return std::get<kStrIdx>(data_).size();
  }
  return 0;
}

void Column::EnsureValidity() {
  if (validity_.empty()) validity_.assign(size(), 1);
}

void Column::SetNull(size_t row) {
  EnsureValidity();
  if (validity_[row] != 0) {
    validity_[row] = 0;
    ++null_count_;
  }
}

void Column::Reserve(size_t capacity) {
  switch (data_.index()) {
    case kBoolIdx:
      std::get<kBoolIdx>(data_).reserve(capacity);
      break;
    case kI32Idx:
      std::get<kI32Idx>(data_).reserve(capacity);
      break;
    case kI64Idx:
      std::get<kI64Idx>(data_).reserve(capacity);
      break;
    case kF64Idx:
      std::get<kF64Idx>(data_).reserve(capacity);
      break;
    case kStrIdx:
      std::get<kStrIdx>(data_).reserve(capacity);
      break;
  }
}

void Column::AppendNull() {
  // Push a default slot, then mark it null.
  switch (data_.index()) {
    case kBoolIdx:
      std::get<kBoolIdx>(data_).push_back(0);
      break;
    case kI32Idx:
      std::get<kI32Idx>(data_).push_back(0);
      break;
    case kI64Idx:
      std::get<kI64Idx>(data_).push_back(0);
      break;
    case kF64Idx:
      std::get<kF64Idx>(data_).push_back(0);
      break;
    case kStrIdx:
      std::get<kStrIdx>(data_).emplace_back();
      break;
  }
  MarkAppendedValid();  // keep validity aligned before flipping the new slot
  SetNull(size() - 1);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.type() != type_) {
    // Only a mismatch pays for a copy: CastTo yields a value of type_.
    MLCS_ASSIGN_OR_RETURN(Value coerced, v.CastTo(type_));
    return AppendValue(coerced);
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.bool_value());
      break;
    case TypeId::kInt32:
      AppendInt32(v.int32_value());
      break;
    case TypeId::kInt64:
      AppendInt64(v.int64_value());
      break;
    case TypeId::kDouble:
      AppendDouble(v.double_value());
      break;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      AppendString(v.string_value());
      break;
  }
  return Status::OK();
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeMismatch(std::string("cannot append ") +
                                TypeIdToString(other.type_) + " column to " +
                                TypeIdToString(type_) + " column");
  }
  if (other.size() == 0) return Status::OK();
  size_t old_size = size();
  switch (data_.index()) {
    case kBoolIdx: {
      auto& dst = std::get<kBoolIdx>(data_);
      const auto& src = std::get<kBoolIdx>(other.data_);
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case kI32Idx: {
      auto& dst = std::get<kI32Idx>(data_);
      const auto& src = std::get<kI32Idx>(other.data_);
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case kI64Idx: {
      auto& dst = std::get<kI64Idx>(data_);
      const auto& src = std::get<kI64Idx>(other.data_);
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case kF64Idx: {
      auto& dst = std::get<kF64Idx>(data_);
      const auto& src = std::get<kF64Idx>(other.data_);
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case kStrIdx: {
      auto& dst = std::get<kStrIdx>(data_);
      const auto& src = std::get<kStrIdx>(other.data_);
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
  }
  if (other.has_nulls() || !validity_.empty()) {
    if (validity_.empty()) validity_.assign(old_size, 1);
    if (other.validity_.empty()) {
      validity_.insert(validity_.end(), other.size(), 1);
    } else {
      validity_.insert(validity_.end(), other.validity_.begin(),
                       other.validity_.end());
    }
    null_count_ += other.null_count_;
  }
  return Status::OK();
}

Result<Value> Column::GetValue(size_t row) const {
  if (row >= size()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range (size " +
                              std::to_string(size()) + ")");
  }
  return ValueAt(row);
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::MakeNull(type_);
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(std::get<kBoolIdx>(data_)[row] != 0);
    case TypeId::kInt32:
      return Value::Int32(std::get<kI32Idx>(data_)[row]);
    case TypeId::kInt64:
      return Value::Int64(std::get<kI64Idx>(data_)[row]);
    case TypeId::kDouble:
      return Value::Double(std::get<kF64Idx>(data_)[row]);
    case TypeId::kVarchar:
      return Value::Varchar(std::get<kStrIdx>(data_)[row]);
    case TypeId::kBlob:
      return Value::Blob(std::get<kStrIdx>(data_)[row]);
  }
  std::abort();  // every TypeId is a case above
}

Result<ColumnPtr> Column::CastTo(TypeId target) const {
  if (target == type_) {
    return std::make_shared<Column>(*this);
  }
  ColumnPtr out = Make(target);
  size_t n = size();
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i)) {
      out->AppendNull();
      continue;
    }
    MLCS_ASSIGN_OR_RETURN(Value v, GetValue(i));
    MLCS_ASSIGN_OR_RETURN(Value cast, v.CastTo(target));
    MLCS_RETURN_IF_ERROR(out->AppendValue(cast));
  }
  return out;
}

ColumnPtr Column::Take(const std::vector<uint32_t>& indices) const {
  return Take(indices.data(), indices.size());
}

ColumnPtr Column::Take(const uint32_t* indices, size_t count) const {
  // resize + indexed stores, not push_back: the per-element capacity check
  // blocks the compiler from keeping this a tight gather.
  ColumnPtr out = Make(type_);
  switch (data_.index()) {
    case kBoolIdx: {
      const auto& src = std::get<kBoolIdx>(data_);
      auto& dst = std::get<kBoolIdx>(out->data_);
      dst.resize(count);
      for (size_t i = 0; i < count; ++i) dst[i] = src[indices[i]];
      break;
    }
    case kI32Idx: {
      const auto& src = std::get<kI32Idx>(data_);
      auto& dst = std::get<kI32Idx>(out->data_);
      dst.resize(count);
      for (size_t i = 0; i < count; ++i) dst[i] = src[indices[i]];
      break;
    }
    case kI64Idx: {
      const auto& src = std::get<kI64Idx>(data_);
      auto& dst = std::get<kI64Idx>(out->data_);
      dst.resize(count);
      for (size_t i = 0; i < count; ++i) dst[i] = src[indices[i]];
      break;
    }
    case kF64Idx: {
      const auto& src = std::get<kF64Idx>(data_);
      auto& dst = std::get<kF64Idx>(out->data_);
      dst.resize(count);
      for (size_t i = 0; i < count; ++i) dst[i] = src[indices[i]];
      break;
    }
    case kStrIdx: {
      const auto& src = std::get<kStrIdx>(data_);
      auto& dst = std::get<kStrIdx>(out->data_);
      dst.resize(count);
      for (size_t i = 0; i < count; ++i) dst[i] = src[indices[i]];
      break;
    }
  }
  if (has_nulls()) {
    out->validity_.resize(count);
    size_t nulls = 0;
    for (size_t i = 0; i < count; ++i) {
      uint8_t valid = validity_[indices[i]];
      out->validity_[i] = valid;
      nulls += valid == 0 ? 1 : 0;
    }
    out->null_count_ = nulls;
    if (nulls == 0) out->validity_.clear();
  }
  return out;
}

ColumnPtr Column::Slice(size_t offset, size_t length) const {
  // Contiguous range copy, not a gather: the morsel-parallel operators
  // slice every input column once per morsel, so this is a hot path.
  ColumnPtr out = Make(type_);
  switch (data_.index()) {
    case kBoolIdx: {
      const auto& src = std::get<kBoolIdx>(data_);
      std::get<kBoolIdx>(out->data_)
          .assign(src.begin() + offset, src.begin() + offset + length);
      break;
    }
    case kI32Idx: {
      const auto& src = std::get<kI32Idx>(data_);
      std::get<kI32Idx>(out->data_)
          .assign(src.begin() + offset, src.begin() + offset + length);
      break;
    }
    case kI64Idx: {
      const auto& src = std::get<kI64Idx>(data_);
      std::get<kI64Idx>(out->data_)
          .assign(src.begin() + offset, src.begin() + offset + length);
      break;
    }
    case kF64Idx: {
      const auto& src = std::get<kF64Idx>(data_);
      std::get<kF64Idx>(out->data_)
          .assign(src.begin() + offset, src.begin() + offset + length);
      break;
    }
    case kStrIdx: {
      const auto& src = std::get<kStrIdx>(data_);
      std::get<kStrIdx>(out->data_)
          .assign(src.begin() + offset, src.begin() + offset + length);
      break;
    }
  }
  if (has_nulls()) {
    out->validity_.assign(validity_.begin() + offset,
                          validity_.begin() + offset + length);
    for (uint8_t v : out->validity_) {
      if (v == 0) ++out->null_count_;
    }
    if (out->null_count_ == 0) out->validity_.clear();
  }
  return out;
}

Result<std::vector<double>> Column::ToDoubleVector() const {
  if (!IsNumericType(type_)) {
    return Status::TypeMismatch(std::string(TypeIdToString(type_)) +
                                " column cannot be converted to doubles");
  }
  size_t n = size();
  std::vector<double> out(n);
  switch (type_) {
    case TypeId::kBool: {
      const auto& src = std::get<kBoolIdx>(data_);
      for (size_t i = 0; i < n; ++i) out[i] = src[i];
      break;
    }
    case TypeId::kInt32: {
      const auto& src = std::get<kI32Idx>(data_);
      for (size_t i = 0; i < n; ++i) out[i] = src[i];
      break;
    }
    case TypeId::kInt64: {
      const auto& src = std::get<kI64Idx>(data_);
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(src[i]);
      break;
    }
    case TypeId::kDouble:
      out = std::get<kF64Idx>(data_);
      break;
    default:
      break;
  }
  if (has_nulls()) {
    for (size_t i = 0; i < n; ++i) {
      if (validity_[i] == 0) out[i] = std::nan("");
    }
  }
  return out;
}

size_t Column::ByteSize() const {
  size_t bytes = validity_.size();
  switch (type_) {
    case TypeId::kBool:
      bytes += std::get<kBoolIdx>(data_).size();
      break;
    case TypeId::kInt32:
      bytes += std::get<kI32Idx>(data_).size() * sizeof(int32_t);
      break;
    case TypeId::kInt64:
      bytes += std::get<kI64Idx>(data_).size() * sizeof(int64_t);
      break;
    case TypeId::kDouble:
      bytes += std::get<kF64Idx>(data_).size() * sizeof(double);
      break;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      for (const auto& s : std::get<kStrIdx>(data_)) bytes += s.size();
      break;
  }
  return bytes;
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || size() != other.size()) return false;
  size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
  }
  // Payload comparison skips null slots (their stored defaults may differ).
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i)) continue;
    auto a = GetValue(i);
    auto b = other.GetValue(i);
    if (!a.ok() || !b.ok()) return false;
    if (!(a.ValueOrDie() == b.ValueOrDie())) return false;
  }
  return true;
}

void Column::Serialize(ByteWriter* writer) const {
  size_t n = size();
  writer->WriteU8(static_cast<uint8_t>(type_));
  writer->WriteVarint(n);
  writer->WriteBool(has_nulls());
  if (has_nulls()) writer->WriteRaw(validity_.data(), n);
  switch (data_.index()) {
    case kBoolIdx:
      writer->WriteRaw(std::get<kBoolIdx>(data_).data(), n);
      break;
    case kI32Idx:
      writer->WriteRaw(std::get<kI32Idx>(data_).data(), n * sizeof(int32_t));
      break;
    case kI64Idx:
      writer->WriteRaw(std::get<kI64Idx>(data_).data(), n * sizeof(int64_t));
      break;
    case kF64Idx:
      writer->WriteRaw(std::get<kF64Idx>(data_).data(), n * sizeof(double));
      break;
    case kStrIdx:
      for (const auto& s : std::get<kStrIdx>(data_)) {
        writer->WriteVarint(s.size());
        writer->WriteRaw(s.data(), s.size());
      }
      break;
  }
}

Result<ColumnPtr> Column::Deserialize(ByteReader* reader) {
  MLCS_ASSIGN_OR_RETURN(uint8_t type_byte, reader->ReadU8());
  if (type_byte > static_cast<uint8_t>(TypeId::kBlob)) {
    return Status::ParseError("invalid type tag in serialized column");
  }
  TypeId type = static_cast<TypeId>(type_byte);
  // Every row takes at least one byte (a BOOL, or a string's length).
  MLCS_ASSIGN_OR_RETURN(uint64_t n, reader->ReadCount(1, "column row"));
  MLCS_ASSIGN_OR_RETURN(bool has_nulls, reader->ReadBool());
  ColumnPtr col = Make(type);
  if (has_nulls) {
    col->validity_.resize(n);
    MLCS_RETURN_IF_ERROR(reader->ReadRaw(col->validity_.data(), n));
    for (uint8_t v : col->validity_) {
      if (v == 0) ++col->null_count_;
    }
  }
  switch (type) {
    case TypeId::kBool: {
      auto& dst = std::get<kBoolIdx>(col->data_);
      dst.resize(n);
      MLCS_RETURN_IF_ERROR(reader->ReadRaw(dst.data(), n));
      break;
    }
    case TypeId::kInt32: {
      auto& dst = std::get<kI32Idx>(col->data_);
      dst.resize(n);
      MLCS_RETURN_IF_ERROR(reader->ReadRaw(dst.data(), n * sizeof(int32_t)));
      break;
    }
    case TypeId::kInt64: {
      auto& dst = std::get<kI64Idx>(col->data_);
      dst.resize(n);
      MLCS_RETURN_IF_ERROR(reader->ReadRaw(dst.data(), n * sizeof(int64_t)));
      break;
    }
    case TypeId::kDouble: {
      auto& dst = std::get<kF64Idx>(col->data_);
      dst.resize(n);
      MLCS_RETURN_IF_ERROR(reader->ReadRaw(dst.data(), n * sizeof(double)));
      break;
    }
    case TypeId::kVarchar:
    case TypeId::kBlob: {
      auto& dst = std::get<kStrIdx>(col->data_);
      dst.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        MLCS_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
        std::string s(len, '\0');
        MLCS_RETURN_IF_ERROR(reader->ReadRaw(s.data(), len));
        dst.push_back(std::move(s));
      }
      break;
    }
  }
  return col;
}

}  // namespace mlcs
