#include "client/protocol.h"

#include <cstring>

#include "storage/text_cell.h"

namespace mlcs::client {

namespace {
constexpr uint8_t kRowMarker = 'D';
constexpr uint8_t kEndMarker = 'C';
constexpr uint8_t kBlockMarker = 'B';
/// Allocation guard for columnar block decode: a block declaring more rows
/// than this is rejected before any buffer is sized from the wire value.
constexpr uint32_t kMaxBlockRows = 1u << 26;

/// Encodes rows [begin, end) of one column as a contiguous run: u8
/// has-nulls flag, then either packed non-null values behind a null bitmap
/// (bit set = NULL, same convention as the mysql-binary row bitmap) or the
/// raw value run. Fixed-width no-null columns go out as one WriteRaw.
void EncodeColumnRun(const Column& col, size_t begin, size_t end,
                     ByteWriter* out) {
  size_t count = end - begin;
  bool any_null = false;
  if (col.has_nulls()) {
    for (size_t r = begin; r < end && !any_null; ++r) {
      any_null = col.IsNull(r);
    }
  }
  out->WriteU8(any_null ? 1 : 0);
  if (any_null) {
    std::vector<uint8_t> bitmap((count + 7) / 8, 0);
    for (size_t r = begin; r < end; ++r) {
      size_t i = r - begin;
      if (col.IsNull(r)) bitmap[i / 8] |= (1u << (i % 8));
    }
    out->WriteRaw(bitmap.data(), bitmap.size());
  }
  switch (col.type()) {
    case TypeId::kBool:
      if (!any_null) {
        out->WriteRaw(col.bool_data().data() + begin, count);
      } else {
        for (size_t r = begin; r < end; ++r) {
          if (!col.IsNull(r)) out->WriteU8(col.bool_data()[r]);
        }
      }
      break;
    case TypeId::kInt32:
      if (!any_null) {
        out->WriteRaw(col.i32_data().data() + begin,
                      count * sizeof(int32_t));
      } else {
        for (size_t r = begin; r < end; ++r) {
          if (!col.IsNull(r)) out->WriteI32(col.i32_data()[r]);
        }
      }
      break;
    case TypeId::kInt64:
      if (!any_null) {
        out->WriteRaw(col.i64_data().data() + begin,
                      count * sizeof(int64_t));
      } else {
        for (size_t r = begin; r < end; ++r) {
          if (!col.IsNull(r)) out->WriteI64(col.i64_data()[r]);
        }
      }
      break;
    case TypeId::kDouble:
      if (!any_null) {
        out->WriteRaw(col.f64_data().data() + begin,
                      count * sizeof(double));
      } else {
        for (size_t r = begin; r < end; ++r) {
          if (!col.IsNull(r)) out->WriteDouble(col.f64_data()[r]);
        }
      }
      break;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      for (size_t r = begin; r < end; ++r) {
        if (!col.IsNull(r)) out->WriteString(col.str_data()[r]);
      }
      break;
  }
}

/// Bulk-reads `count` fixed-width values straight into the column's
/// backing vector. Only valid when the column has no validity vector yet
/// (all prior rows valid) — appending raw values keeps it all-valid.
template <typename V>
Status BulkReadInto(std::vector<V>& data, size_t count, ByteReader* in) {
  if (in->remaining() < count * sizeof(V)) {
    return Status::OutOfRange("truncated columnar value run");
  }
  size_t old = data.size();
  data.resize(old + count);
  return in->ReadRaw(data.data() + old, count * sizeof(V));
}

/// Per-value decode of one column run (bitmap form, or a column that
/// already carries nulls from an earlier block).
Status DecodeColumnRun(Column* col, size_t count, bool any_null,
                       ByteReader* in) {
  std::vector<uint8_t> bitmap;
  if (any_null) {
    if (in->remaining() < (count + 7) / 8) {
      return Status::OutOfRange("truncated columnar null bitmap");
    }
    bitmap.resize((count + 7) / 8);
    MLCS_RETURN_IF_ERROR(in->ReadRaw(bitmap.data(), bitmap.size()));
  }
  // Fast path: no nulls on the wire and none accumulated in the column —
  // fixed-width values land with a single ReadRaw.
  if (!any_null && !col->has_nulls()) {
    switch (col->type()) {
      case TypeId::kBool:
        return BulkReadInto(col->bool_data(), count, in);
      case TypeId::kInt32:
        return BulkReadInto(col->i32_data(), count, in);
      case TypeId::kInt64:
        return BulkReadInto(col->i64_data(), count, in);
      case TypeId::kDouble:
        return BulkReadInto(col->f64_data(), count, in);
      case TypeId::kVarchar:
      case TypeId::kBlob:
        for (size_t i = 0; i < count; ++i) {
          MLCS_ASSIGN_OR_RETURN(std::string s, in->ReadString());
          col->AppendString(std::move(s));
        }
        return Status::OK();
    }
    return Status::ParseError("bad column type in columnar block");
  }
  for (size_t i = 0; i < count; ++i) {
    if (any_null && (bitmap[i / 8] & (1u << (i % 8)))) {
      col->AppendNull();
      continue;
    }
    switch (col->type()) {
      case TypeId::kBool: {
        MLCS_ASSIGN_OR_RETURN(uint8_t v, in->ReadU8());
        col->AppendBool(v != 0);
        break;
      }
      case TypeId::kInt32: {
        MLCS_ASSIGN_OR_RETURN(int32_t v, in->ReadI32());
        col->AppendInt32(v);
        break;
      }
      case TypeId::kInt64: {
        MLCS_ASSIGN_OR_RETURN(int64_t v, in->ReadI64());
        col->AppendInt64(v);
        break;
      }
      case TypeId::kDouble: {
        MLCS_ASSIGN_OR_RETURN(double v, in->ReadDouble());
        col->AppendDouble(v);
        break;
      }
      case TypeId::kVarchar:
      case TypeId::kBlob: {
        MLCS_ASSIGN_OR_RETURN(std::string s, in->ReadString());
        col->AppendString(std::move(s));
        break;
      }
    }
  }
  return Status::OK();
}

template <typename T>
uint8_t* Put(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename T>
T Get(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool IsBytes(TypeId type) {
  return type == TypeId::kVarchar || type == TypeId::kBlob;
}

/// Bytes a mysql-binary row spends on a non-NULL value of `type`: the
/// value, or for VARCHAR / BLOB the u32 length prefix before its body.
size_t BinaryFixedBytes(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt32:
    case TypeId::kVarchar:
    case TypeId::kBlob:
      return 4;
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 8;
  }
  return 0;
}

/// Writes row `r`'s pg-text cells at `p`: per column an i32 text length
/// (-1 for NULL) and the text. Returns the end.
uint8_t* EncodeTextRow(const std::vector<const Column*>& cols, size_t r,
                       uint8_t* p) {
  for (const Column* col : cols) {
    if (col->IsNull(r)) {
      p = Put<int32_t>(p, -1);
      continue;
    }
    uint8_t* const length_at = p;
    char* const begin = reinterpret_cast<char*>(p + sizeof(int32_t));
    char* end = begin;
    switch (col->type()) {
      case TypeId::kBool:
        *end++ = col->bool_data()[r] != 0 ? 't' : 'f';
        break;
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kDouble:
        end = FormatNumberCell(*col, r, begin);
        break;
      case TypeId::kVarchar:
      case TypeId::kBlob: {
        const std::string& s = col->str_data()[r];
        std::memcpy(begin, s.data(), s.size());
        end += s.size();
        break;
      }
    }
    Put<int32_t>(length_at, static_cast<int32_t>(end - begin));
    p = reinterpret_cast<uint8_t*>(end);
  }
  return p;
}

/// Writes row `r`'s mysql-binary body at `p`: the NULL bitmap (bit set =
/// NULL), then each non-NULL value little-endian, VARCHAR / BLOB behind a
/// u32 length. Returns the end.
uint8_t* EncodeBinaryRow(const std::vector<const Column*>& cols, size_t r,
                         uint8_t* p) {
  uint8_t* const bitmap = p;
  const size_t bitmap_bytes = (cols.size() + 7) / 8;
  std::memset(bitmap, 0, bitmap_bytes);
  p += bitmap_bytes;
  for (size_t c = 0; c < cols.size(); ++c) {
    const Column& col = *cols[c];
    if (col.IsNull(r)) {
      bitmap[c / 8] |= static_cast<uint8_t>(1u << (c % 8));
      continue;
    }
    switch (col.type()) {
      case TypeId::kBool:
        *p++ = col.bool_data()[r];
        break;
      case TypeId::kInt32:
        p = Put(p, col.i32_data()[r]);
        break;
      case TypeId::kInt64:
        p = Put(p, col.i64_data()[r]);
        break;
      case TypeId::kDouble:
        p = Put(p, col.f64_data()[r]);
        break;
      case TypeId::kVarchar:
      case TypeId::kBlob: {
        const std::string& s = col.str_data()[r];
        p = Put(p, static_cast<uint32_t>(s.size()));
        std::memcpy(p, s.data(), s.size());
        p += s.size();
        break;
      }
    }
  }
  return p;
}

/// Decodes one pg-text row body into `cols`: every field's length and
/// text are bounds-checked, then parsed in place from the frame.
Status DecodeTextRow(const std::vector<Column*>& cols, ByteReader* in) {
  const uint8_t* p = in->cursor();
  const uint8_t* const end = p + in->remaining();
  for (Column* col : cols) {
    if (end - p < static_cast<std::ptrdiff_t>(sizeof(int32_t))) {
      return Status::OutOfRange("truncated pg-text field length");
    }
    const int32_t len = Get<int32_t>(p);
    p += sizeof(int32_t);
    if (len < 0) {
      col->AppendNull();
      continue;
    }
    if (len > end - p) return Status::OutOfRange("truncated pg-text field");
    // Client-side conversion: text → native value (the per-cell parse
    // cost the paper's PostgreSQL/MySQL bars pay).
    MLCS_RETURN_IF_ERROR(AppendTextCell(
        col, std::string_view(reinterpret_cast<const char*>(p),
                              static_cast<size_t>(len))));
    p += len;
  }
  return in->Skip(static_cast<size_t>(p - in->cursor()));
}

/// Decodes one mysql-binary row body into `cols`. `fixed_bytes[c]` is
/// BinaryFixedBytes of column c: once the bitmap is read, the row's
/// fixed-width bytes are checked against the input in one go, and only a
/// VARCHAR / BLOB body needs its own check.
Status DecodeBinaryRow(const std::vector<Column*>& cols,
                       const std::vector<size_t>& fixed_bytes,
                       ByteReader* in) {
  const uint8_t* p = in->cursor();
  const uint8_t* const end = p + in->remaining();
  const size_t bitmap_bytes = (cols.size() + 7) / 8;
  if (static_cast<size_t>(end - p) < bitmap_bytes) {
    return Status::OutOfRange("truncated mysql-binary null bitmap");
  }
  const uint8_t* const bitmap = p;
  p += bitmap_bytes;
  auto is_null = [bitmap](size_t c) {
    return (bitmap[c / 8] & (1u << (c % 8))) != 0;
  };
  // Bytes still owed to fixed-width values and length prefixes; a string
  // body may only take what lies beyond them.
  size_t fixed_left = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (!is_null(c)) fixed_left += fixed_bytes[c];
  }
  if (static_cast<size_t>(end - p) < fixed_left) {
    return Status::OutOfRange("truncated mysql-binary row");
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    Column* col = cols[c];
    if (is_null(c)) {
      col->AppendNull();
      continue;
    }
    fixed_left -= fixed_bytes[c];
    switch (col->type()) {
      case TypeId::kBool:
        col->AppendBool(*p != 0);
        break;
      case TypeId::kInt32:
        col->AppendInt32(Get<int32_t>(p));
        break;
      case TypeId::kInt64:
        col->AppendInt64(Get<int64_t>(p));
        break;
      case TypeId::kDouble:
        col->AppendDouble(Get<double>(p));
        break;
      case TypeId::kVarchar:
      case TypeId::kBlob: {
        const uint32_t len = Get<uint32_t>(p);
        const uint8_t* body = p + sizeof(uint32_t);
        if (len > static_cast<size_t>(end - body) - fixed_left) {
          return Status::OutOfRange("truncated mysql-binary string");
        }
        col->AppendString(
            std::string(reinterpret_cast<const char*>(body), len));
        p += len;
        break;
      }
    }
    p += fixed_bytes[c];
  }
  return in->Skip(static_cast<size_t>(p - in->cursor()));
}
}  // namespace

const char* WireProtocolToString(WireProtocol protocol) {
  switch (protocol) {
    case WireProtocol::kPgText:
      return "pg-text";
    case WireProtocol::kMyBinary:
      return "mysql-binary";
    case WireProtocol::kColumnar:
      return "columnar";
  }
  return "?";
}

void EncodeQueryRequest(WireProtocol protocol, const std::string& sql,
                        ByteWriter* out) {
  out->WriteU8(static_cast<uint8_t>(protocol));
  out->WriteRaw(sql.data(), sql.size());
}

Result<QueryRequest> DecodeQueryRequest(ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint8_t protocol, in->ReadU8());
  if (protocol > static_cast<uint8_t>(WireProtocol::kColumnar)) {
    return Status::ParseError("bad protocol byte " + std::to_string(protocol));
  }
  QueryRequest request{static_cast<WireProtocol>(protocol),
                       std::string(in->remaining(), '\0')};
  MLCS_RETURN_IF_ERROR(in->ReadRaw(request.sql.data(), request.sql.size()));
  return request;
}

void EncodeHeader(const Schema& schema, ByteWriter* out) {
  out->WriteU16(static_cast<uint16_t>(schema.num_fields()));
  for (const auto& field : schema.fields()) {
    out->WriteString(field.name);
    out->WriteU8(static_cast<uint8_t>(field.type));
  }
}

Result<Schema> DecodeHeader(ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint16_t ncols, in->ReadU16());
  Schema schema;
  for (uint16_t c = 0; c < ncols; ++c) {
    MLCS_ASSIGN_OR_RETURN(std::string name, in->ReadString());
    MLCS_ASSIGN_OR_RETURN(uint8_t type_byte, in->ReadU8());
    if (type_byte > static_cast<uint8_t>(TypeId::kBlob)) {
      return Status::ParseError("bad type tag in result header");
    }
    schema.AddField(std::move(name), static_cast<TypeId>(type_byte));
  }
  return schema;
}

Status EncodeRows(const Table& table, WireProtocol protocol, size_t begin,
                  size_t count, ByteWriter* out) {
  size_t end = begin + count;
  if (end > table.num_rows()) {
    return Status::OutOfRange("row range exceeds table");
  }
  size_t ncols = table.num_columns();
  if (protocol == WireProtocol::kColumnar) {
    // The whole range goes out as one column-major block: no per-row
    // marker, no per-row bitmap, values of each column contiguous.
    out->WriteU8(kBlockMarker);
    out->WriteU32(static_cast<uint32_t>(count));
    for (size_t c = 0; c < ncols; ++c) {
      EncodeColumnRun(*table.column(c), begin, end, out);
    }
    return Status::OK();
  }
  // Each row's worst-case bytes are reserved once and its cells written
  // in place; VARCHAR / BLOB bodies are sized per value.
  const bool text = protocol == WireProtocol::kPgText;
  std::vector<const Column*> cols(ncols);
  std::vector<const Column*> bytes_cols;
  size_t row_bytes = 1 + (text ? 0 : (ncols + 7) / 8);
  for (size_t c = 0; c < ncols; ++c) {
    cols[c] = table.column(c).get();
    TypeId type = cols[c]->type();
    if (IsBytes(type)) bytes_cols.push_back(cols[c]);
    row_bytes += !text ? BinaryFixedBytes(type)
                 : sizeof(int32_t) + (IsBytes(type) ? 0 : kMaxNumberCellBytes);
  }
  for (size_t r = begin; r < end; ++r) {
    size_t worst = row_bytes;
    for (const Column* col : bytes_cols) {
      if (!col->IsNull(r)) worst += col->str_data()[r].size();
    }
    const size_t start = out->size();
    uint8_t* const row = out->Extend(worst);
    row[0] = kRowMarker;
    uint8_t* p = text ? EncodeTextRow(cols, r, row + 1)
                      : EncodeBinaryRow(cols, r, row + 1);
    out->Truncate(start + static_cast<size_t>(p - row));
  }
  return Status::OK();
}

void EncodeEnd(ByteWriter* out) { out->WriteU8(kEndMarker); }

Result<bool> DecodeMessages(ByteReader* in, WireProtocol protocol,
                            Table* table) {
  size_t ncols = table->num_columns();
  std::vector<Column*> cols(ncols);
  std::vector<size_t> fixed_bytes(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    cols[c] = table->column(c).get();
    fixed_bytes[c] = BinaryFixedBytes(cols[c]->type());
  }
  while (!in->AtEnd()) {
    MLCS_ASSIGN_OR_RETURN(uint8_t marker, in->ReadU8());
    if (marker == kEndMarker) return true;
    if (protocol == WireProtocol::kColumnar) {
      if (marker != kBlockMarker) {
        return Status::ParseError("unexpected message marker " +
                                  std::to_string(marker));
      }
      MLCS_ASSIGN_OR_RETURN(uint32_t count, in->ReadU32());
      if (count > kMaxBlockRows) {
        return Status::ParseError("columnar block declares " +
                                  std::to_string(count) +
                                  " rows, above the block cap");
      }
      for (size_t c = 0; c < ncols; ++c) {
        MLCS_ASSIGN_OR_RETURN(uint8_t any_null, in->ReadU8());
        if (any_null > 1) {
          return Status::ParseError("bad null flag in columnar block");
        }
        MLCS_RETURN_IF_ERROR(
            DecodeColumnRun(cols[c], count, any_null != 0, in));
      }
      continue;
    }
    if (marker != kRowMarker) {
      return Status::ParseError("unexpected message marker " +
                                std::to_string(marker));
    }
    MLCS_RETURN_IF_ERROR(protocol == WireProtocol::kPgText
                             ? DecodeTextRow(cols, in)
                             : DecodeBinaryRow(cols, fixed_bytes, in));
  }
  return false;
}

Result<TablePtr> DecodeResultSet(ByteReader* in, WireProtocol protocol) {
  MLCS_ASSIGN_OR_RETURN(Schema schema, DecodeHeader(in));
  auto table = Table::Make(std::move(schema));
  MLCS_ASSIGN_OR_RETURN(bool ended, DecodeMessages(in, protocol, table.get()));
  if (!ended) return Status::OutOfRange("result set has no end marker");
  return table;
}

}  // namespace mlcs::client
