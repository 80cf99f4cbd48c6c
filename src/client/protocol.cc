#include "client/protocol.h"

#include "common/string_util.h"

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
  for (size_t r = begin; r < end; ++r) {
    out->WriteU8(kRowMarker);
    if (protocol == WireProtocol::kPgText) {
      // Every value as length-prefixed text; -1 length marks NULL.
      for (size_t c = 0; c < ncols; ++c) {
        const Column& col = *table.column(c);
        if (col.IsNull(r)) {
          out->WriteI32(-1);
          continue;
        }
        std::string text;
        switch (col.type()) {
          case TypeId::kBool:
            text.assign(1, col.bool_data()[r] != 0 ? 't' : 'f');
            break;
          case TypeId::kInt32:
            text = std::to_string(col.i32_data()[r]);
            break;
          case TypeId::kInt64:
            text = std::to_string(col.i64_data()[r]);
            break;
          case TypeId::kDouble:
            text = FormatDouble(col.f64_data()[r]);
            break;
          case TypeId::kVarchar:
          case TypeId::kBlob:
            text = col.str_data()[r];
            break;
        }
        out->WriteI32(static_cast<int32_t>(text.size()));
        out->WriteRaw(text.data(), text.size());
      }
    } else {
      // Binary: NULL bitmap then packed values.
      size_t bitmap_bytes = (ncols + 7) / 8;
      std::vector<uint8_t> bitmap(bitmap_bytes, 0);
      for (size_t c = 0; c < ncols; ++c) {
        if (table.column(c)->IsNull(r)) bitmap[c / 8] |= (1u << (c % 8));
      }
      out->WriteRaw(bitmap.data(), bitmap.size());
      for (size_t c = 0; c < ncols; ++c) {
        const Column& col = *table.column(c);
        if (col.IsNull(r)) continue;
        switch (col.type()) {
          case TypeId::kBool:
            out->WriteU8(col.bool_data()[r]);
            break;
          case TypeId::kInt32:
            out->WriteI32(col.i32_data()[r]);
            break;
          case TypeId::kInt64:
            out->WriteI64(col.i64_data()[r]);
            break;
          case TypeId::kDouble:
            out->WriteDouble(col.f64_data()[r]);
            break;
          case TypeId::kVarchar:
          case TypeId::kBlob:
            out->WriteString(col.str_data()[r]);
            break;
        }
      }
    }
  }
  return Status::OK();
}

void EncodeEnd(ByteWriter* out) { out->WriteU8(kEndMarker); }

Result<bool> DecodeMessages(ByteReader* in, WireProtocol protocol,
                            Table* table) {
  size_t ncols = table->num_columns();
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
        MLCS_RETURN_IF_ERROR(DecodeColumnRun(table->column(c).get(), count,
                                             any_null != 0, in));
      }
      continue;
    }
    if (marker != kRowMarker) {
      return Status::ParseError("unexpected message marker " +
                                std::to_string(marker));
    }
    if (protocol == WireProtocol::kPgText) {
      for (size_t c = 0; c < ncols; ++c) {
        Column* col = table->column(c).get();
        MLCS_ASSIGN_OR_RETURN(int32_t len, in->ReadI32());
        if (len < 0) {
          col->AppendNull();
          continue;
        }
        // Checked before allocating: a corrupt length must not size a
        // buffer beyond the frame itself.
        if (static_cast<size_t>(len) > in->remaining()) {
          return Status::OutOfRange("truncated pg-text field");
        }
        std::string text(static_cast<size_t>(len), '\0');
        MLCS_RETURN_IF_ERROR(in->ReadRaw(text.data(), text.size()));
        // Client-side conversion: text → native value (the per-cell parse
        // cost the paper's PostgreSQL/MySQL bars pay).
        switch (col->type()) {
          case TypeId::kBool:
            col->AppendBool(text == "t" || text == "true");
            break;
          case TypeId::kInt32: {
            MLCS_ASSIGN_OR_RETURN(int32_t v, ParseInt32(text));
            col->AppendInt32(v);
            break;
          }
          case TypeId::kInt64: {
            MLCS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
            col->AppendInt64(v);
            break;
          }
          case TypeId::kDouble: {
            MLCS_ASSIGN_OR_RETURN(double v, ParseDouble(text));
            col->AppendDouble(v);
            break;
          }
          case TypeId::kVarchar:
          case TypeId::kBlob:
            col->AppendString(std::move(text));
            break;
        }
      }
    } else {
      size_t bitmap_bytes = (ncols + 7) / 8;
      std::vector<uint8_t> bitmap(bitmap_bytes);
      MLCS_RETURN_IF_ERROR(in->ReadRaw(bitmap.data(), bitmap.size()));
      for (size_t c = 0; c < ncols; ++c) {
        Column* col = table->column(c).get();
        if (bitmap[c / 8] & (1u << (c % 8))) {
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
    }
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
