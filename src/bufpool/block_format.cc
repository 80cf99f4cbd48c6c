#include "bufpool/block_format.h"

#include "common/byte_buffer.h"
#include "common/file_util.h"

namespace mlcs::bufpool {

Status WriteBlockFile(const Table& block, const std::string& path) {
  MLCS_RETURN_IF_ERROR(block.Validate());
  // Payloads first: the header needs their extents.
  ByteWriter payloads;
  std::vector<uint64_t> offsets(block.num_columns());
  std::vector<uint64_t> lengths(block.num_columns());
  for (size_t c = 0; c < block.num_columns(); ++c) {
    offsets[c] = payloads.size();
    block.column(c)->Serialize(&payloads);
    lengths[c] = payloads.size() - offsets[c];
  }
  ByteWriter header;
  header.WriteVarint(block.num_rows());
  header.WriteVarint(block.num_columns());
  for (size_t c = 0; c < block.num_columns(); ++c) {
    const Field& field = block.schema().field(c);
    header.WriteString(field.name);
    header.WriteU8(static_cast<uint8_t>(field.type));
    ZoneMap zone = ComputeZoneMap(*block.column(c));
    header.WriteVarint(zone.null_count);
    header.WriteBool(zone.has_minmax);
    if (zone.has_minmax) {
      zone.min.Serialize(&header);
      zone.max.Serialize(&header);
    }
    header.WriteU64(offsets[c]);
    header.WriteU64(lengths[c]);
  }
  ByteWriter file;
  file.WriteU32(kBlockMagic);
  file.WriteU16(kBlockFormatVersion);
  file.WriteU32(static_cast<uint32_t>(header.size()));
  file.WriteRaw(header.data().data(), header.size());
  file.WriteRaw(payloads.data().data(), payloads.size());
  return AtomicWriteFile(path, file.data().data(), file.size());
}

Result<BlockMeta> ReadBlockMeta(const std::string& path) {
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> fixed,
                        ReadFileRegion(path, 0, kBlockFixedHeaderBytes));
  ByteReader fixed_reader(fixed);
  MLCS_ASSIGN_OR_RETURN(uint32_t magic, fixed_reader.ReadU32());
  if (magic != kBlockMagic) {
    return Status::ParseError("'" + path + "' is not an mlcs block file");
  }
  MLCS_ASSIGN_OR_RETURN(uint16_t version, fixed_reader.ReadU16());
  if (version != kBlockFormatVersion) {
    return Status::ParseError("'" + path + "': unsupported block version " +
                              std::to_string(version));
  }
  MLCS_ASSIGN_OR_RETURN(uint32_t header_len, fixed_reader.ReadU32());
  if (header_len == 0 || header_len > (64u << 20)) {
    return Status::ParseError("'" + path + "': implausible header length");
  }
  MLCS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> header_bytes,
      ReadFileRegion(path, kBlockFixedHeaderBytes, header_len));
  ByteReader header(header_bytes);
  BlockMeta meta;
  meta.path = path;
  MLCS_ASSIGN_OR_RETURN(meta.rows, header.ReadVarint());
  // Smallest column entry: one-byte name length, type tag, null count and
  // min/max flag, plus the two u64 payload extents.
  constexpr size_t kMinColumnEntryBytes = 1 + 1 + 1 + 1 + 8 + 8;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_cols,
                        header.ReadCount(kMinColumnEntryBytes, "block column"));
  uint64_t payload_base = kBlockFixedHeaderBytes + header_len;
  meta.columns.reserve(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    BlockColumnMeta col;
    MLCS_ASSIGN_OR_RETURN(col.name, header.ReadString());
    MLCS_ASSIGN_OR_RETURN(uint8_t type_byte, header.ReadU8());
    if (type_byte > static_cast<uint8_t>(TypeId::kBlob)) {
      return Status::ParseError("'" + path + "': invalid column type tag");
    }
    col.type = static_cast<TypeId>(type_byte);
    MLCS_ASSIGN_OR_RETURN(col.zone.null_count, header.ReadVarint());
    MLCS_ASSIGN_OR_RETURN(col.zone.has_minmax, header.ReadBool());
    if (col.zone.has_minmax) {
      MLCS_ASSIGN_OR_RETURN(col.zone.min, Value::Deserialize(&header));
      MLCS_ASSIGN_OR_RETURN(col.zone.max, Value::Deserialize(&header));
    }
    MLCS_ASSIGN_OR_RETURN(uint64_t rel_offset, header.ReadU64());
    MLCS_ASSIGN_OR_RETURN(col.payload_length, header.ReadU64());
    col.payload_offset = payload_base + rel_offset;
    meta.columns.push_back(std::move(col));
  }
  return meta;
}

Result<ColumnPtr> ReadColumnChunk(const BlockMeta& block, size_t col_idx) {
  if (col_idx >= block.columns.size()) {
    return Status::InvalidArgument("block column index out of range");
  }
  const BlockColumnMeta& col = block.columns[col_idx];
  MLCS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      ReadFileRegion(block.path, col.payload_offset, col.payload_length));
  ByteReader reader(bytes);
  MLCS_ASSIGN_OR_RETURN(ColumnPtr column, Column::Deserialize(&reader));
  if (column->size() != block.rows || column->type() != col.type) {
    return Status::ParseError("'" + block.path + "': column '" + col.name +
                              "' payload does not match its header "
                              "(torn write?)");
  }
  return column;
}

}  // namespace mlcs::bufpool
