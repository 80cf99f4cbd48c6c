#include "io/h5b.h"

#include <cstdio>
#include <memory>

#include "common/byte_buffer.h"
#include "common/file_util.h"

namespace mlcs::io {

namespace {
constexpr uint32_t kMagic = 0x48354232;  // "H5B2" (chunks length-prefixed)

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteBytes(std::FILE* f, const void* data, size_t size,
                  const std::string& path) {
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}
}  // namespace

Status WriteH5b(const Table& table, const std::string& path,
                const H5bOptions& options) {
  MLCS_RETURN_IF_ERROR(table.Validate());
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  ByteWriter header;
  header.WriteU32(kMagic);
  table.schema().Serialize(&header);
  header.WriteVarint(table.num_rows());
  header.WriteVarint(options.chunk_rows);
  MLCS_RETURN_IF_ERROR(
      WriteBytes(f.get(), header.data().data(), header.size(), path));
  size_t rows = table.num_rows();
  for (size_t begin = 0; begin < rows; begin += options.chunk_rows) {
    size_t length = std::min(options.chunk_rows, rows - begin);
    ByteWriter chunk;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      table.column(c)->Slice(begin, length)->Serialize(&chunk);
    }
    uint64_t chunk_len = chunk.size();
    MLCS_RETURN_IF_ERROR(
        WriteBytes(f.get(), &chunk_len, sizeof(chunk_len), path));
    MLCS_RETURN_IF_ERROR(
        WriteBytes(f.get(), chunk.data().data(), chunk.size(), path));
  }
  return Status::OK();
}

Result<H5bChunkReader> H5bChunkReader::Open(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  // The header is small (schema + counts); load a bounded prefix and parse.
  std::vector<uint8_t> prefix(1 << 16);
  size_t got = std::fread(prefix.data(), 1, prefix.size(), f.get());
  prefix.resize(got);
  ByteReader reader(prefix);
  MLCS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return Status::ParseError("'" + path + "' is not an mlcs .h5b file");
  }
  H5bChunkReader out;
  MLCS_ASSIGN_OR_RETURN(out.schema_, Schema::Deserialize(&reader));
  MLCS_ASSIGN_OR_RETURN(out.total_rows_, reader.ReadVarint());
  MLCS_ASSIGN_OR_RETURN(out.chunk_rows_, reader.ReadVarint());
  if (out.chunk_rows_ == 0) {
    return Status::ParseError("zero chunk size in '" + path + "'");
  }
  // Reposition to the first chunk.
  if (std::fseek(f.get(), static_cast<long>(reader.position()),
                 SEEK_SET) != 0) {
    return Status::IoError("seek failed in '" + path + "'");
  }
  out.file_ = f.release();
  out.path_ = path;
  return out;
}

H5bChunkReader::~H5bChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<TablePtr> H5bChunkReader::NextChunk() {
  if (!HasNext()) {
    return Status::OutOfRange("no more chunks in '" + path_ + "'");
  }
  uint64_t chunk_len = 0;
  if (std::fread(&chunk_len, sizeof(chunk_len), 1, file_) != 1) {
    return Status::IoError("truncated chunk header in '" + path_ + "'");
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t left, BytesLeft(file_));
  if (chunk_len > left) {
    return Status::ParseError("chunk of " + std::to_string(chunk_len) +
                              " bytes exceeds the " + std::to_string(left) +
                              " left in '" + path_ + "'");
  }
  std::vector<uint8_t> bytes(chunk_len);
  if (std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IoError("truncated chunk body in '" + path_ + "'");
  }
  ByteReader reader(bytes);
  std::vector<ColumnPtr> columns;
  columns.reserve(schema_.num_fields());
  uint64_t expected =
      std::min<uint64_t>(chunk_rows_, total_rows_ - rows_read_);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, Column::Deserialize(&reader));
    if (col->type() != schema_.field(c).type ||
        col->size() != expected) {
      return Status::ParseError("chunk shape mismatch in '" + path_ + "'");
    }
    columns.push_back(std::move(col));
  }
  rows_read_ += expected;
  auto table = std::make_shared<Table>(schema_, std::move(columns));
  MLCS_RETURN_IF_ERROR(table->Validate());
  return table;
}

Result<TablePtr> ReadH5b(const std::string& path) {
  MLCS_ASSIGN_OR_RETURN(H5bChunkReader reader, H5bChunkReader::Open(path));
  auto table = Table::Make(reader.schema());
  while (reader.HasNext()) {
    MLCS_ASSIGN_OR_RETURN(TablePtr chunk, reader.NextChunk());
    MLCS_RETURN_IF_ERROR(table->AppendTable(*chunk));
  }
  return table;
}

}  // namespace mlcs::io
