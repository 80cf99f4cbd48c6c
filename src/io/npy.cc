#include "io/npy.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/file_util.h"
#include "common/string_util.h"

namespace mlcs::io {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

constexpr char kMagic[] = "\x93NUMPY";

Result<const char*> DescrFor(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "|b1";
    case TypeId::kInt32:
      return "<i4";
    case TypeId::kInt64:
      return "<i8";
    case TypeId::kDouble:
      return "<f8";
    default:
      return Status::NotImplemented(
          std::string(TypeIdToString(type)) +
          " columns cannot be stored as .npy (numeric arrays only)");
  }
}

Result<TypeId> TypeForDescr(const std::string& descr) {
  if (descr == "|b1") return TypeId::kBool;
  if (descr == "<i4") return TypeId::kInt32;
  if (descr == "<i8") return TypeId::kInt64;
  if (descr == "<f8") return TypeId::kDouble;
  return Status::NotImplemented("unsupported .npy dtype '" + descr + "'");
}

size_t ElementBytes(TypeId type) {
  return type == TypeId::kBool ? 1 : type == TypeId::kInt32 ? 4 : 8;
}

/// Pulls the value of a quoted or bare key out of the header dict text.
Result<std::string> HeaderField(const std::string& header,
                                const std::string& key) {
  size_t pos = header.find("'" + key + "'");
  if (pos == std::string::npos) {
    return Status::ParseError(".npy header is missing '" + key + "'");
  }
  pos = header.find(':', pos);
  if (pos == std::string::npos) return Status::ParseError("bad .npy header");
  ++pos;
  while (pos < header.size() && header[pos] == ' ') ++pos;
  size_t end = pos;
  if (header[pos] == '\'') {
    ++pos;
    end = header.find('\'', pos);
    if (end == std::string::npos) return Status::ParseError("bad .npy header");
    return header.substr(pos, end - pos);
  }
  if (header[pos] == '(') {
    end = header.find(')', pos);
    if (end == std::string::npos) return Status::ParseError("bad .npy header");
    return header.substr(pos, end - pos + 1);
  }
  while (end < header.size() && header[end] != ',' && header[end] != '}') {
    ++end;
  }
  return Trim(header.substr(pos, end - pos));
}

}  // namespace

Status WriteNpy(const Column& column, const std::string& path) {
  MLCS_ASSIGN_OR_RETURN(const char* descr, DescrFor(column.type()));
  if (column.has_nulls()) {
    return Status::InvalidArgument(
        ".npy cannot represent NULLs; fill them first");
  }
  std::string header = std::string("{'descr': '") + descr +
                       "', 'fortran_order': False, 'shape': (" +
                       std::to_string(column.size()) + ",), }";
  // Pad so that magic(6)+version(2)+len(2)+header is a multiple of 64,
  // ending with '\n' — as numpy.save does.
  size_t unpadded = 10 + header.size() + 1;
  size_t padding = (64 - unpadded % 64) % 64;
  header.append(padding, ' ');
  header.push_back('\n');

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  std::fwrite(kMagic, 1, 6, f.get());
  uint8_t version[2] = {1, 0};
  std::fwrite(version, 1, 2, f.get());
  uint16_t hlen = static_cast<uint16_t>(header.size());
  std::fwrite(&hlen, sizeof(hlen), 1, f.get());
  std::fwrite(header.data(), 1, header.size(), f.get());

  const void* data = nullptr;
  size_t bytes = 0;
  switch (column.type()) {
    case TypeId::kBool:
      data = column.bool_data().data();
      bytes = column.size();
      break;
    case TypeId::kInt32:
      data = column.i32_data().data();
      bytes = column.size() * sizeof(int32_t);
      break;
    case TypeId::kInt64:
      data = column.i64_data().data();
      bytes = column.size() * sizeof(int64_t);
      break;
    case TypeId::kDouble:
      data = column.f64_data().data();
      bytes = column.size() * sizeof(double);
      break;
    default:
      return Status::Internal("unreachable");
  }
  if (bytes > 0 && std::fwrite(data, 1, bytes, f.get()) != bytes) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<ColumnPtr> ReadNpy(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  char magic[6];
  if (std::fread(magic, 1, 6, f.get()) != 6 ||
      std::memcmp(magic, kMagic, 6) != 0) {
    return Status::ParseError("'" + path + "' is not a .npy file");
  }
  uint8_t version[2];
  if (std::fread(version, 1, 2, f.get()) != 2 || version[0] != 1) {
    return Status::NotImplemented("only .npy format 1.0 is supported");
  }
  uint16_t hlen = 0;
  if (std::fread(&hlen, sizeof(hlen), 1, f.get()) != 1) {
    return Status::ParseError("truncated .npy header");
  }
  std::string header(hlen, '\0');
  if (std::fread(header.data(), 1, hlen, f.get()) != hlen) {
    return Status::ParseError("truncated .npy header");
  }
  MLCS_ASSIGN_OR_RETURN(std::string descr, HeaderField(header, "descr"));
  MLCS_ASSIGN_OR_RETURN(TypeId type, TypeForDescr(descr));
  MLCS_ASSIGN_OR_RETURN(std::string order,
                        HeaderField(header, "fortran_order"));
  if (order != "False") {
    return Status::NotImplemented("fortran-order .npy not supported");
  }
  MLCS_ASSIGN_OR_RETURN(std::string shape, HeaderField(header, "shape"));
  // shape looks like "(N,)" — 1-D only.
  std::string inner = Trim(shape.substr(1, shape.size() - 2));
  if (!inner.empty() && inner.back() == ',') inner.pop_back();
  if (inner.find(',') != std::string::npos) {
    return Status::NotImplemented("only 1-D .npy arrays are supported");
  }
  MLCS_ASSIGN_OR_RETURN(int64_t n, ParseInt64(inner));
  if (n < 0) return Status::ParseError("negative .npy shape");
  // The shape comes from the file: check it against the bytes that follow
  // before it sizes an allocation.
  MLCS_ASSIGN_OR_RETURN(uint64_t left, BytesLeft(f.get()));
  if (static_cast<uint64_t>(n) > left / ElementBytes(type)) {
    return Status::ParseError(".npy shape (" + inner + ",) exceeds the " +
                              std::to_string(left) + " data bytes in '" +
                              path + "'");
  }

  ColumnPtr col = Column::Make(type);
  size_t count = static_cast<size_t>(n);
  switch (type) {
    case TypeId::kBool: {
      auto& dst = col->bool_data();
      dst.resize(count);
      if (std::fread(dst.data(), 1, count, f.get()) != count) {
        return Status::IoError("truncated .npy data in '" + path + "'");
      }
      break;
    }
    case TypeId::kInt32: {
      auto& dst = col->i32_data();
      dst.resize(count);
      if (std::fread(dst.data(), sizeof(int32_t), count, f.get()) != count) {
        return Status::IoError("truncated .npy data in '" + path + "'");
      }
      break;
    }
    case TypeId::kInt64: {
      auto& dst = col->i64_data();
      dst.resize(count);
      if (std::fread(dst.data(), sizeof(int64_t), count, f.get()) != count) {
        return Status::IoError("truncated .npy data in '" + path + "'");
      }
      break;
    }
    case TypeId::kDouble: {
      auto& dst = col->f64_data();
      dst.resize(count);
      if (std::fread(dst.data(), sizeof(double), count, f.get()) != count) {
        return Status::IoError("truncated .npy data in '" + path + "'");
      }
      break;
    }
    default:
      return Status::Internal("unreachable");
  }
  return col;
}

Status SaveTableAsNpyDir(const Table& table, const std::string& dir) {
  MLCS_RETURN_IF_ERROR(table.Validate());
  std::string manifest;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    std::string file = std::to_string(c) + "_" + field.name + ".npy";
    MLCS_RETURN_IF_ERROR(WriteNpy(*table.column(c), dir + "/" + file));
    manifest += file + "," + field.name + "," + TypeIdToString(field.type) +
                "\n";
  }
  FilePtr f(std::fopen((dir + "/columns.txt").c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot write manifest in '" + dir + "'");
  }
  if (std::fwrite(manifest.data(), 1, manifest.size(), f.get()) !=
      manifest.size()) {
    return Status::IoError("short manifest write in '" + dir + "'");
  }
  return Status::OK();
}

Result<TablePtr> LoadTableFromNpyDir(const std::string& dir) {
  FilePtr f(std::fopen((dir + "/columns.txt").c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("'" + dir + "' has no columns.txt manifest");
  }
  std::string manifest;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    manifest.append(buf, got);
  }
  Schema schema;
  std::vector<ColumnPtr> columns;
  for (const std::string& line : SplitString(manifest, '\n')) {
    if (Trim(line).empty()) continue;
    auto parts = SplitString(line, ',');
    if (parts.size() != 3) {
      return Status::ParseError("bad manifest line: " + line);
    }
    MLCS_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(parts[2]));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, ReadNpy(dir + "/" + parts[0]));
    if (col->type() != type) {
      return Status::TypeMismatch("manifest/file type mismatch for " +
                                  parts[0]);
    }
    schema.AddField(parts[1], type);
    columns.push_back(std::move(col));
  }
  auto table = std::make_shared<Table>(std::move(schema),
                                       std::move(columns));
  MLCS_RETURN_IF_ERROR(table->Validate());
  return table;
}

}  // namespace mlcs::io
