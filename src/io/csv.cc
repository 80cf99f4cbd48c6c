#include "io/csv.h"

#include <charconv>
#include <cstdio>
#include <memory>

#include "common/string_util.h"

namespace mlcs::io {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Result<std::string> ReadWholeFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::fseek(f.get(), 0, SEEK_END);
  long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (size < 0) return Status::IoError("cannot stat '" + path + "'");
  std::string data(static_cast<size_t>(size), '\0');
  if (std::fread(data.data(), 1, data.size(), f.get()) != data.size()) {
    return Status::IoError("short read from '" + path + "'");
  }
  return data;
}

bool NeedsQuoting(const std::string& s, char delimiter) {
  return s.find(delimiter) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos ||
         s.find('\r') != std::string::npos;
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Splits one line into field views, handling quoted fields. `line` must
/// outlive the returned views.
void SplitLine(std::string_view line, char delimiter,
               std::vector<std::string>* fields) {
  fields->clear();
  size_t i = 0;
  while (true) {
    std::string field;
    if (i < line.size() && line[i] == '"') {
      ++i;
      while (i < line.size()) {
        if (line[i] == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            field.push_back('"');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        field.push_back(line[i]);
        ++i;
      }
    } else {
      size_t start = i;
      while (i < line.size() && line[i] != delimiter) ++i;
      field.assign(line.substr(start, i - start));
    }
    fields->push_back(std::move(field));
    if (i >= line.size()) break;
    if (line[i] == delimiter) ++i;
  }
}

Status AppendField(Column* col, const std::string& field) {
  if (field.empty() && col->type() != TypeId::kVarchar) {
    col->AppendNull();
    return Status::OK();
  }
  switch (col->type()) {
    case TypeId::kBool: {
      MLCS_ASSIGN_OR_RETURN(Value v, Value::Varchar(field).CastTo(
                                         TypeId::kBool));
      col->AppendBool(v.bool_value());
      return Status::OK();
    }
    case TypeId::kInt32: {
      MLCS_ASSIGN_OR_RETURN(int32_t v, ParseInt32(field));
      col->AppendInt32(v);
      return Status::OK();
    }
    case TypeId::kInt64: {
      MLCS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
      col->AppendInt64(v);
      return Status::OK();
    }
    case TypeId::kDouble: {
      MLCS_ASSIGN_OR_RETURN(double v, ParseDouble(field));
      col->AppendDouble(v);
      return Status::OK();
    }
    case TypeId::kVarchar:
      col->AppendString(field);
      return Status::OK();
    case TypeId::kBlob:
      return Status::NotImplemented("BLOB columns cannot be read from CSV");
  }
  return Status::Internal("unreachable");
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  MLCS_RETURN_IF_ERROR(table.Validate());
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  // The row loop reads raw payload vectors; encoded columns write their
  // decoded form (CSV is plain text either way).
  std::vector<ColumnPtr> decoded(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c)->is_encoded()) {
      decoded[c] = table.column(c)->Decode();
    }
  }
  std::string buffer;
  buffer.reserve(1 << 20);
  if (options.has_header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) buffer.push_back(options.delimiter);
      buffer.append(table.schema().field(c).name);
    }
    buffer.push_back('\n');
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) buffer.push_back(options.delimiter);
      const auto& col =
          decoded[c] != nullptr ? *decoded[c] : *table.column(c);
      if (col.IsNull(r)) continue;  // NULL → empty field
      switch (col.type()) {
        case TypeId::kBool:
          buffer.append(col.bool_data()[r] != 0 ? "true" : "false");
          break;
        case TypeId::kInt32:
          buffer.append(std::to_string(col.i32_data()[r]));
          break;
        case TypeId::kInt64:
          buffer.append(std::to_string(col.i64_data()[r]));
          break;
        case TypeId::kDouble:
          buffer.append(FormatDouble(col.f64_data()[r]));
          break;
        case TypeId::kVarchar: {
          const std::string& s = col.str_data()[r];
          if (NeedsQuoting(s, options.delimiter)) {
            AppendQuoted(&buffer, s);
          } else {
            buffer.append(s);
          }
          break;
        }
        case TypeId::kBlob:
          return Status::NotImplemented("BLOB columns cannot go to CSV");
      }
    }
    buffer.push_back('\n');
    if (buffer.size() > (1 << 20)) {
      if (std::fwrite(buffer.data(), 1, buffer.size(), f.get()) !=
          buffer.size()) {
        return Status::IoError("short write to '" + path + "'");
      }
      buffer.clear();
    }
  }
  if (!buffer.empty() &&
      std::fwrite(buffer.data(), 1, buffer.size(), f.get()) !=
          buffer.size()) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<TablePtr> ReadCsv(const std::string& path, const Schema& schema,
                         const CsvOptions& options) {
  MLCS_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  auto table = Table::Make(schema);
  std::vector<std::string> fields;
  size_t pos = 0;
  bool first_line = true;
  size_t line_no = 0;
  while (pos < data.size()) {
    size_t end = data.find('\n', pos);
    if (end == std::string::npos) end = data.size();
    std::string_view line(data.data() + pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (first_line) {
      first_line = false;
      if (options.has_header) continue;
    }
    SplitLine(line, options.delimiter, &fields);
    if (fields.size() != schema.num_fields()) {
      return Status::ParseError(
          "line " + std::to_string(line_no) + " of '" + path + "' has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.num_fields()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      MLCS_RETURN_IF_ERROR(AppendField(table->column(c).get(), fields[c]));
    }
  }
  return table;
}

}  // namespace mlcs::io
