#include "io/csv.h"

#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "storage/text_cell.h"

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

/// One field of a record as it sits in the file. A quoted field's text
/// is what lies between its quotes; `escaped` marks one that still holds
/// "" pairs, the only fields that are copied before parsing.
struct Field {
  std::string_view text;
  bool escaped = false;
};

/// Splits the record starting at data[*pos] into `fields` and moves *pos
/// past the newline that ends it. A quoted field may hold the delimiter
/// and newlines; a '\r' before the record's newline is dropped. `*lines`
/// counts the newlines consumed.
void SplitRecord(std::string_view data, char delimiter, size_t* pos,
                 std::vector<Field>* fields, size_t* lines) {
  fields->clear();
  const size_t n = data.size();
  size_t i = *pos;
  while (true) {
    Field field;
    if (i < n && data[i] == '"') {
      size_t start = ++i;
      while (i < n) {
        if (data[i] == '"') {
          if (i + 1 < n && data[i + 1] == '"') {
            field.escaped = true;
            i += 2;
            continue;
          }
          break;
        }
        if (data[i] == '\n') ++*lines;
        ++i;
      }
      field.text = data.substr(start, i - start);
      if (i < n) ++i;  // the closing quote
      if (i < n && data[i] == '\r' && (i + 1 == n || data[i + 1] == '\n')) {
        ++i;
      }
    } else {
      size_t start = i;
      while (i < n && data[i] != delimiter && data[i] != '\n') ++i;
      field.text = data.substr(start, i - start);
      if ((i == n || data[i] == '\n') && !field.text.empty() &&
          field.text.back() == '\r') {
        field.text.remove_suffix(1);
      }
    }
    fields->push_back(field);
    if (i >= n) break;
    if (data[i] == '\n') {
      ++*lines;
      ++i;
      break;
    }
    if (data[i] == delimiter) ++i;
  }
  *pos = i;
}

/// Copies a quoted field's text with each "" pair read as one '"'.
void Unescape(std::string_view text, std::string* out) {
  out->clear();
  for (size_t i = 0; i < text.size(); ++i) {
    out->push_back(text[i]);
    if (text[i] == '"') ++i;
  }
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  MLCS_RETURN_IF_ERROR(table.Validate());
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
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
      const Column& col = *table.column(c);
      if (col.IsNull(r)) continue;  // NULL → empty field
      switch (col.type()) {
        case TypeId::kBool:
          buffer.append(col.bool_data()[r] != 0 ? "true" : "false");
          break;
        case TypeId::kInt32:
        case TypeId::kInt64:
        case TypeId::kDouble: {
          char text[kMaxNumberCellBytes];
          buffer.append(text, FormatNumberCell(col, r, text));
          break;
        }
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
  std::vector<Column*> cols(schema.num_fields());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = table->column(c).get();
  std::vector<Field> fields;
  fields.reserve(cols.size());
  std::string unescaped;
  size_t pos = 0;
  bool first_record = true;
  size_t lines = 0;  // newlines before the current record
  while (pos < data.size()) {
    // Blank lines (a lone "\r" included) hold no record.
    if (data[pos] == '\n') {
      ++lines;
      ++pos;
      continue;
    }
    if (data[pos] == '\r' &&
        (pos + 1 == data.size() || data[pos + 1] == '\n')) {
      ++pos;
      continue;
    }
    const size_t line_no = lines + 1;
    SplitRecord(data, options.delimiter, &pos, &fields, &lines);
    if (first_record) {
      first_record = false;
      if (options.has_header) continue;
    }
    if (fields.size() != cols.size()) {
      return Status::ParseError(
          "line " + std::to_string(line_no) + " of '" + path + "' has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(cols.size()));
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      Column* col = cols[c];
      std::string_view text = fields[c].text;
      if (fields[c].escaped) {
        Unescape(text, &unescaped);
        text = unescaped;
      }
      if (text.empty() && col->type() != TypeId::kVarchar) {
        col->AppendNull();  // empty field → NULL
        continue;
      }
      if (col->type() == TypeId::kBlob) {
        return Status::NotImplemented("BLOB columns cannot be read from CSV");
      }
      MLCS_RETURN_IF_ERROR(AppendTextCell(col, text));
    }
  }
  return table;
}

}  // namespace mlcs::io
