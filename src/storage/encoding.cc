#include "storage/encoding.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mlcs {

namespace {

/// Default-on toggle (same pattern as zone-map skipping —
/// bufpool/zone_map.cc).
std::atomic<int>& EncodingState() {
  static std::atomic<int> state(1);
  return state;
}

/// mlcs.encode.* series; pointers cached so hot paths skip the registry
/// lock.
obs::Counter* ColumnsEncodedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mlcs.encode.columns_encoded");
  return counter;
}

obs::Counter* EncodedBytesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.encoded_bytes");
  return counter;
}

obs::Counter* DecodeEventsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.decode_events");
  return counter;
}

obs::Counter* CodePathHitsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("mlcs.encode.code_path_hits");
  return counter;
}

/// Columns with fewer rows stay plain.
constexpr size_t kMinRows = 64;
/// More distinct values than this and a column gets no dictionary: its
/// codes would need 4 bytes and the profiling pass stops counting.
constexpr size_t kMaxDictSize = 1u << 16;

/// Bytes one stored value adds to Column::ByteSize: its width, or a
/// string's length.
template <typename T>
size_t ValueBytes(const T& /*value*/) {
  return sizeof(T);
}
size_t ValueBytes(const std::string& value) { return value.size(); }

/// Profiles one typed payload and dictionary-encodes it when that takes
/// fewer bytes than plain (Column::ByteSize, without the validity bytes
/// both share; a tie stays plain). Returns nullptr when plain is kept —
/// the caller keeps the column. `make_col` turns a std::vector<T> back
/// into a plain column of the right type.
template <typename T, typename MakeCol>
ColumnPtr EncodeTypedImpl(const Column& column, const std::vector<T>& v,
                          const MakeCol& make_col) {
  size_t n = v.size();
  const uint8_t* valid = column.validity_data();
  auto row_null = [&](size_t i) { return valid != nullptr && valid[i] == 0; };
  // One profiling pass: the plain bytes and the distinct values' bytes.
  // Past the dictionary cap the column stays plain.
  size_t plain_bytes = 0;
  size_t dict_value_bytes = 0;
  std::unordered_set<T> seen;
  for (size_t i = 0; i < n; ++i) {
    plain_bytes += ValueBytes(v[i]);
    if (!row_null(i) && seen.insert(v[i]).second) {
      dict_value_bytes += ValueBytes(v[i]);
      if (seen.size() > kMaxDictSize) return nullptr;  // no dictionary
    }
  }
  // Column::CodeWidth: one code byte up to 256 entries, else two.
  size_t dict_bytes = n * (seen.size() <= (1u << 8) ? 1 : 2) + dict_value_bytes;
  if (dict_bytes >= plain_bytes) return nullptr;
  // Sorted unique values, dense codes per row.
  std::vector<T> uniq(seen.begin(), seen.end());
  std::sort(uniq.begin(), uniq.end());
  std::unordered_map<T, uint32_t> code_of;
  code_of.reserve(uniq.size());
  for (size_t i = 0; i < uniq.size(); ++i) {
    code_of.emplace(uniq[i], static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> codes(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!row_null(i)) codes[i] = code_of.find(v[i])->second;
  }
  std::vector<uint8_t> validity;
  if (valid != nullptr) validity.assign(valid, valid + n);
  Result<ColumnPtr> dict =
      Column::MakeDictionary(column.type(), std::move(codes),
                             make_col(std::move(uniq)), std::move(validity));
  return dict.ok() ? dict.ValueOrDie() : nullptr;
}

}  // namespace

ColumnPtr EncodeColumn(const ColumnPtr& column) {
  if (column == nullptr || column->is_encoded()) return column;
  if (column->size() < kMinRows) return column;
  ColumnPtr encoded;
  switch (column->type()) {
    case TypeId::kInt32:
      encoded = EncodeTypedImpl(*column, column->i32_data(),
                                [](std::vector<int32_t> v) {
                                  return Column::FromInt32(std::move(v));
                                });
      break;
    case TypeId::kInt64:
      encoded = EncodeTypedImpl(*column, column->i64_data(),
                                [](std::vector<int64_t> v) {
                                  return Column::FromInt64(std::move(v));
                                });
      break;
    case TypeId::kVarchar:
      encoded = EncodeTypedImpl(*column, column->str_data(),
                                [](std::vector<std::string> v) {
                                  return Column::FromStrings(std::move(v));
                                });
      break;
    case TypeId::kBool:    // two values: a dictionary saves no bytes
    case TypeId::kDouble:  // NaN poisons equality
    case TypeId::kBlob:    // serialized model payloads: never encoded
      return column;
  }
  if (encoded == nullptr) return column;
  ColumnsEncodedCounter()->Add(1);
  EncodedBytesCounter()->Add(encoded->ByteSize());
  return encoded;
}

TablePtr EncodeTable(const TablePtr& table) {
  if (table == nullptr || !EncodingEnabled()) return table;
  bool changed = false;
  std::vector<ColumnPtr> columns;
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ColumnPtr encoded = EncodeColumn(table->column(c));
    changed = changed || encoded != table->column(c);
    columns.push_back(std::move(encoded));
  }
  if (!changed) return table;
  return std::make_shared<Table>(table->schema(), std::move(columns));
}

TablePtr DecodeTable(const TablePtr& table) {
  if (table == nullptr) return table;
  bool changed = false;
  std::vector<ColumnPtr> columns;
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const ColumnPtr& col = table->column(c);
    if (col != nullptr && col->is_encoded()) {
      columns.push_back(col->Decode());
      changed = true;
    } else {
      columns.push_back(col);
    }
  }
  if (!changed) return table;
  return std::make_shared<Table>(table->schema(), std::move(columns));
}

bool EncodingEnabled() {
  return EncodingState().load(std::memory_order_relaxed) != 0;
}

void SetEncodingEnabled(bool enabled) {
  EncodingState().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t EncodeColumnsEncoded() { return ColumnsEncodedCounter()->Value(); }
uint64_t EncodeEncodedBytes() { return EncodedBytesCounter()->Value(); }
uint64_t EncodeDecodeEvents() { return DecodeEventsCounter()->Value(); }
uint64_t EncodeCodePathHits() { return CodePathHitsCounter()->Value(); }

void CountDecodeEvent() { DecodeEventsCounter()->Add(1); }
void CountCodePathHit() { CodePathHitsCounter()->Add(1); }

}  // namespace mlcs
