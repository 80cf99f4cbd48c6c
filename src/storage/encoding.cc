#include "storage/encoding.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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

/// Profiles and encodes one typed payload. Returns nullptr when neither
/// encoding clears the policy thresholds — the caller keeps the plain
/// column. `make_col` turns a std::vector<T> back into a plain column of
/// the right type.
template <typename T, typename MakeCol>
ColumnPtr EncodeTypedImpl(const Column& column, const std::vector<T>& v,
                          const EncodingPolicy& policy, bool dict_eligible,
                          const MakeCol& make_col) {
  size_t n = v.size();
  const uint8_t* valid = column.validity_data();
  auto row_null = [&](size_t i) { return valid != nullptr && valid[i] == 0; };
  // Runs use null-equality: two rows are equal iff both null or both valid
  // with equal payloads.
  auto rows_equal = [&](size_t a, size_t b) {
    bool a_null = row_null(a);
    bool b_null = row_null(b);
    if (a_null || b_null) return a_null && b_null;
    return v[a] == v[b];
  };
  // One profiling pass: run count plus distinct non-null values, aborting
  // the distinct set once it is provably over the dictionary cap.
  size_t runs = 1;
  bool too_many_distinct = false;
  std::unordered_set<T> seen;
  if (dict_eligible && !row_null(0)) seen.insert(v[0]);
  for (size_t i = 1; i < n; ++i) {
    if (!rows_equal(i - 1, i)) ++runs;
    if (dict_eligible && !too_many_distinct && !row_null(i)) {
      seen.insert(v[i]);
      if (seen.size() > policy.max_dict_size) {
        too_many_distinct = true;  // spill to plain; stop paying for the set
        seen.clear();
      }
    }
  }
  if (runs <= static_cast<size_t>(static_cast<double>(n) *
                                  policy.max_run_fraction)) {
    // RLE: one value slot per run (null runs keep a default slot; the
    // per-row validity is authoritative).
    std::vector<T> run_vals;
    std::vector<uint32_t> run_lens;
    run_vals.reserve(runs);
    run_lens.reserve(runs);
    size_t start = 0;
    for (size_t i = 1; i <= n; ++i) {
      if (i < n && rows_equal(i - 1, i)) continue;
      run_vals.push_back(row_null(start) ? T{} : v[start]);
      run_lens.push_back(static_cast<uint32_t>(i - start));
      start = i;
    }
    std::vector<uint8_t> validity;
    if (valid != nullptr) validity.assign(valid, valid + n);
    Result<ColumnPtr> rle =
        Column::MakeRle(column.type(), make_col(std::move(run_vals)),
                        std::move(run_lens), std::move(validity));
    return rle.ok() ? rle.ValueOrDie() : nullptr;
  }
  size_t non_null = n - column.null_count();
  if (dict_eligible && !too_many_distinct &&
      seen.size() <= static_cast<size_t>(static_cast<double>(non_null) *
                                         policy.max_dict_fraction)) {
    // Dictionary: sorted unique values, dense codes per row.
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
    Result<ColumnPtr> dict = Column::MakeDictionary(
        column.type(), std::move(codes), make_col(std::move(uniq)),
        std::move(validity));
    return dict.ok() ? dict.ValueOrDie() : nullptr;
  }
  return nullptr;
}

}  // namespace

ColumnPtr EncodeColumn(const ColumnPtr& column, const EncodingPolicy& policy) {
  if (column == nullptr || column->is_encoded()) return column;
  size_t n = column->size();
  if (n < policy.min_rows) return column;
  ColumnPtr encoded;
  switch (column->type()) {
    case TypeId::kBool:
      encoded = EncodeTypedImpl(
          *column, column->bool_data(), policy, /*dict_eligible=*/false,
          [](std::vector<uint8_t> v) { return Column::FromBool(std::move(v)); });
      break;
    case TypeId::kInt32:
      encoded = EncodeTypedImpl(
          *column, column->i32_data(), policy, /*dict_eligible=*/true,
          [](std::vector<int32_t> v) {
            return Column::FromInt32(std::move(v));
          });
      break;
    case TypeId::kInt64:
      encoded = EncodeTypedImpl(
          *column, column->i64_data(), policy, /*dict_eligible=*/true,
          [](std::vector<int64_t> v) {
            return Column::FromInt64(std::move(v));
          });
      break;
    case TypeId::kVarchar:
      encoded = EncodeTypedImpl(*column, column->str_data(), policy,
                                /*dict_eligible=*/true,
                                [](std::vector<std::string> v) {
                                  return Column::FromStrings(std::move(v));
                                });
      break;
    case TypeId::kDouble:  // float runs are rare and NaN poisons equality
    case TypeId::kBlob:    // serialized model payloads: never encoded
      return column;
  }
  if (encoded == nullptr) return column;
  ColumnsEncodedCounter()->Add(1);
  EncodedBytesCounter()->Add(encoded->ByteSize());
  return encoded;
}

TablePtr EncodeTable(const TablePtr& table, const EncodingPolicy& policy) {
  if (table == nullptr || !EncodingEnabled()) return table;
  bool changed = false;
  std::vector<ColumnPtr> columns;
  columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ColumnPtr encoded = EncodeColumn(table->column(c), policy);
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
