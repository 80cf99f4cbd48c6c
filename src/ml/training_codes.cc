#include "ml/training_codes.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "common/parallel_for.h"
#include "obs/trace.h"

namespace mlcs::ml {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Below this many values (rows × features) the coding pass stays on the
/// calling thread: a pool handoff would cost more than it saves.
constexpr size_t kParallelCodingValues = size_t{1} << 16;

/// -0.0 == 0.0, so both share one code (and one hash key).
double Canonical(double v) { return v == 0.0 ? 0.0 : v; }

/// A feature's distinct non-NaN values, ascending, with their row counts.
struct ValueCounts {
  std::vector<double> values;
  std::vector<uint64_t> counts;
};

/// Numbers the distinct values with codes 1, 2, …: one code per value when
/// there are at most `max_codes`, else equal-frequency ranges — value i
/// lands in range ⌊(rows below i) · max_codes / rows⌋, so a value heavier
/// than one range keeps a range to itself. Fills each code's value range
/// into lo/hi ([0] is the NaN code) and returns every value's code.
std::vector<uint16_t> AssignCodes(const ValueCounts& vc, size_t max_codes,
                                  std::vector<double>* lo,
                                  std::vector<double>* hi) {
  lo->assign(1, kNaN);
  hi->assign(1, kNaN);
  size_t k = vc.values.size();
  uint64_t total = std::accumulate(vc.counts.begin(), vc.counts.end(),
                                   uint64_t{0});
  std::vector<uint16_t> code_of(k);
  uint64_t below = 0;
  size_t range = 0;
  for (size_t i = 0; i < k; ++i) {
    size_t r = k <= max_codes ? i
                              : static_cast<size_t>(below * max_codes / total);
    if (i == 0 || r != range) {
      lo->push_back(vc.values[i]);
      hi->push_back(vc.values[i]);
      range = r;
    } else {
      hi->back() = vc.values[i];
    }
    code_of[i] = static_cast<uint16_t>(lo->size() - 1);
    below += vc.counts[i];
  }
  return code_of;
}

/// Fallback for a feature with more than kMaxValueCodes distinct
/// values: sort a copy, then binary-search each row's value.
void CodeBySorting(const FeatureView& col, size_t n, size_t max_codes,
                   std::vector<uint16_t>* codes, std::vector<double>* lo,
                   std::vector<double>* hi) {
  std::vector<double> sorted;
  sorted.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (!std::isnan(col[r])) sorted.push_back(Canonical(col[r]));
  }
  std::sort(sorted.begin(), sorted.end());
  ValueCounts vc;
  for (double v : sorted) {
    if (vc.values.empty() || v != vc.values.back()) {
      vc.values.push_back(v);
      vc.counts.push_back(0);
    }
    ++vc.counts.back();
  }
  std::vector<uint16_t> code_of = AssignCodes(vc, max_codes, lo, hi);
  for (size_t r = 0; r < n; ++r) {
    double v = col[r];
    if (std::isnan(v)) continue;
    size_t i = static_cast<size_t>(
        std::lower_bound(vc.values.begin(), vc.values.end(), v) -
        vc.values.begin());
    (*codes)[r] = code_of[i];
  }
}

/// Whether a feature is coded by counting: every non-NaN value is an
/// integer in int32 and they span at most max(n, 65536) integers. If so,
/// sets the smallest value and the span. One pass decides.
bool CountableSpan(const int32_t* values, size_t n, int64_t* min,
                   size_t* range) {
  if (n == 0) return false;
  int32_t lo = values[0];
  int32_t hi = values[0];
  for (size_t r = 1; r < n; ++r) {  // vectorizes; minmax_element does not
    lo = std::min(lo, values[r]);
    hi = std::max(hi, values[r]);
  }
  *min = lo;
  *range = static_cast<size_t>(int64_t{hi} - lo + 1);
  return *range <= std::max<size_t>(n, 65536);
}

bool CountableSpan(const double* values, size_t n, int64_t* min,
                   size_t* range) {
  // (v + 1.5·2^52) - 1.5·2^52 rounds any |v| < 2^51 to an integer, so it
  // equals v exactly when v is integral; larger values fail the int32
  // bounds below anyway.
  constexpr double kRound = 0x1.8p52;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = kInf;
  double hi = -kInf;
  bool fractional = false;
  for (size_t r = 0; r < n; ++r) {
    double v = values[r];
    lo = v < lo ? v : lo;  // NaN compares false and is passed over
    hi = v > hi ? v : hi;
    fractional |= (v == v) & ((v + kRound) - kRound != v);
  }
  // All-NaN leaves lo > hi; ±inf and anything past int32 fail the bounds.
  if (fractional || !(lo <= hi) ||
      lo < std::numeric_limits<int32_t>::min() ||
      hi > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *min = static_cast<int64_t>(lo);  // -0.0 becomes 0
  *range = static_cast<size_t>(static_cast<int64_t>(hi) - *min + 1);
  return *range <= std::max<size_t>(n, 65536);
}

/// Codes a feature by counting if CountableSpan accepts it, and returns
/// whether it did: one pass counts the values into a directly indexed
/// array (slot 0 takes the NaN rows, slot 1 + i the value min + i), whose
/// nonzero entries are the distinct values in ascending order with their
/// counts — what the hash pass and its sort produce — and one gather
/// writes the codes.
template <typename T>
bool CodeByCounting(const T* values, size_t n, size_t max_codes,
                    std::vector<uint16_t>* codes, std::vector<double>* lo,
                    std::vector<double>* hi) {
  int64_t min = 0;
  size_t range = 0;
  if (!CountableSpan(values, n, &min, &range)) return false;
  auto slot = [min](T v) -> size_t {
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(v)) return 0;
    }
    return static_cast<size_t>(static_cast<int64_t>(v) - min) + 1;
  };
  std::vector<uint32_t> counts(range + 1, 0);
  for (size_t r = 0; r < n; ++r) ++counts[slot(values[r])];
  ValueCounts vc;
  for (size_t i = 1; i <= range; ++i) {
    if (counts[i] == 0) continue;
    vc.values.push_back(
        static_cast<double>(min + static_cast<int64_t>(i) - 1));
    vc.counts.push_back(counts[i]);
  }
  std::vector<uint16_t> code_of = AssignCodes(vc, max_codes, lo, hi);
  // The count array becomes the value → code table; NaN keeps code 0.
  counts[0] = 0;
  for (size_t i = 1, d = 0; i <= range; ++i) {
    if (counts[i] != 0) counts[i] = code_of[d++];
  }
  codes->resize(n);
  for (size_t r = 0; r < n; ++r) {
    (*codes)[r] = static_cast<uint16_t>(counts[slot(values[r])]);
  }
  return true;
}

/// Codes one feature. A feature CountableSpan accepts, read in place as
/// int32 or held as doubles, is coded by counting; any other feature takes
/// one pass over the rows that finds the distinct values with an
/// open-addressing table on their bits and numbers them in first-seen
/// order; sorting just the distinct values then maps those numbers to
/// codes in place.
void CodeFeature(const FeatureView& col, size_t n, size_t max_codes,
                 std::vector<uint16_t>* codes, std::vector<double>* lo,
                 std::vector<double>* hi) {
  if (col.i32() != nullptr
          ? CodeByCounting(col.i32(), n, max_codes, codes, lo, hi)
          : CodeByCounting(col.f64(), n, max_codes, codes, lo, hi)) {
    return;
  }
  codes->assign(n, 0);  // NaN rows keep code 0
  int log_slots = 8;
  std::vector<uint64_t> slot_bits(size_t{1} << log_slots);
  std::vector<uint16_t> slot_id(slot_bits.size(), 0);  // 0 = empty
  auto slot_of = [&](uint64_t bits) {
    size_t mask = slot_bits.size() - 1;
    size_t s = static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                   (64 - log_slots));
    while (slot_id[s] != 0 && slot_bits[s] != bits) s = (s + 1) & mask;
    return s;
  };
  std::vector<double> distinct;  // by first-seen number - 1
  std::vector<uint64_t> counts;
  for (size_t r = 0; r < n; ++r) {
    double v = col[r];
    if (std::isnan(v)) continue;
    v = Canonical(v);
    uint64_t bits = std::bit_cast<uint64_t>(v);
    size_t s = slot_of(bits);
    uint16_t id = slot_id[s];
    if (id == 0) {
      if (distinct.size() == TrainingCodes::kMaxValueCodes) {
        CodeBySorting(col, n, max_codes, codes, lo, hi);
        return;
      }
      distinct.push_back(v);
      counts.push_back(0);
      id = static_cast<uint16_t>(distinct.size());
      slot_bits[s] = bits;
      slot_id[s] = id;
      if (distinct.size() * 2 > slot_bits.size()) {  // keep load <= 1/2
        ++log_slots;
        slot_bits.assign(size_t{1} << log_slots, 0);
        slot_id.assign(slot_bits.size(), 0);
        for (size_t d = 0; d < distinct.size(); ++d) {
          uint64_t b = std::bit_cast<uint64_t>(distinct[d]);
          size_t t = slot_of(b);
          slot_bits[t] = b;
          slot_id[t] = static_cast<uint16_t>(d + 1);
        }
      }
    }
    (*codes)[r] = id;
    ++counts[id - 1];
  }
  std::vector<uint32_t> order(distinct.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return distinct[a] < distinct[b]; });
  ValueCounts vc;
  for (uint32_t d : order) {
    vc.values.push_back(distinct[d]);
    vc.counts.push_back(counts[d]);
  }
  std::vector<uint16_t> code_of = AssignCodes(vc, max_codes, lo, hi);
  std::vector<uint16_t> code_of_id(distinct.size() + 1, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    code_of_id[order[i] + 1] = code_of[i];
  }
  for (uint16_t& c : *codes) c = code_of_id[c];
}

}  // namespace

Result<TrainingCodes> TrainingCodes::Build(const Matrix& x,
                                           const Labels& y,
                                           std::vector<int32_t> classes,
                                           size_t max_codes, bool parallel) {
  if (y.size() != x.rows()) {
    return Status::InvalidArgument(
        "label count " + std::to_string(y.size()) +
        " does not match row count " + std::to_string(x.rows()));
  }
  obs::ScopedSpan span("codes.build");
  span.set_rows_in(x.rows());
  max_codes = std::clamp<size_t>(max_codes, 1, kMaxValueCodes);
  TrainingCodes out;
  out.labels_.resize(y.size());
  for (size_t r = 0; r < y.size(); ++r) {
    auto it = std::lower_bound(classes.begin(), classes.end(), y[r]);
    if (it == classes.end() || *it != y[r]) {
      return Status::InvalidArgument("label " + std::to_string(y[r]) +
                                     " is not in the class set");
    }
    out.labels_[r] = static_cast<uint32_t>(it - classes.begin());
  }
  out.classes_ = std::move(classes);

  out.features_.resize(x.cols());
  auto code_one = [&](size_t f) {
    Feature& feature = out.features_[f];
    CodeFeature(x.view(f), x.rows(), max_codes, &feature.codes, &feature.lo,
                &feature.hi);
    return Status::OK();
  };
  if (parallel && x.rows() * x.cols() >= kParallelCodingValues) {
    MLCS_RETURN_IF_ERROR(ParallelItems(MorselPolicy{}, x.cols(), code_one));
  } else {
    for (size_t f = 0; f < x.cols(); ++f) MLCS_RETURN_IF_ERROR(code_one(f));
  }
  return out;
}

double TrainingCodes::Threshold(size_t f, uint16_t left, uint16_t right) const {
  const Feature& feature = features_[f];
  double next = feature.lo[right];
  // Only NaN goes left: anything below every value will do.
  double t = left == 0 ? next - 1.0 : (feature.hi[left] + next) / 2.0;
  if (t < next) return t;
  // No double lies strictly between two adjacent ones (or next - 1 rounded
  // back to next): split at the left range's top instead.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return left == 0 ? std::nextafter(next, -kInf) : feature.hi[left];
}

}  // namespace mlcs::ml
