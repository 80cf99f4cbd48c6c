#include "exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>


namespace mlcs::exec {

namespace {

bool IsComparison(BinOpKind op) {
  switch (op) {
    case BinOpKind::kEq:
    case BinOpKind::kNe:
    case BinOpKind::kLt:
    case BinOpKind::kLe:
    case BinOpKind::kGt:
    case BinOpKind::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogical(BinOpKind op) {
  return op == BinOpKind::kAnd || op == BinOpKind::kOr;
}

/// Copies a numeric column into a typed buffer of the promoted type.
template <typename T>
std::vector<T> PromoteNumeric(const Column& col) {
  size_t n = col.size();
  std::vector<T> out(n);
  switch (col.type()) {
    case TypeId::kBool: {
      const auto& src = col.bool_data();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<T>(src[i]);
      break;
    }
    case TypeId::kInt32: {
      const auto& src = col.i32_data();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<T>(src[i]);
      break;
    }
    case TypeId::kInt64: {
      const auto& src = col.i64_data();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<T>(src[i]);
      break;
    }
    case TypeId::kDouble: {
      const auto& src = col.f64_data();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<T>(src[i]);
      break;
    }
    default:
      break;
  }
  return out;
}

/// Merged validity vector for a binary op (empty == all valid).
/// `ln`/`rn` are operand lengths; `n` the broadcast output length.
std::vector<uint8_t> MergeValidity(const Column& l, const Column& r,
                                   size_t n) {
  if (!l.has_nulls() && !r.has_nulls()) return {};
  std::vector<uint8_t> out(n, 1);
  size_t ln = l.size(), rn = r.size();
  for (size_t i = 0; i < n; ++i) {
    bool lnull = l.IsNull(ln == 1 ? 0 : i);
    bool rnull = r.IsNull(rn == 1 ? 0 : i);
    if (lnull || rnull) out[i] = 0;
  }
  return out;
}

void ApplyValidity(Column* col, std::vector<uint8_t> validity) {
  for (size_t i = 0; i < validity.size(); ++i) {
    if (validity[i] == 0) col->SetNull(i);
  }
}

/// Arithmetic loop over promoted buffers; Op(f) must be total over T
/// except that integer / and % guard zero divisors via the extra_null mask.
template <typename T, typename F>
ColumnPtr ArithmeticLoop(const std::vector<T>& l, const std::vector<T>& r,
                         size_t n, F f) {
  std::vector<T> out(n);
  size_t ln = l.size(), rn = r.size();
  if (ln == rn) {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[i], r[i]);
  } else if (ln == 1) {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[0], r[i]);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[i], r[0]);
  }
  if constexpr (std::is_same_v<T, int32_t>) {
    return Column::FromInt32(std::move(out));
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return Column::FromInt64(std::move(out));
  } else {
    return Column::FromDouble(std::move(out));
  }
}

template <typename T>
Result<ColumnPtr> IntegerArithmetic(BinOpKind op, const std::vector<T>& l,
                                    const std::vector<T>& r, size_t n,
                                    std::vector<uint8_t>* extra_nulls) {
  auto pick = [&](const std::vector<T>& v, size_t i) {
    return v.size() == 1 ? v[0] : v[i];
  };
  switch (op) {
    case BinOpKind::kAdd:
      return ArithmeticLoop<T>(l, r, n, [](T a, T b) { return T(a + b); });
    case BinOpKind::kSub:
      return ArithmeticLoop<T>(l, r, n, [](T a, T b) { return T(a - b); });
    case BinOpKind::kMul:
      return ArithmeticLoop<T>(l, r, n, [](T a, T b) { return T(a * b); });
    case BinOpKind::kDiv:
    case BinOpKind::kMod: {
      // SQL semantics: x / 0 and x % 0 are NULL, not a crash.
      std::vector<T> out(n);
      extra_nulls->assign(n, 1);
      bool any_null = false;
      for (size_t i = 0; i < n; ++i) {
        T a = pick(l, i), b = pick(r, i);
        if (b == 0) {
          out[i] = 0;
          (*extra_nulls)[i] = 0;
          any_null = true;
        } else {
          out[i] = op == BinOpKind::kDiv ? T(a / b) : T(a % b);
        }
      }
      if (!any_null) extra_nulls->clear();
      if constexpr (std::is_same_v<T, int32_t>) {
        return Column::FromInt32(std::move(out));
      } else {
        return Column::FromInt64(std::move(out));
      }
    }
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<ColumnPtr> DoubleArithmetic(BinOpKind op, const std::vector<double>& l,
                                   const std::vector<double>& r, size_t n) {
  switch (op) {
    case BinOpKind::kAdd:
      return ArithmeticLoop<double>(l, r, n,
                                    [](double a, double b) { return a + b; });
    case BinOpKind::kSub:
      return ArithmeticLoop<double>(l, r, n,
                                    [](double a, double b) { return a - b; });
    case BinOpKind::kMul:
      return ArithmeticLoop<double>(l, r, n,
                                    [](double a, double b) { return a * b; });
    case BinOpKind::kDiv:
      return ArithmeticLoop<double>(l, r, n,
                                    [](double a, double b) { return a / b; });
    case BinOpKind::kMod:
      return ArithmeticLoop<double>(
          l, r, n, [](double a, double b) { return std::fmod(a, b); });
    default:
      return Status::Internal("not an arithmetic op");
  }
}

template <typename T, typename F>
ColumnPtr CompareLoop(const std::vector<T>& l, const std::vector<T>& r,
                      size_t n, F f) {
  std::vector<uint8_t> out(n);
  size_t ln = l.size(), rn = r.size();
  if (ln == rn) {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[i], r[i]) ? 1 : 0;
  } else if (ln == 1) {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[0], r[i]) ? 1 : 0;
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = f(l[i], r[0]) ? 1 : 0;
  }
  return Column::FromBool(std::move(out));
}

template <typename T>
ColumnPtr TypedCompare(BinOpKind op, const std::vector<T>& l,
                       const std::vector<T>& r, size_t n) {
  switch (op) {
    case BinOpKind::kEq:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a == b; });
    case BinOpKind::kNe:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a != b; });
    case BinOpKind::kLt:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a < b; });
    case BinOpKind::kLe:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a <= b; });
    case BinOpKind::kGt:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a > b; });
    case BinOpKind::kGe:
      return CompareLoop<T>(l, r, n, [](const T& a, const T& b) { return a >= b; });
    default:
      return nullptr;
  }
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  // 64-bit finalizer from MurmurHash3 applied to the combined word.
  uint64_t x = h ^ (v + kHashSeed + (h << 6) + (h >> 2));
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashBytes(const void* data, size_t len) {
  // FNV-1a 64.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr uint64_t kNullHash = 0x6E756C6C6E756C6CULL;  // "nullnull"

/// Serial element-wise binary kernel over full columns — the pre-morsel
/// code path, also the per-morsel worker body.
Result<ColumnPtr> BinaryKernelSerial(BinOpKind op, const Column& left,
                                     const Column& right) {
  size_t ln = left.size(), rn = right.size();
  // Broadcast rule: a length-1 operand adopts the other side's length —
  // including zero (scalar ⊕ empty column → empty column).
  size_t n = ln == rn ? ln : (ln == 1 ? rn : ln);

  if (IsLogical(op)) {
    if (left.type() != TypeId::kBool || right.type() != TypeId::kBool) {
      return Status::TypeMismatch("AND/OR require BOOLEAN operands");
    }
    const auto& l = left.bool_data();
    const auto& r = right.bool_data();
    ColumnPtr out =
        op == BinOpKind::kAnd
            ? CompareLoop<uint8_t>(l, r, n,
                                   [](uint8_t a, uint8_t b) { return a && b; })
            : CompareLoop<uint8_t>(
                  l, r, n, [](uint8_t a, uint8_t b) { return a || b; });
    ApplyValidity(out.get(), MergeValidity(left, right, n));
    return out;
  }

  if (IsComparison(op)) {
    ColumnPtr out;
    if (left.type() == TypeId::kVarchar && right.type() == TypeId::kVarchar) {
      out = TypedCompare<std::string>(op, left.str_data(), right.str_data(),
                                      n);
    } else {
      MLCS_ASSIGN_OR_RETURN(TypeId common,
                            CommonNumericType(left.type(), right.type()));
      if (common == TypeId::kDouble) {
        out = TypedCompare<double>(op, PromoteNumeric<double>(left),
                                   PromoteNumeric<double>(right), n);
      } else {
        out = TypedCompare<int64_t>(op, PromoteNumeric<int64_t>(left),
                                    PromoteNumeric<int64_t>(right), n);
      }
    }
    ApplyValidity(out.get(), MergeValidity(left, right, n));
    return out;
  }

  // Arithmetic.
  MLCS_ASSIGN_OR_RETURN(TypeId common,
                        CommonNumericType(left.type(), right.type()));
  ColumnPtr out;
  std::vector<uint8_t> extra_nulls;
  if (common == TypeId::kDouble) {
    MLCS_ASSIGN_OR_RETURN(out, DoubleArithmetic(op, PromoteNumeric<double>(left),
                                                PromoteNumeric<double>(right),
                                                n));
  } else if (common == TypeId::kInt64) {
    MLCS_ASSIGN_OR_RETURN(
        out, IntegerArithmetic<int64_t>(op, PromoteNumeric<int64_t>(left),
                                        PromoteNumeric<int64_t>(right), n,
                                        &extra_nulls));
  } else {
    // int32 or bool arithmetic → int32.
    MLCS_ASSIGN_OR_RETURN(
        out, IntegerArithmetic<int32_t>(op, PromoteNumeric<int32_t>(left),
                                        PromoteNumeric<int32_t>(right), n,
                                        &extra_nulls));
  }
  ApplyValidity(out.get(), MergeValidity(left, right, n));
  ApplyValidity(out.get(), std::move(extra_nulls));
  return out;
}

/// Concatenates per-morsel result slices in morsel order.
Result<ColumnPtr> SpliceParts(const std::vector<ColumnPtr>& parts,
                              size_t total_rows) {
  if (parts.size() == 1) return parts[0];
  ColumnPtr out = Column::Make(parts[0]->type());
  out->Reserve(total_rows);
  for (const auto& part : parts) {
    MLCS_RETURN_IF_ERROR(out->AppendColumn(*part));
  }
  return out;
}

}  // namespace

const char* BinOpKindToString(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd:
      return "+";
    case BinOpKind::kSub:
      return "-";
    case BinOpKind::kMul:
      return "*";
    case BinOpKind::kDiv:
      return "/";
    case BinOpKind::kMod:
      return "%";
    case BinOpKind::kEq:
      return "=";
    case BinOpKind::kNe:
      return "<>";
    case BinOpKind::kLt:
      return "<";
    case BinOpKind::kLe:
      return "<=";
    case BinOpKind::kGt:
      return ">";
    case BinOpKind::kGe:
      return ">=";
    case BinOpKind::kAnd:
      return "AND";
    case BinOpKind::kOr:
      return "OR";
  }
  return "?";
}

Result<ColumnPtr> BinaryKernel(BinOpKind op, const Column& left,
                               const Column& right,
                               const MorselPolicy& policy) {
  size_t ln = left.size(), rn = right.size();
  if (ln != rn && ln != 1 && rn != 1) {
    return Status::InvalidArgument(
        "operand lengths " + std::to_string(ln) + " and " +
        std::to_string(rn) + " are incompatible (no broadcast)");
  }
  size_t n = ln == rn ? ln : (ln == 1 ? rn : ln);

  if (!ShouldParallelize(policy, n)) {
    return BinaryKernelSerial(op, left, right);
  }

  // Morsel-parallel: each morsel runs the serial kernel over column slices
  // (length-1 broadcast operands are shared unsliced), then the per-morsel
  // outputs splice back in morsel order. Element-wise semantics make the
  // result independent of the split.
  std::vector<ColumnPtr> parts(NumMorsels(policy, n));
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, n, [&](size_t m, size_t begin, size_t end) -> Status {
        size_t rows = end - begin;
        ColumnPtr lslice = ln == 1 ? nullptr : left.Slice(begin, rows);
        ColumnPtr rslice = rn == 1 ? nullptr : right.Slice(begin, rows);
        const Column& l = lslice != nullptr ? *lslice : left;
        const Column& r = rslice != nullptr ? *rslice : right;
        MLCS_ASSIGN_OR_RETURN(parts[m], BinaryKernelSerial(op, l, r));
        return Status::OK();
      }));
  return SpliceParts(parts, n);
}

Result<ColumnPtr> UnaryKernel(UnOpKind op, const Column& input,
                              const MorselPolicy& policy) {
  size_t n = input.size();
  if (ShouldParallelize(policy, n)) {
    std::vector<ColumnPtr> parts(NumMorsels(policy, n));
    MLCS_RETURN_IF_ERROR(ParallelMorsels(
        policy, n, [&](size_t m, size_t begin, size_t end) -> Status {
          ColumnPtr slice = input.Slice(begin, end - begin);
          MLCS_ASSIGN_OR_RETURN(parts[m], UnaryKernel(op, *slice));
          return Status::OK();
        }));
    return SpliceParts(parts, n);
  }
  ColumnPtr out;
  if (op == UnOpKind::kNot) {
    if (input.type() != TypeId::kBool) {
      return Status::TypeMismatch("NOT requires a BOOLEAN operand");
    }
    std::vector<uint8_t> data(n);
    const auto& src = input.bool_data();
    for (size_t i = 0; i < n; ++i) data[i] = src[i] ? 0 : 1;
    out = Column::FromBool(std::move(data));
  } else {
    switch (input.type()) {
      case TypeId::kInt32: {
        std::vector<int32_t> data(n);
        const auto& src = input.i32_data();
        for (size_t i = 0; i < n; ++i) data[i] = -src[i];
        out = Column::FromInt32(std::move(data));
        break;
      }
      case TypeId::kInt64: {
        std::vector<int64_t> data(n);
        const auto& src = input.i64_data();
        for (size_t i = 0; i < n; ++i) data[i] = -src[i];
        out = Column::FromInt64(std::move(data));
        break;
      }
      case TypeId::kDouble: {
        std::vector<double> data(n);
        const auto& src = input.f64_data();
        for (size_t i = 0; i < n; ++i) data[i] = -src[i];
        out = Column::FromDouble(std::move(data));
        break;
      }
      default:
        return Status::TypeMismatch("unary minus requires a numeric operand");
    }
  }
  if (input.has_nulls()) {
    for (size_t i = 0; i < n; ++i) {
      if (input.IsNull(i)) out->SetNull(i);
    }
  }
  return out;
}

void HashCombineColumn(const Column& column, std::vector<uint64_t>* hashes) {
  HashCombineColumnRange(column, 0, column.size(), hashes);
}

void HashCombineColumnRange(const Column& column, size_t begin, size_t end,
                            std::vector<uint64_t>* hashes) {
  switch (column.type()) {
    case TypeId::kBool: {
      const auto& src = column.bool_data();
      for (size_t i = begin; i < end; ++i) {
        (*hashes)[i] = MixHash((*hashes)[i], src[i]);
      }
      break;
    }
    case TypeId::kInt32: {
      const auto& src = column.i32_data();
      for (size_t i = begin; i < end; ++i) {
        (*hashes)[i] =
            MixHash((*hashes)[i], static_cast<uint64_t>(
                                      static_cast<int64_t>(src[i])));
      }
      break;
    }
    case TypeId::kInt64: {
      const auto& src = column.i64_data();
      for (size_t i = begin; i < end; ++i) {
        (*hashes)[i] = MixHash((*hashes)[i], static_cast<uint64_t>(src[i]));
      }
      break;
    }
    case TypeId::kDouble: {
      const auto& src = column.f64_data();
      for (size_t i = begin; i < end; ++i) {
        uint64_t bits;
        std::memcpy(&bits, &src[i], sizeof(bits));
        (*hashes)[i] = MixHash((*hashes)[i], bits);
      }
      break;
    }
    case TypeId::kVarchar:
    case TypeId::kBlob: {
      const auto& src = column.str_data();
      for (size_t i = begin; i < end; ++i) {
        (*hashes)[i] =
            MixHash((*hashes)[i], HashBytes(src[i].data(), src[i].size()));
      }
      break;
    }
  }
  if (column.has_nulls()) {
    for (size_t i = begin; i < end; ++i) {
      if (column.IsNull(i)) (*hashes)[i] = MixHash((*hashes)[i], kNullHash);
    }
  }
}

bool CellEquals(const Column& a, size_t ai, const Column& b, size_t bi) {
  bool an = a.IsNull(ai), bn = b.IsNull(bi);
  if (an || bn) return an == bn;
  switch (a.type()) {
    case TypeId::kBool:
      return a.bool_data()[ai] == b.bool_data()[bi];
    case TypeId::kInt32:
      return a.i32_data()[ai] == b.i32_data()[bi];
    case TypeId::kInt64:
      return a.i64_data()[ai] == b.i64_data()[bi];
    case TypeId::kDouble:
      return a.f64_data()[ai] == b.f64_data()[bi];
    case TypeId::kVarchar:
    case TypeId::kBlob:
      return a.str_data()[ai] == b.str_data()[bi];
  }
  return false;
}

int CellCompare(const Column& a, size_t ai, const Column& b, size_t bi) {
  bool an = a.IsNull(ai), bn = b.IsNull(bi);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;  // NULLs first
  }
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (a.type()) {
    case TypeId::kBool:
      return cmp3(a.bool_data()[ai], b.bool_data()[bi]);
    case TypeId::kInt32:
      return cmp3(a.i32_data()[ai], b.i32_data()[bi]);
    case TypeId::kInt64:
      return cmp3(a.i64_data()[ai], b.i64_data()[bi]);
    case TypeId::kDouble:
      return cmp3(a.f64_data()[ai], b.f64_data()[bi]);
    case TypeId::kVarchar:
    case TypeId::kBlob: {
      int c = a.str_data()[ai].compare(b.str_data()[bi]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

namespace {

/// Typed bulk gather for the null-free / no-negative-index case: one branch
/// per column instead of two per row.
template <typename T>
std::vector<T> GatherDense(const std::vector<T>& src,
                           const std::vector<int64_t>& idx) {
  std::vector<T> data;
  data.reserve(idx.size());
  for (int64_t i : idx) data.push_back(src[static_cast<size_t>(i)]);
  return data;
}

}  // namespace

ColumnPtr TakeOrNull(const Column& column, const std::vector<int64_t>& idx) {
  if (!column.has_nulls() &&
      std::none_of(idx.begin(), idx.end(),
                   [](int64_t i) { return i < 0; })) {
    switch (column.type()) {
      case TypeId::kBool:
        return Column::FromBool(GatherDense(column.bool_data(), idx));
      case TypeId::kInt32:
        return Column::FromInt32(GatherDense(column.i32_data(), idx));
      case TypeId::kInt64:
        return Column::FromInt64(GatherDense(column.i64_data(), idx));
      case TypeId::kDouble:
        return Column::FromDouble(GatherDense(column.f64_data(), idx));
      case TypeId::kVarchar:
      case TypeId::kBlob:
        return Column::FromStrings(GatherDense(column.str_data(), idx),
                                   column.type());
    }
  }
  ColumnPtr out = Column::Make(column.type());
  out->Reserve(idx.size());
  for (int64_t i : idx) {
    if (i < 0 || column.IsNull(static_cast<size_t>(i))) {
      out->AppendNull();
      continue;
    }
    switch (column.type()) {
      case TypeId::kBool:
        out->AppendBool(column.bool_data()[i] != 0);
        break;
      case TypeId::kInt32:
        out->AppendInt32(column.i32_data()[i]);
        break;
      case TypeId::kInt64:
        out->AppendInt64(column.i64_data()[i]);
        break;
      case TypeId::kDouble:
        out->AppendDouble(column.f64_data()[i]);
        break;
      case TypeId::kVarchar:
      case TypeId::kBlob:
        out->AppendString(column.str_data()[i]);
        break;
    }
  }
  return out;
}

}  // namespace mlcs::exec
