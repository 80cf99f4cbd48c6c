#ifndef MLCS_EXEC_KERNELS_H_
#define MLCS_EXEC_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/parallel_for.h"
#include "common/result.h"
#include "storage/column.h"

namespace mlcs::exec {

/// Binary operator kinds shared by the expression tree, the SQL parser and
/// VectorScript.
enum class BinOpKind {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnOpKind { kNeg, kNot };

const char* BinOpKindToString(BinOpKind op);

/// Applies an arithmetic/comparison/logical operator element-wise over two
/// columns. Columns of length 1 broadcast against the other operand
/// (scalar ⊕ vector). NULL in either input yields NULL output. Arithmetic
/// promotes numerically (int32+int32→int32, mixed→wider); comparisons also
/// accept VARCHAR=VARCHAR (lexicographic); AND/OR require BOOL inputs.
/// Integer division/modulo by zero produces NULL (SQL semantics).
///
/// Long inputs run morsel-parallel on the policy's pool (column slices
/// through the serial kernel, spliced back in morsel order); results are
/// identical at every thread count because the op is element-wise.
Result<ColumnPtr> BinaryKernel(BinOpKind op, const Column& left,
                               const Column& right,
                               const MorselPolicy& policy = {});

/// Unary minus (numeric) and NOT (bool); NULLs pass through. Parallelizes
/// like BinaryKernel.
Result<ColumnPtr> UnaryKernel(UnOpKind op, const Column& input,
                              const MorselPolicy& policy = {});

/// Mixes each row's value into `hashes` (multiplicative combine), so calling
/// it once per key column produces a composite row hash. `hashes` must
/// already be sized to the column length (seed it with kHashSeed).
void HashCombineColumn(const Column& column, std::vector<uint64_t>* hashes);

/// Range-restricted form: combines rows [begin, end) only. Each output row
/// depends only on its own input row, so disjoint ranges are safe to hash
/// from different threads (the morsel-parallel join/group-by path).
void HashCombineColumnRange(const Column& column, size_t begin, size_t end,
                            std::vector<uint64_t>* hashes);

inline constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ULL;

/// Compares the same logical cell across two columns (used to resolve hash
/// collisions in join/group-by). Types must match physically.
[[nodiscard]] bool CellEquals(const Column& a, size_t ai, const Column& b,
                              size_t bi);

/// Three-way comparison of two cells in columns of the same type.
/// NULLs sort first; returns <0, 0, >0.
int CellCompare(const Column& a, size_t ai, const Column& b, size_t bi);

/// Gather allowing -1 indices, which become NULL rows (left-join padding).
[[nodiscard]] ColumnPtr TakeOrNull(const Column& column,
                                   const std::vector<int64_t>& idx);

}  // namespace mlcs::exec

#endif  // MLCS_EXEC_KERNELS_H_
