/// Serial-vs-parallel parity for the morselized relational operators.
///
/// The engine's determinism invariant (common/parallel_for.h): morsel
/// boundaries depend only on (row count, morsel_rows), never on the thread
/// count, and every operator merges per-morsel partials in morsel order.
/// Consequence: output — including floating-point aggregates and stable
/// sort order — is bit-identical at every degree of parallelism. These
/// tests pin that down by running each operator under a one-morsel serial
/// reference policy and under small-morsel policies on 2- and 7-thread
/// pools, over sizes chosen to straddle morsel boundaries, and requiring
/// exact Column/Table equality (nulls included).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/kernels.h"
#include "exec/sort.h"

namespace mlcs::exec {
namespace {

/// Small enough that the 10000-row input splits into ~40 morsels, and that
/// the aggregate's internally widened morsels (16x this) still split it.
constexpr size_t kTestMorselRows = 256;

ThreadPool& PoolOf(size_t n) {
  static ThreadPool* pool1 = new ThreadPool(1);
  static ThreadPool* pool2 = new ThreadPool(2);
  static ThreadPool* pool7 = new ThreadPool(7);
  switch (n) {
    case 1:
      return *pool1;
    case 2:
      return *pool2;
    default:
      return *pool7;
  }
}

/// One morsel spanning any test-sized input, executed inline on the caller:
/// the serial reference path.
MorselPolicy SerialPolicy() {
  MorselPolicy policy;
  policy.pool = &PoolOf(1);
  policy.morsel_rows = size_t{1} << 30;
  return policy;
}

MorselPolicy ParallelPolicy(size_t threads) {
  MorselPolicy policy;
  policy.pool = &PoolOf(threads);
  policy.morsel_rows = kTestMorselRows;
  return policy;
}

/// The same morsel plan as ParallelPolicy but executed inline on one
/// thread. This is the reference the determinism invariant is stated
/// against: fixed morsel width, varying thread count. (Comparing against
/// a *different* width is only valid for operators with no accumulation
/// order — floating-point aggregate partials legitimately round
/// differently when the morsel grouping changes.)
MorselPolicy OneThreadPolicy() { return ParallelPolicy(1); }

const std::vector<size_t>& TestSizes() {
  // 0 and 1 (degenerate), 3 (sub-morsel), then one-off-each-side of the
  // element-wise morsel boundary (256) and of the aggregate's scaled
  // boundary (4096), plus a many-morsel size.
  static const std::vector<size_t> sizes = {0,    1,    3,    255,  256,
                                            257,  4095, 4096, 4097, 10000};
  return sizes;
}

const std::vector<size_t>& ThreadGrid() {
  static const std::vector<size_t> threads = {2, 7};
  return threads;
}

/// (key i32 nullable, votes i64, weight f64 nullable, name varchar) —
/// deterministic per size, with duplicate keys and periodic NULLs.
TablePtr MakeFacts(size_t n) {
  Rng rng(1000 + n);
  Schema s;
  s.AddField("key", TypeId::kInt32);
  s.AddField("votes", TypeId::kInt64);
  s.AddField("weight", TypeId::kDouble);
  s.AddField("name", TypeId::kVarchar);
  auto t = Table::Make(std::move(s));
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      t->column(0)->AppendNull();
    } else {
      t->column(0)->AppendInt32(static_cast<int32_t>(rng.NextBounded(50)));
    }
    t->column(1)->AppendInt64(rng.NextInt(-1000, 1000));
    if (i % 11 == 5) {
      t->column(2)->AppendNull();
    } else {
      t->column(2)->AppendDouble(rng.NextDouble());
    }
    t->column(3)->AppendString(std::string(1 + i % 3, 'a' + i % 26));
  }
  return t;
}

/// (key i32, attr i32) over keys 0..49. With `duplicate_even_keys`, two
/// rows per even key exercise the join's deterministic chain order;
/// without, every non-NULL fact key matches once, so LEFT joins (and inner
/// joins over NULL-free inputs) take the identity-probe pass-through.
TablePtr MakeDimension(bool duplicate_even_keys) {
  Schema s;
  s.AddField("key", TypeId::kInt32);
  s.AddField("attr", TypeId::kInt32);
  auto t = Table::Make(std::move(s));
  for (int32_t k = 0; k < 50; ++k) {
    EXPECT_TRUE(
        t->AppendRow({Value::Int32(k), Value::Int32(k * 10)}).ok());
    if (duplicate_even_keys && k % 2 == 0) {
      EXPECT_TRUE(
          t->AppendRow({Value::Int32(k), Value::Int32(k * 10 + 1)}).ok());
    }
  }
  return t;
}

ColumnPtr MakeMask(size_t n) {
  Rng rng(2000 + n);
  auto mask = Column::Make(TypeId::kBool);
  for (size_t i = 0; i < n; ++i) {
    if (i % 13 == 6) {
      mask->AppendNull();  // NULL predicate must drop the row everywhere
    } else {
      mask->AppendBool(rng.NextBounded(2) == 1);
    }
  }
  return mask;
}

TEST(ParallelExecTest, BinaryKernelParity) {
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto serial = BinaryKernel(BinOpKind::kMul, *t->column(1), *t->column(2),
                               SerialPolicy());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : ThreadGrid()) {
      auto par = BinaryKernel(BinOpKind::kMul, *t->column(1), *t->column(2),
                              ParallelPolicy(threads));
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, BinaryKernelBroadcastParity) {
  // Length-1 operand broadcasts against every morsel of the long side.
  auto scalar = Column::FromDouble({2.5});
  for (size_t n : {size_t{257}, size_t{10000}}) {
    auto t = MakeFacts(n);
    auto serial = BinaryKernel(BinOpKind::kAdd, *t->column(2), *scalar,
                               SerialPolicy());
    ASSERT_TRUE(serial.ok());
    for (size_t threads : ThreadGrid()) {
      auto par = BinaryKernel(BinOpKind::kAdd, *t->column(2), *scalar,
                              ParallelPolicy(threads));
      ASSERT_TRUE(par.ok());
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie())) << n;
    }
  }
}

TEST(ParallelExecTest, UnaryKernelParity) {
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto serial = UnaryKernel(UnOpKind::kNeg, *t->column(2), SerialPolicy());
    ASSERT_TRUE(serial.ok());
    for (size_t threads : ThreadGrid()) {
      auto par =
          UnaryKernel(UnOpKind::kNeg, *t->column(2), ParallelPolicy(threads));
      ASSERT_TRUE(par.ok());
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, FilterParity) {
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto mask = MakeMask(n);
    auto serial = FilterTable(*t, *mask, SerialPolicy());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : ThreadGrid()) {
      auto par = FilterTable(*t, *mask, ParallelPolicy(threads));
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, HashJoinParity) {
  for (bool duplicates : {true, false}) {
    auto dim = MakeDimension(duplicates);
    for (size_t n : TestSizes()) {
      auto t = MakeFacts(n);
      for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
        auto serial =
            HashJoin(*t, *dim, {"key"}, {"key"}, type, SerialPolicy());
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        for (size_t threads : ThreadGrid()) {
          auto par = HashJoin(*t, *dim, {"key"}, {"key"}, type,
                              ParallelPolicy(threads));
          ASSERT_TRUE(par.ok()) << par.status().ToString();
          EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
              << "n=" << n << " threads=" << threads
              << " type=" << (type == JoinType::kInner ? "inner" : "left")
              << " duplicates=" << duplicates;
        }
      }
    }
  }
}

TEST(ParallelExecTest, AggregateParity) {
  // Doubles summed in per-morsel partials merged in morsel order must be
  // bit-identical to the serial result, not merely close; VARCHAR MIN/MAX
  // and nullable inputs ride along. Group order (first-seen) must match too.
  std::vector<AggSpec> aggs = {{AggOp::kCountStar, "", "n"},
                               {AggOp::kSum, "weight", "wsum"},
                               {AggOp::kAvg, "weight", "wavg"},
                               {AggOp::kStdDev, "weight", "wsd"},
                               {AggOp::kMin, "votes", "vmin"},
                               {AggOp::kMax, "votes", "vmax"},
                               {AggOp::kMin, "name", "nmin"},
                               {AggOp::kMax, "name", "nmax"},
                               {AggOp::kCount, "weight", "wn"}};
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto serial = HashGroupBy(*t, {"key"}, aggs, OneThreadPolicy());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : ThreadGrid()) {
      auto par = HashGroupBy(*t, {"key"}, aggs, ParallelPolicy(threads));
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, GlobalAggregateParity) {
  // Empty GROUP BY takes the single-group path: one row out, partials
  // still merged per morsel.
  std::vector<AggSpec> aggs = {{AggOp::kSum, "weight", "wsum"},
                               {AggOp::kCountStar, "", "n"}};
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto serial = HashGroupBy(*t, {}, aggs, OneThreadPolicy());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : ThreadGrid()) {
      auto par = HashGroupBy(*t, {}, aggs, ParallelPolicy(threads));
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, SortParity) {
  // Stable multi-key sort: duplicate (key, votes) pairs make stability
  // observable, and the stable permutation is unique, so run-sort + binary
  // merge must reproduce the serial order exactly.
  std::vector<SortKey> keys = {{"key", false}, {"votes", true}};
  for (size_t n : TestSizes()) {
    auto t = MakeFacts(n);
    auto serial = SortTable(*t, keys, SerialPolicy());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : ThreadGrid()) {
      auto par = SortTable(*t, keys, ParallelPolicy(threads));
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_TRUE(serial.ValueOrDie()->Equals(*par.ValueOrDie()))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, SingleThreadPoolMatchesSerialReference) {
  // nthreads == 1 with small morsels runs the morselized path inline; it
  // must still agree with the one-morsel reference (and with itself).
  MorselPolicy one_thread;
  one_thread.pool = &PoolOf(1);
  one_thread.morsel_rows = kTestMorselRows;
  auto t = MakeFacts(4097);
  auto mask = MakeMask(4097);
  auto serial = FilterTable(*t, *mask, SerialPolicy());
  auto inline_morsels = FilterTable(*t, *mask, one_thread);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(inline_morsels.ok());
  EXPECT_TRUE(serial.ValueOrDie()->Equals(*inline_morsels.ValueOrDie()));
}

TEST(ParallelExecTest, ParallelMorselsErrorPropagation) {
  MorselPolicy policy = ParallelPolicy(7);
  // 40 morsels; morsel 11 fails. The call must surface a failure (the
  // first one recorded) and later morsels may be cancelled — but the count
  // of executed morsels never exceeds the total.
  std::atomic<size_t> executed{0};
  Status st = ParallelMorsels(policy, 10000,
                              [&](size_t m, size_t begin, size_t end) {
                                EXPECT_LT(begin, end);
                                executed.fetch_add(1);
                                if (m == 11) {
                                  return Status::Internal("morsel 11 failed");
                                }
                                return Status::OK();
                              });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_LE(executed.load(), NumMorsels(policy, 10000));
}

TEST(ParallelExecTest, ParallelItemsErrorPropagation) {
  MorselPolicy policy = ParallelPolicy(2);
  Status st = ParallelItems(policy, 17, [&](size_t i) {
    if (i == 5) return Status::InvalidArgument("item 5 rejected");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ParallelExecTest, MorselBoundariesIgnoreThreadCount) {
  // The determinism invariant itself: boundaries recorded at 7 threads
  // must be exactly the fixed-width split, independent of scheduling.
  MorselPolicy policy = ParallelPolicy(7);
  constexpr size_t kCount = 4097;
  size_t morsels = NumMorsels(policy, kCount);
  std::vector<std::pair<size_t, size_t>> bounds(morsels);
  Status st = ParallelMorsels(policy, kCount,
                              [&](size_t m, size_t begin, size_t end) {
                                bounds[m] = {begin, end};
                                return Status::OK();
                              });
  ASSERT_TRUE(st.ok());
  for (size_t m = 0; m < morsels; ++m) {
    EXPECT_EQ(bounds[m].first, m * kTestMorselRows);
    EXPECT_EQ(bounds[m].second,
              std::min(kCount, (m + 1) * kTestMorselRows));
  }
}

}  // namespace
}  // namespace mlcs::exec
