/// Ablation abl-split: value codes per feature — the substrate design
/// choice DESIGN.md §4 calls out. Each fit codes every feature once
/// (ml/training_codes.h): at most `bins` equal-frequency ranges, or every
/// distinct value with exact splits; nodes then count classes per code,
/// O(rows + codes) per candidate feature. Counters report training
/// accuracy so the speed/quality trade is visible in one table.
///
/// BM_ForestPredict/threads:N times the walk those trees are read back
/// with: the Figure-1 forest shape (8 trees, depth 10) over synthetic
/// voters' INTEGER feature columns read in place, 2 048-row blocks on a
/// pool of N threads (DESIGN.md §4). BM_ForestFit times growing that
/// forest on the global pool.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "bench_main.h"

#include "common/parallel_for.h"
#include "common/random.h"
#include "io/voter_gen.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace {

using namespace mlcs;

struct Fixture {
  ml::Matrix x;
  ml::Labels y;
};

Fixture& Data() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(77);
    constexpr size_t kRows = 50000, kCols = 16;
    f->x = ml::Matrix(kRows, kCols);
    f->y.resize(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
      for (size_t c = 0; c < kCols; ++c) {
        double signal = c < 4 ? cls * 1.5 : 0.0;  // 4 informative features
        f->x.Set(r, c, signal + rng.NextGaussian());
      }
      f->y[r] = cls;
    }
    return f;
  }();
  return *fixture;
}

void RunSplitter(benchmark::State& state, bool exact, int bins) {
  double accuracy = 0;
  for (auto _ : state) {
    ml::DecisionTreeOptions opt;
    opt.max_depth = 10;
    opt.exact_splits = exact;
    opt.num_bins = bins;
    ml::DecisionTree tree(opt);
    if (!tree.Fit(Data().x, Data().y).ok()) {
      state.SkipWithError("fit failed");
      break;
    }
    auto pred = tree.Predict(Data().x);
    if (pred.ok()) {
      accuracy = ml::Accuracy(Data().y, pred.ValueOrDie()).ValueOr(0);
    }
    benchmark::DoNotOptimize(tree);
  }
  state.counters["train_accuracy"] = accuracy;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Data().x.rows()));
}

void BM_HistogramSplitter(benchmark::State& state) {
  RunSplitter(state, /*exact=*/false, static_cast<int>(state.range(0)));
}

void BM_ExactSplitter(benchmark::State& state) {
  RunSplitter(state, /*exact=*/true, 32);
}

BENCHMARK(BM_HistogramSplitter)->Arg(8)->Arg(32)->Arg(128)->Arg(255);
BENCHMARK(BM_ExactSplitter);

/// Rows per predict block: RandomForest::PredictDistribution's morsel.
constexpr size_t kBlockRows = 2048;

ml::RandomForestOptions Figure1ForestOptions() {
  ml::RandomForestOptions opt;
  opt.n_estimators = 8;
  opt.max_depth = 10;
  return opt;
}

struct ForestFixture {
  ml::RandomForest forest{Figure1ForestOptions()};
  /// The training input: 95 INTEGER feature columns read in place.
  ml::Matrix x;
  ml::Labels y;
  /// The input as kBlockRows-row matrices, each holding its own INTEGER
  /// columns, so each block's PredictDistribution runs on the thread that
  /// takes it.
  std::vector<ml::Matrix> blocks;
  size_t rows = 0;
};

ForestFixture& Forest() {
  static ForestFixture* fixture = [] {
    auto* f = new ForestFixture();
    // Figure-1's test half: 125 000 voters, every voter column but
    // voter_id as a feature.
    io::VoterDataOptions data;
    data.num_voters = 125000;
    TablePtr voters = io::GenerateVoters(data).ValueOrDie();
    std::vector<ColumnPtr> features;
    for (size_t c = 1; c < voters->num_columns(); ++c) {
      features.push_back(voters->column(c));
    }
    f->rows = voters->num_rows();
    f->y.resize(f->rows);
    Rng rng(5);
    const std::vector<int32_t>& precinct = features[0]->i32_data();
    for (size_t r = 0; r < f->rows; ++r) {
      double share = io::PrecinctDemShare(
          data.seed, static_cast<size_t>(precinct[r]), data.num_precincts);
      f->y[r] = rng.NextDouble() < share ? 1 : 0;
    }
    auto x = ml::Matrix::FromColumns(features);
    if (!x.ok()) std::abort();
    f->x = std::move(x).ValueOrDie();
    if (!f->forest.Fit(f->x, f->y).ok()) std::abort();
    for (size_t begin = 0; begin < f->rows; begin += kBlockRows) {
      size_t end = std::min(f->rows, begin + kBlockRows);
      std::vector<ColumnPtr> cols;
      for (const ColumnPtr& col : features) {
        const std::vector<int32_t>& v = col->i32_data();
        cols.push_back(Column::FromInt32(
            std::vector<int32_t>(v.begin() + begin, v.begin() + end)));
      }
      f->blocks.push_back(ml::Matrix::FromColumns(cols).ValueOrDie());
    }
    return f;
  }();
  return *fixture;
}

void BM_ForestPredict(benchmark::State& state) {
  ForestFixture& f = Forest();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  MorselPolicy policy;
  policy.pool = &pool;
  for (auto _ : state) {
    Status st = ParallelItems(policy, f.blocks.size(), [&](size_t b) {
      auto dist = f.forest.PredictDistribution(f.blocks[b]);
      benchmark::DoNotOptimize(dist);
      return dist.status();
    });
    if (!st.ok()) {
      state.SkipWithError("predict failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.rows));
}

BENCHMARK(BM_ForestPredict)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Fits the same forest on the same input, on the global pool (its size
/// is MLCS_THREADS).
void BM_ForestFit(benchmark::State& state) {
  ForestFixture& f = Forest();
  for (auto _ : state) {
    ml::RandomForest forest(Figure1ForestOptions());
    if (!forest.Fit(f.x, f.y).ok()) {
      state.SkipWithError("fit failed");
      break;
    }
    benchmark::DoNotOptimize(forest);
  }
  state.counters["threads"] =
      static_cast<double>(ThreadPool::DefaultThreadCount());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.rows));
}

BENCHMARK(BM_ForestFit)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

MLCS_BENCH_MAIN(ablation_tree_splitter)
