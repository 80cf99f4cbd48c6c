/// Ablation abl-split: value codes per feature — the substrate design
/// choice DESIGN.md §4 calls out. Each fit codes every feature once
/// (ml/training_codes.h): at most `bins` equal-frequency ranges, or every
/// distinct value with exact splits; nodes then count classes per code,
/// O(rows + codes) per candidate feature. Counters report training
/// accuracy so the speed/quality trade is visible in one table.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"

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

}  // namespace

MLCS_BENCH_MAIN(ablation_tree_splitter)
