#include "ml/random_forest.h"

#include <cmath>
#include <numeric>

#include "common/parallel_for.h"
#include "common/random.h"
#include "obs/trace.h"

namespace mlcs::ml {

namespace {

/// Rows one predict task walks through every tree: their feature values
/// stay in cache from the first tree to the last.
constexpr size_t kPredictBlockRows = 2048;

}  // namespace

RandomForest::RandomForest(RandomForestOptions options) : options_(options) {}

Status RandomForest::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  if (options_.n_estimators <= 0) {
    return Status::InvalidArgument("n_estimators must be positive");
  }
  // One span for the fit, with the coding pass and each tree under it;
  // no span per node, so a forest adds n_estimators + 2 spans.
  obs::ScopedSpan span("forest.fit");
  span.set_rows_in(x.rows());
  classes_ = internal::DistinctClasses(y);
  num_features_ = x.cols();

  size_t max_features =
      options_.max_features != 0
          ? options_.max_features
          : std::max<size_t>(
                1, static_cast<size_t>(std::sqrt(
                       static_cast<double>(x.cols()))));

  DecisionTreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_split = options_.min_samples_split;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = max_features;
  tree_options.num_bins = options_.num_bins;
  tree_options.exact_splits = options_.exact_splits;

  // Coded once; every tree grows from the same codes.
  MLCS_ASSIGN_OR_RETURN(
      TrainingCodes codes,
      TrainingCodes::Build(x, y, classes_, tree_options.max_codes(),
                           options_.parallel_fit));

  size_t n = x.rows();
  size_t num_trees = static_cast<size_t>(options_.n_estimators);
  trees_.clear();
  trees_.resize(num_trees);

  // Pre-draw per-tree bootstrap samples so results are deterministic
  // regardless of fit parallelism.
  Rng seeder(options_.seed);
  std::vector<uint64_t> tree_seeds(num_trees);
  for (auto& s : tree_seeds) s = seeder.NextU64();

  // Trees fan out over the pool. With fewer trees than threads, large
  // nodes also fan their split search out over the candidate features.
  MorselPolicy pool;
  bool split_parallel = options_.parallel_fit && num_trees < pool.threads();
  obs::TraceParent trace = obs::CurrentTraceParent();
  auto fit_one = [&](size_t t) {
    obs::ScopedTraceAttach attach(trace);
    obs::ScopedSpan tree_span("tree.fit");
    DecisionTreeOptions topt = tree_options;
    topt.seed = tree_seeds[t];
    auto tree = std::make_unique<DecisionTree>(topt);

    Rng rng(tree_seeds[t] ^ 0xB0075E7ULL);
    std::vector<uint32_t> rows;
    std::vector<uint32_t> weights;
    if (options_.bootstrap) {
      // n draws with replacement, kept as per-row draw counts: the sample
      // comes out as ascending distinct rows with no sort, and each row
      // is counted, partitioned and gathered once however often drawn.
      std::vector<uint32_t> draws(n, 0);
      size_t distinct = 0;
      for (size_t i = 0; i < n; ++i) {
        distinct += draws[rng.NextBounded(n)]++ == 0;
      }
      rows.reserve(distinct);
      weights.reserve(distinct);
      for (size_t r = 0; r < n; ++r) {
        if (draws[r] != 0) {
          rows.push_back(static_cast<uint32_t>(r));
          weights.push_back(draws[r]);
        }
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
      weights.assign(n, 1);
    }
    MLCS_RETURN_IF_ERROR(tree->FitCoded(codes, std::move(rows),
                                        std::move(weights), split_parallel));
    trees_[t] = std::move(tree);
    return Status::OK();
  };

  Status st = Status::OK();
  if (options_.parallel_fit && num_trees > 1) {
    st = ParallelItems(pool, num_trees, fit_one);
  } else {
    for (size_t t = 0; t < num_trees && st.ok(); ++t) st = fit_one(t);
  }
  if (!st.ok()) {
    trees_.clear();
    classes_.clear();
    return st;
  }
  return Status::OK();
}

Result<std::vector<double>> RandomForest::PredictDistribution(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  // On the calling thread: the blocks' pool time shows as this span.
  obs::ScopedSpan span("forest.predict");
  span.set_rows_in(x.rows());
  span.set_rows_out(x.rows());
  std::vector<FeatureView> features = x.views();
  size_t num_classes = classes_.size();
  std::vector<double> avg(x.rows() * num_classes, 0.0);
  double inv = 1.0 / static_cast<double>(trees_.size());
  // Rows are independent and each sums its trees in forest order, so the
  // result is the same at any thread count. A small block of rows runs
  // through every tree while its feature values are still in cache.
  MorselPolicy policy;
  policy.morsel_rows = kPredictBlockRows;
  Status st = ParallelMorsels(
      policy, x.rows(), [&](size_t, size_t begin, size_t end) {
        double* block = avg.data() + begin * num_classes;
        for (const auto& tree : trees_) {
          tree->AddDistribution(features.data(), begin, end, block);
        }
        for (double* v = block; v != avg.data() + end * num_classes; ++v) {
          *v *= inv;
        }
        return Status::OK();
      });
  MLCS_RETURN_IF_ERROR(st);
  return avg;
}

std::string RandomForest::ParamsString() const {
  return "n_estimators=" + std::to_string(options_.n_estimators) +
         " max_depth=" + std::to_string(options_.max_depth) +
         " max_features=" + std::to_string(options_.max_features) +
         " bootstrap=" + (options_.bootstrap ? "true" : "false");
}

void RandomForest::Serialize(ByteWriter* writer) const {
  writer->WriteI32(options_.n_estimators);
  writer->WriteI32(options_.max_depth);
  writer->WriteVarint(options_.min_samples_split);
  writer->WriteVarint(options_.min_samples_leaf);
  writer->WriteVarint(options_.max_features);
  writer->WriteBool(options_.bootstrap);
  writer->WriteI32(options_.num_bins);
  writer->WriteBool(options_.exact_splits);
  writer->WriteBool(options_.parallel_fit);
  writer->WriteU64(options_.seed);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  writer->WriteVarint(trees_.size());
  for (const auto& tree : trees_) tree->Serialize(writer);
}

Result<std::unique_ptr<RandomForest>> RandomForest::DeserializeBody(
    ByteReader* reader) {
  RandomForestOptions options;
  MLCS_ASSIGN_OR_RETURN(options.n_estimators, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.max_depth, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(uint64_t mss, reader->ReadVarint());
  options.min_samples_split = mss;
  MLCS_ASSIGN_OR_RETURN(uint64_t msl, reader->ReadVarint());
  options.min_samples_leaf = msl;
  MLCS_ASSIGN_OR_RETURN(uint64_t mf, reader->ReadVarint());
  options.max_features = mf;
  MLCS_ASSIGN_OR_RETURN(options.bootstrap, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.num_bins, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.exact_splits, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.parallel_fit, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  auto forest = std::make_unique<RandomForest>(options);
  MLCS_ASSIGN_OR_RETURN(uint64_t num_classes,
                        reader->ReadCount(sizeof(int32_t), "forest class"));
  forest->classes_.resize(num_classes);
  for (auto& c : forest->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t nf, reader->ReadVarint());
  forest->num_features_ = nf;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_trees,
                        reader->ReadCount(1, "forest tree"));
  if (num_trees == 0 && num_classes > 0) {
    return Status::ParseError("corrupt forest: fitted but no trees");
  }
  forest->trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    MLCS_ASSIGN_OR_RETURN(auto tree, DecisionTree::DeserializeBody(reader));
    // Predict walks every tree over the forest's features and sums its
    // leaves in the forest's class-index space.
    if (tree->classes() != forest->classes_ || tree->num_features() != nf) {
      return Status::ParseError(
          "corrupt forest: a tree's classes or features differ from the "
          "forest's");
    }
    forest->trees_.push_back(std::move(tree));
  }
  return forest;
}

}  // namespace mlcs::ml
