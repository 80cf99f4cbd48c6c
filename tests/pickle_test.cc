#include "ml/pickle.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace mlcs::ml {
namespace {

void MakeBlobs(size_t n, Matrix* x, Labels* y) {
  Rng rng(17);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    x->Set(i, 0, cls * 4.0 + rng.NextGaussian());
    x->Set(i, 1, cls * 4.0 + rng.NextGaussian());
    (*y)[i] = cls;
  }
}

class PickleRoundTripTest : public ::testing::TestWithParam<ModelType> {};

ModelPtr MakeModel(ModelType type) {
  ModelPtr model;
  switch (type) {
    case ModelType::kDecisionTree:
      model = std::make_shared<DecisionTree>();
      break;
    case ModelType::kRandomForest: {
      RandomForestOptions opt;
      opt.n_estimators = 4;
      model = std::make_shared<RandomForest>(opt);
      break;
    }
    case ModelType::kLogisticRegression:
      model = std::make_shared<LogisticRegression>();
      break;
    case ModelType::kNaiveBayes:
      model = std::make_shared<NaiveBayes>();
      break;
    case ModelType::kKnn:
      model = std::make_shared<Knn>();
      break;
  }
  return model;
}

/// Property: dumps → loads preserves type, classes and all predictions,
/// for every model family — the paper's model-BLOB storage invariant.
TEST_P(PickleRoundTripTest, DumpsLoadsPreservesPredictions) {
  Matrix x;
  Labels y;
  MakeBlobs(300, &x, &y);
  ModelPtr model = MakeModel(GetParam());
  ASSERT_TRUE(model->Fit(x, y).ok());

  std::string blob = pickle::Dumps(*model);
  EXPECT_GT(blob.size(), 8u);
  ModelPtr back = pickle::Loads(blob).ValueOrDie();
  EXPECT_EQ(back->type(), model->type());
  EXPECT_EQ(back->classes(), model->classes());
  EXPECT_EQ(back->Predict(x).ValueOrDie(), model->Predict(x).ValueOrDie());
  auto pa = model->PredictConfidence(x).ValueOrDie();
  auto pb = back->PredictConfidence(x).ValueOrDie();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

// A model has one BLOB: bytes past its body are rejected, so two BLOBs of
// one model cannot reach the ModelCache under two keys.
TEST_P(PickleRoundTripTest, RejectsTrailingBytes) {
  Matrix x;
  Labels y;
  MakeBlobs(100, &x, &y);
  ModelPtr model = MakeModel(GetParam());
  ASSERT_TRUE(model->Fit(x, y).ok());
  const std::string blob = pickle::Dumps(*model);
  ASSERT_TRUE(pickle::Loads(blob).ok());
  const std::string tail("\0yz", 3);
  for (size_t n : {1, 3}) {
    auto loaded = pickle::Loads(blob + tail.substr(0, n));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PickleRoundTripTest,
                         ::testing::Values(ModelType::kDecisionTree,
                                           ModelType::kRandomForest,
                                           ModelType::kLogisticRegression,
                                           ModelType::kNaiveBayes,
                                           ModelType::kKnn));

TEST(PickleTest, RejectsGarbage) {
  EXPECT_FALSE(pickle::Loads("not a model").ok());
  EXPECT_FALSE(pickle::Loads("").ok());
}

TEST(PickleTest, RejectsUnknownTypeTag) {
  ByteWriter w;
  w.WriteU32(0x4D4C504B);
  w.WriteU8(0x7E);
  auto r = pickle::Loads(std::string(
      reinterpret_cast<const char*>(w.data().data()), w.size()));
  EXPECT_FALSE(r.ok());
}

TEST(PickleTest, RejectsTruncatedPayload) {
  Matrix x;
  Labels y;
  MakeBlobs(100, &x, &y);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  std::string blob = pickle::Dumps(tree);
  std::string truncated = blob.substr(0, blob.size() / 2);
  EXPECT_FALSE(pickle::Loads(truncated).ok());
}

/// Hand-encoded DecisionTree BLOB in DecisionTree::Serialize order. The
/// defaults form a valid one-split stump over two features; each corrupt
/// case below breaks one field. A `*_count` override writes that count
/// without changing the elements that follow it.
struct RawNode {
  int32_t feature = -1;
  double threshold = 0;
  uint32_t left = 0;
  uint32_t right = 0;
  std::vector<double> probs;
  std::optional<uint64_t> probs_count;
};

struct RawTree {
  int32_t max_depth = 10;
  std::vector<int32_t> classes = {0, 1};
  uint64_t num_features = 2;
  std::vector<RawNode> nodes = {{0, 2.0, 1, 2, {}, {}},
                                {-1, 0, 0, 0, {1.0, 0.0}, {}},
                                {-1, 0, 0, 0, {0.0, 1.0}, {}}};
  std::optional<uint64_t> class_count;
  std::optional<uint64_t> importance_count;
  std::optional<uint64_t> node_count;

  std::string Blob() const {
    ByteWriter w;
    w.WriteU32(0x4D4C504B);
    w.WriteU8(static_cast<uint8_t>(ModelType::kDecisionTree));
    WriteBody(&w);
    return w.TakeString();
  }

  void WriteBody(ByteWriter* out) const {
    ByteWriter& w = *out;
    w.WriteI32(max_depth);
    w.WriteVarint(2);  // min_samples_split
    w.WriteVarint(1);  // min_samples_leaf
    w.WriteVarint(0);  // max_features
    w.WriteI32(32);    // num_bins
    w.WriteBool(false);
    w.WriteU64(42);
    w.WriteVarint(class_count.value_or(classes.size()));
    for (int32_t c : classes) w.WriteI32(c);
    w.WriteVarint(num_features);
    w.WriteVarint(importance_count.value_or(num_features));
    for (uint64_t f = 0; f < num_features; ++f) w.WriteDouble(0.5);
    w.WriteVarint(node_count.value_or(nodes.size()));
    for (const RawNode& n : nodes) {
      w.WriteI32(n.feature);
      w.WriteDouble(n.threshold);
      w.WriteU32(n.left);
      w.WriteU32(n.right);
      w.WriteVarint(n.probs_count.value_or(n.probs.size()));
      for (double p : n.probs) w.WriteDouble(p);
    }
  }
};

/// Hand-encoded RandomForest BLOB in RandomForest::Serialize order: two
/// copies of the RawTree stump by default.
struct RawForest {
  std::vector<int32_t> classes = {0, 1};
  uint64_t num_features = 2;
  std::vector<RawTree> trees = {RawTree(), RawTree()};
  std::optional<uint64_t> tree_count;

  std::string Blob() const {
    ByteWriter w;
    w.WriteU32(0x4D4C504B);
    w.WriteU8(static_cast<uint8_t>(ModelType::kRandomForest));
    w.WriteI32(static_cast<int32_t>(trees.size()));  // n_estimators
    w.WriteI32(10);                                  // max_depth
    w.WriteVarint(2);                                // min_samples_split
    w.WriteVarint(1);                                // min_samples_leaf
    w.WriteVarint(0);                                // max_features
    w.WriteBool(true);                               // bootstrap
    w.WriteI32(255);                                 // num_bins
    w.WriteBool(false);                              // exact_splits
    w.WriteBool(true);                               // parallel_fit
    w.WriteU64(42);
    w.WriteVarint(classes.size());
    for (int32_t c : classes) w.WriteI32(c);
    w.WriteVarint(num_features);
    w.WriteVarint(tree_count.value_or(trees.size()));
    for (const RawTree& t : trees) t.WriteBody(&w);
    return w.TakeString();
  }
};

TEST(PickleTest, HandEncodedTreeLoads) {
  ModelPtr model = pickle::Loads(RawTree().Blob()).ValueOrDie();
  Matrix x(2, 2);
  x.Set(0, 0, 1.0);
  x.Set(1, 0, 3.0);
  EXPECT_EQ(model->Predict(x).ValueOrDie(), (Labels{0, 1}));
}

TEST(PickleTest, RejectsCorruptTreeFields) {
  static constexpr uint64_t kHuge = uint64_t{1} << 40;
  const std::vector<std::pair<const char*, std::function<void(RawTree&)>>>
      cases = {
          {"class count", [](RawTree& t) { t.class_count = kHuge; }},
          {"importance count", [](RawTree& t) { t.importance_count = kHuge; }},
          {"node count", [](RawTree& t) { t.node_count = kHuge; }},
          {"probs count", [](RawTree& t) { t.nodes[1].probs_count = kHuge; }},
          {"no nodes", [](RawTree& t) { t.nodes.clear(); }},
          // A self-referencing child would make a cycle.
          {"child == parent", [](RawTree& t) { t.nodes[0].left = 0; }},
          {"child past end", [](RawTree& t) { t.nodes[0].right = 3; }},
          {"split feature", [](RawTree& t) { t.nodes[0].feature = 2; }},
          {"leaf probs", [](RawTree& t) { t.nodes[2].probs = {1.0}; }},
          // Predict walks each row the tree's depth in steps, so the decoder
          // must produce a tree whose leaves hold every distribution, no
          // deeper than its header's max_depth.
          {"same child twice", [](RawTree& t) { t.nodes[0].right = 1; }},
          {"node with two parents",
           [](RawTree& t) {
             t.nodes = {{0, 2.0, 1, 2, {}, {}},
                        {1, 0.0, 3, 4, {}, {}},
                        {1, 5.0, 3, 4, {}, {}},
                        {-1, 0, 0, 0, {1.0, 0.0}, {}},
                        {-1, 0, 0, 0, {0.0, 1.0}, {}}};
           }},
          {"split with distribution",
           [](RawTree& t) { t.nodes[0].probs = {0.5, 0.5}; }},
          {"split threshold NaN",
           [](RawTree& t) {
             t.nodes[0].threshold = std::numeric_limits<double>::quiet_NaN();
           }},
          {"deeper than max_depth", [](RawTree& t) { t.max_depth = 0; }},
          {"negative max_depth", [](RawTree& t) { t.max_depth = -3; }},
      };
  for (const auto& [name, corrupt] : cases) {
    RawTree raw;
    corrupt(raw);
    EXPECT_FALSE(pickle::Loads(raw.Blob()).ok()) << name;
  }
  // The flat distribution table is sized nodes x classes before any node
  // is read, so a node count the leaves' bytes cannot back fails first.
  RawTree wide;
  wide.classes.resize(1000);
  for (RawNode& n : wide.nodes) {
    if (!n.probs.empty()) n.probs.resize(1000);
  }
  wide.node_count = 100;
  Status st = pickle::Loads(wide.Blob()).status();
  EXPECT_NE(st.message().find("leaf distributions"), std::string::npos)
      << st.ToString();
}

TEST(PickleTest, HandEncodedForestLoads) {
  ModelPtr model = pickle::Loads(RawForest().Blob()).ValueOrDie();
  Matrix x(2, 2);
  x.Set(0, 0, 1.0);
  x.Set(1, 0, 3.0);
  EXPECT_EQ(model->Predict(x).ValueOrDie(), (Labels{0, 1}));
}

TEST(PickleTest, RejectsCorruptForestFields) {
  static constexpr uint64_t kHuge = uint64_t{1} << 40;
  const std::vector<std::pair<const char*, std::function<void(RawForest&)>>>
      cases = {
          {"tree count", [](RawForest& f) { f.tree_count = kHuge; }},
          {"no trees", [](RawForest& f) { f.trees.clear(); }},
          // Predict sums every tree's leaves in the forest's class space
          // and walks them over the forest's features.
          {"tree classes", [](RawForest& f) { f.trees[1].classes = {0, 2}; }},
          {"tree class count",
           [](RawForest& f) {
             f.trees[1].classes = {0};
             for (RawNode& n : f.trees[1].nodes) {
               if (!n.probs.empty()) n.probs = {1.0};
             }
           }},
          {"tree features",
           [](RawForest& f) { f.trees[0].num_features = 3; }},
          {"corrupt tree", [](RawForest& f) { f.trees[1].node_count = kHuge; }},
      };
  for (const auto& [name, corrupt] : cases) {
    RawForest raw;
    corrupt(raw);
    EXPECT_FALSE(pickle::Loads(raw.Blob()).ok()) << name;
  }
}

/// A huge element count right after each other model's fixed header must
/// fail before it sizes an allocation.
TEST(PickleTest, RejectsHugeCountsInEveryModel) {
  static constexpr uint64_t kHuge = uint64_t{1} << 40;
  auto header = [](ModelType type) {
    ByteWriter w;
    w.WriteU32(0x4D4C504B);
    w.WriteU8(static_cast<uint8_t>(type));
    return w;
  };
  std::vector<std::pair<const char*, std::string>> blobs;
  {
    ByteWriter w = header(ModelType::kLogisticRegression);
    w.WriteDouble(0.1);  // learning_rate
    w.WriteI32(10);      // epochs
    w.WriteDouble(0.0);  // l2
    w.WriteU64(42);      // seed
    w.WriteVarint(kHuge);
    blobs.emplace_back("logistic classes", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kLogisticRegression);
    w.WriteDouble(0.1);
    w.WriteI32(10);
    w.WriteDouble(0.0);
    w.WriteU64(42);
    w.WriteVarint(1);
    w.WriteI32(0);
    w.WriteVarint(kHuge);  // features: k × d weights
    blobs.emplace_back("logistic features", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kNaiveBayes);
    w.WriteDouble(1e-9);  // var_smoothing
    w.WriteVarint(kHuge);
    blobs.emplace_back("naive bayes classes", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kNaiveBayes);
    w.WriteDouble(1e-9);
    w.WriteVarint(2);
    w.WriteI32(0);
    w.WriteI32(1);
    w.WriteVarint(kHuge);  // features: 2 × k doubles each
    blobs.emplace_back("naive bayes features", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kKnn);
    w.WriteVarint(3);  // k
    w.WriteVarint(kHuge);
    blobs.emplace_back("knn classes", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kKnn);
    w.WriteVarint(3);
    w.WriteVarint(0);
    w.WriteVarint(kHuge);
    blobs.emplace_back("knn features", w.TakeString());
  }
  {
    ByteWriter w = header(ModelType::kKnn);
    w.WriteVarint(3);
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteDouble(0.0);  // mean
    w.WriteDouble(1.0);  // std
    w.WriteVarint(kHuge);
    blobs.emplace_back("knn rows", w.TakeString());
  }
  for (const auto& [name, blob] : blobs) {
    EXPECT_FALSE(pickle::Loads(blob).ok()) << name;
  }
}

TEST(PickleTest, DoubleRoundTripIsStable) {
  Matrix x;
  Labels y;
  MakeBlobs(100, &x, &y);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(x, y).ok());
  std::string once = pickle::Dumps(nb);
  ModelPtr back = pickle::Loads(once).ValueOrDie();
  std::string twice = pickle::Dumps(*back);
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace mlcs::ml
