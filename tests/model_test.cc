/// The one predict path (ml/model.h): every model computes a class
/// distribution per row, and Model derives labels, probabilities and
/// confidences from it the same way for all five model types.
#include "ml/model.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace mlcs::ml {
namespace {

struct ModelCase {
  const char* name;
  std::function<ModelPtr()> make;
};

std::vector<ModelCase> AllModelTypes() {
  return {
      {"decision_tree",
       [] {
         DecisionTreeOptions opt;
         opt.max_depth = 3;  // impure leaves, some split evenly
         return std::make_shared<DecisionTree>(opt);
       }},
      {"random_forest",
       [] {
         RandomForestOptions opt;
         opt.n_estimators = 4;
         opt.max_depth = 3;
         return std::make_shared<RandomForest>(opt);
       }},
      {"logistic_regression",
       [] { return std::make_shared<LogisticRegression>(); }},
      {"naive_bayes", [] { return std::make_shared<NaiveBayes>(); }},
      {"knn",
       [] {
         KnnOptions opt;
         opt.k = 4;  // even k over three classes: tied votes
         return std::make_shared<Knn>(opt);
       }},
  };
}

/// Three classes over a few small-integer features with noisy labels, so
/// rows repeat and distributions tie.
void MakeData(Matrix* x, Labels* y) {
  Rng rng(77);
  const size_t n = 400;
  *x = Matrix(n, 3);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      x->Set(r, c, static_cast<double>(rng.NextBounded(4)));
    }
    int32_t base = x->At(r, 0) + x->At(r, 1) > 3 ? 20 : 10;
    (*y)[r] = rng.NextBounded(4) == 0 ? 30 : base;
  }
}

TEST(ModelTest, LabelsAndConfidencesDeriveFromTheProbabilities) {
  Matrix x;
  Labels y;
  MakeData(&x, &y);
  for (const ModelCase& c : AllModelTypes()) {
    SCOPED_TRACE(c.name);
    ModelPtr model = c.make();
    ASSERT_TRUE(model->Fit(x, y).ok());
    const std::vector<int32_t>& classes = model->classes();
    ASSERT_EQ(classes, (std::vector<int32_t>{10, 20, 30}));

    std::vector<std::vector<double>> proba;
    for (int32_t cls : classes) {
      auto p = model->PredictProba(x, cls);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      proba.push_back(p.ValueOrDie());
    }
    auto labels = model->Predict(x);
    auto confidence = model->PredictConfidence(x);
    ASSERT_TRUE(labels.ok() && confidence.ok());

    size_t ties = 0;
    for (size_t r = 0; r < x.rows(); ++r) {
      size_t best = 0;
      double max = 0;
      for (size_t k = 0; k < classes.size(); ++k) {
        if (proba[k][r] > proba[best][r]) best = k;
        max = std::max(max, proba[k][r]);
      }
      for (size_t k = best + 1; k < classes.size(); ++k) {
        ties += proba[k][r] == proba[best][r] ? 1 : 0;
      }
      EXPECT_EQ(labels.ValueOrDie()[r], classes[best]) << "row " << r;
      EXPECT_EQ(confidence.ValueOrDie()[r], max) << "row " << r;
    }
    if (model->type() == ModelType::kKnn) {
      EXPECT_GT(ties, 0u) << "the tie rule went untested";
    }

    EXPECT_FALSE(model->PredictProba(x, 99).ok());
    Matrix narrow(4, 2);
    EXPECT_FALSE(model->Predict(narrow).ok());
    EXPECT_FALSE(model->PredictConfidence(narrow).ok());
  }
}

TEST(ModelTest, UnfittedModelsRefuseToPredict) {
  Matrix x(4, 3);
  for (const ModelCase& c : AllModelTypes()) {
    SCOPED_TRACE(c.name);
    ModelPtr model = c.make();
    EXPECT_FALSE(model->fitted());
    EXPECT_FALSE(model->Predict(x).ok());
    EXPECT_FALSE(model->PredictConfidence(x).ok());
    EXPECT_FALSE(model->Fit(Matrix(), Labels()).ok());
    EXPECT_FALSE(model->Fit(x, Labels(3, 1)).ok());
  }
}

}  // namespace
}  // namespace mlcs::ml
