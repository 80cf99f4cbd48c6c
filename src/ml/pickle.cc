#include "ml/pickle.h"

#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace mlcs::ml::pickle {

namespace {
constexpr uint32_t kMagic = 0x4D4C504B;  // "MLPK"
}

std::string Dumps(const Model& model) {
  ByteWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU8(static_cast<uint8_t>(model.type()));
  model.Serialize(&writer);
  return writer.TakeString();
}

Result<ModelPtr> Loads(const std::string& bytes) {
  ByteReader reader(bytes);
  MLCS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return Status::ParseError("not a pickled mlcs model");
  }
  MLCS_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
  ModelPtr model;
  switch (static_cast<ModelType>(tag)) {
    case ModelType::kDecisionTree: {
      MLCS_ASSIGN_OR_RETURN(model, DecisionTree::DeserializeBody(&reader));
      break;
    }
    case ModelType::kRandomForest: {
      MLCS_ASSIGN_OR_RETURN(model, RandomForest::DeserializeBody(&reader));
      break;
    }
    case ModelType::kLogisticRegression: {
      MLCS_ASSIGN_OR_RETURN(model,
                            LogisticRegression::DeserializeBody(&reader));
      break;
    }
    case ModelType::kNaiveBayes: {
      MLCS_ASSIGN_OR_RETURN(model, NaiveBayes::DeserializeBody(&reader));
      break;
    }
    case ModelType::kKnn: {
      MLCS_ASSIGN_OR_RETURN(model, Knn::DeserializeBody(&reader));
      break;
    }
    default:
      return Status::ParseError("unknown model type tag " +
                                std::to_string(tag));
  }
  // One model has one BLOB: bytes past the body would give the same model
  // a second ModelCache key.
  if (!reader.AtEnd()) {
    return Status::ParseError(std::to_string(reader.remaining()) +
                              " trailing bytes after the pickled model");
  }
  return model;
}

}  // namespace mlcs::ml::pickle
