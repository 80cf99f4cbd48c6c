#include "vscript/vs_builtins.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"

namespace mlcs::vscript {

namespace {

Status Arity(const std::string& name, const std::vector<ScriptValue>& args,
             size_t min_args, size_t max_args) {
  if (args.size() < min_args || args.size() > max_args) {
    return Status::InvalidArgument(
        name + " expects " + std::to_string(min_args) +
        (max_args == min_args ? "" : ".." + std::to_string(max_args)) +
        " arguments, got " + std::to_string(args.size()));
  }
  return Status::OK();
}

Result<int64_t> IntArg(const std::string& name,
                       const std::vector<ScriptValue>& args, size_t i) {
  MLCS_ASSIGN_OR_RETURN(Value v, args[i].AsScalar());
  auto r = v.AsInt64();
  if (!r.ok()) {
    return Status::InvalidArgument(name + ": argument " +
                                   std::to_string(i + 1) +
                                   " must be an integer");
  }
  return r;
}

Result<ml::ModelPtr> ModelArg(const std::string& name,
                              const std::vector<ScriptValue>& args,
                              size_t i) {
  if (i >= args.size() || !args[i].is_model()) {
    return Status::InvalidArgument(name + ": argument " +
                                   std::to_string(i + 1) +
                                   " must be a model handle");
  }
  return args[i].model();
}

/// Feature columns args[begin, end) as a Matrix that reads them in place.
Result<ml::Matrix> FeaturesArg(const std::string& name,
                               const std::vector<ScriptValue>& args,
                               size_t begin, size_t end) {
  std::vector<ColumnPtr> cols;
  for (size_t i = begin; i < end; ++i) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[i].AsColumn());
    cols.push_back(std::move(col));
  }
  if (cols.empty()) {
    return Status::InvalidArgument(name + ": needs at least one feature");
  }
  return ml::Matrix::FromColumns(cols);
}

Result<ml::Labels> LabelsArg(const std::string& /*name*/,
                             const std::vector<ScriptValue>& args,
                             size_t i) {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[i].AsColumn());
  MLCS_ASSIGN_OR_RETURN(ColumnPtr as_int, col->CastTo(TypeId::kInt32));
  ml::Labels labels(as_int->i32_data());
  return labels;
}

/// Scalar statistics shared by vec.sum / vec.avg / vec.min / vec.max.
Result<ScriptValue> VecStat(const std::string& op,
                            const std::vector<ScriptValue>& args) {
  MLCS_RETURN_IF_ERROR(Arity("vec." + op, args, 1, 1));
  MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[0].AsColumn());
  MLCS_ASSIGN_OR_RETURN(std::vector<double> data, col->ToDoubleVector());
  if (data.empty()) {
    return Status::InvalidArgument("vec." + op + " of an empty column");
  }
  double acc;
  if (op == "sum" || op == "avg") {
    acc = 0;
    for (double v : data) {
      if (!std::isnan(v)) acc += v;
    }
    if (op == "avg") acc /= static_cast<double>(data.size());
  } else if (op == "min") {
    acc = data[0];
    for (double v : data) {
      if (!std::isnan(v)) acc = std::min(acc, v);
    }
  } else {
    acc = data[0];
    for (double v : data) {
      if (!std::isnan(v)) acc = std::max(acc, v);
    }
  }
  return ScriptValue(Value::Double(acc));
}

Result<ScriptValue> MlBuiltin(const std::string& name,
                              const std::vector<ScriptValue>& args) {
  if (name == "ml.random_forest") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 3));
    ml::RandomForestOptions opt;
    MLCS_ASSIGN_OR_RETURN(int64_t n, IntArg(name, args, 0));
    opt.n_estimators = static_cast<int>(n);
    if (args.size() >= 2) {
      MLCS_ASSIGN_OR_RETURN(int64_t d, IntArg(name, args, 1));
      opt.max_depth = static_cast<int>(d);
    }
    if (args.size() >= 3) {
      MLCS_ASSIGN_OR_RETURN(int64_t s, IntArg(name, args, 2));
      opt.seed = static_cast<uint64_t>(s);
    }
    return ScriptValue(ml::ModelPtr(std::make_shared<ml::RandomForest>(opt)));
  }
  if (name == "ml.decision_tree") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 0, 1));
    ml::DecisionTreeOptions opt;
    if (!args.empty()) {
      MLCS_ASSIGN_OR_RETURN(int64_t d, IntArg(name, args, 0));
      opt.max_depth = static_cast<int>(d);
    }
    return ScriptValue(ml::ModelPtr(std::make_shared<ml::DecisionTree>(opt)));
  }
  if (name == "ml.logistic_regression") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 0, 2));
    ml::LogisticRegressionOptions opt;
    if (args.size() >= 1) {
      MLCS_ASSIGN_OR_RETURN(int64_t e, IntArg(name, args, 0));
      opt.epochs = static_cast<int>(e);
    }
    if (args.size() >= 2) {
      MLCS_ASSIGN_OR_RETURN(Value lr, args[1].AsScalar());
      MLCS_ASSIGN_OR_RETURN(opt.learning_rate, lr.AsDouble());
    }
    return ScriptValue(
        ml::ModelPtr(std::make_shared<ml::LogisticRegression>(opt)));
  }
  if (name == "ml.naive_bayes") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 0, 0));
    return ScriptValue(ml::ModelPtr(std::make_shared<ml::NaiveBayes>()));
  }
  if (name == "ml.knn") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 0, 1));
    ml::KnnOptions opt;
    if (!args.empty()) {
      MLCS_ASSIGN_OR_RETURN(int64_t k, IntArg(name, args, 0));
      if (k <= 0) return Status::InvalidArgument("ml.knn: k must be > 0");
      opt.k = static_cast<size_t>(k);
    }
    return ScriptValue(ml::ModelPtr(std::make_shared<ml::Knn>(opt)));
  }
  if (name == "ml.fit") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 3, 256));
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ModelArg(name, args, 0));
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x,
                          FeaturesArg(name, args, 1, args.size() - 1));
    MLCS_ASSIGN_OR_RETURN(ml::Labels y,
                          LabelsArg(name, args, args.size() - 1));
    MLCS_RETURN_IF_ERROR(model->Fit(x, y));
    return ScriptValue();  // fit mutates the handle
  }
  if (name == "ml.predict") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 2, 256));
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ModelArg(name, args, 0));
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x,
                          FeaturesArg(name, args, 1, args.size()));
    MLCS_ASSIGN_OR_RETURN(ml::Labels pred, model->Predict(x));
    return ScriptValue(Column::FromInt32(std::move(pred)));
  }
  if (name == "ml.predict_proba") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 3, 256));
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ModelArg(name, args, 0));
    MLCS_ASSIGN_OR_RETURN(int64_t cls, IntArg(name, args, 1));
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x,
                          FeaturesArg(name, args, 2, args.size()));
    MLCS_ASSIGN_OR_RETURN(std::vector<double> proba,
                          model->PredictProba(x, static_cast<int32_t>(cls)));
    return ScriptValue(Column::FromDouble(std::move(proba)));
  }
  if (name == "ml.confidence") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 2, 256));
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ModelArg(name, args, 0));
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x,
                          FeaturesArg(name, args, 1, args.size()));
    MLCS_ASSIGN_OR_RETURN(std::vector<double> conf,
                          model->PredictConfidence(x));
    return ScriptValue(Column::FromDouble(std::move(conf)));
  }
  if (name == "ml.accuracy") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    MLCS_ASSIGN_OR_RETURN(ml::Labels y_true, LabelsArg(name, args, 0));
    MLCS_ASSIGN_OR_RETURN(ml::Labels y_pred, LabelsArg(name, args, 1));
    MLCS_ASSIGN_OR_RETURN(double acc, ml::Accuracy(y_true, y_pred));
    return ScriptValue(Value::Double(acc));
  }
  return Status::NotFound("unknown builtin '" + name + "'");
}

Result<ScriptValue> PickleBuiltin(const std::string& name,
                                  const std::vector<ScriptValue>& args) {
  if (name == "pickle.dumps") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ModelArg(name, args, 0));
    return ScriptValue(Value::Blob(ml::pickle::Dumps(*model)));
  }
  if (name == "pickle.loads") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    MLCS_ASSIGN_OR_RETURN(Value blob, args[0].AsScalar());
    if (blob.type() != TypeId::kBlob && blob.type() != TypeId::kVarchar) {
      return Status::InvalidArgument("pickle.loads expects a BLOB");
    }
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model,
                          ml::pickle::Loads(blob.blob_value()));
    return ScriptValue(std::move(model));
  }
  return Status::NotFound("unknown builtin '" + name + "'");
}

Result<ScriptValue> VecBuiltin(const std::string& name,
                               const std::vector<ScriptValue>& args) {
  if (name == "vec.len") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[0].AsColumn());
    return ScriptValue(Value::Int64(static_cast<int64_t>(col->size())));
  }
  if (name == "vec.sum" || name == "vec.avg" || name == "vec.min" ||
      name == "vec.max") {
    return VecStat(name.substr(4), args);
  }
  if (name == "vec.fill") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    MLCS_ASSIGN_OR_RETURN(Value v, args[0].AsScalar());
    MLCS_ASSIGN_OR_RETURN(int64_t n, IntArg(name, args, 1));
    if (n < 0) return Status::InvalidArgument("vec.fill: negative length");
    return ScriptValue(Column::Constant(v, static_cast<size_t>(n)));
  }
  if (name == "vec.abs" || name == "vec.log" || name == "vec.exp" ||
      name == "vec.sqrt" || name == "vec.round" || name == "vec.floor" ||
      name == "vec.ceil") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 1));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[0].AsColumn());
    MLCS_ASSIGN_OR_RETURN(std::vector<double> data, col->ToDoubleVector());
    const std::string op = name.substr(4);
    for (auto& v : data) {
      if (op == "abs") {
        v = std::fabs(v);
      } else if (op == "log") {
        v = std::log(v);
      } else if (op == "exp") {
        v = std::exp(v);
      } else if (op == "sqrt") {
        v = std::sqrt(v);
      } else if (op == "round") {
        v = std::round(v);
      } else if (op == "floor") {
        v = std::floor(v);
      } else {
        v = std::ceil(v);
      }
    }
    ColumnPtr out = Column::FromDouble(std::move(data));
    if (col->has_nulls()) {
      for (size_t i = 0; i < col->size(); ++i) {
        if (col->IsNull(i)) out->SetNull(i);
      }
    }
    if (args[0].is_scalar()) {
      MLCS_ASSIGN_OR_RETURN(Value v, out->GetValue(0));
      return ScriptValue(std::move(v));
    }
    return ScriptValue(std::move(out));
  }
  if (name == "vec.where") {
    // vec.where(cond, a, b): per-row select, numpy.where semantics.
    MLCS_RETURN_IF_ERROR(Arity(name, args, 3, 3));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr cond, args[0].AsColumn());
    if (cond->type() != TypeId::kBool) {
      return Status::TypeMismatch("vec.where condition must be boolean");
    }
    MLCS_ASSIGN_OR_RETURN(ColumnPtr a, args[1].AsColumn());
    MLCS_ASSIGN_OR_RETURN(ColumnPtr b, args[2].AsColumn());
    size_t n = cond->size();
    MLCS_ASSIGN_OR_RETURN(TypeId out_type,
                          CommonNumericType(a->type(), b->type()));
    ColumnPtr out = Column::Make(out_type);
    out->Reserve(n);
    const auto& mask = cond->bool_data();
    for (size_t i = 0; i < n; ++i) {
      const ColumnPtr& src = mask[i] != 0 ? a : b;
      size_t idx = src->size() == 1 ? 0 : i;
      if (idx >= src->size()) {
        return Status::InvalidArgument("vec.where operand too short");
      }
      if (cond->IsNull(i) || src->IsNull(idx)) {
        out->AppendNull();
        continue;
      }
      MLCS_ASSIGN_OR_RETURN(Value v, src->GetValue(idx));
      MLCS_RETURN_IF_ERROR(out->AppendValue(v));
    }
    return ScriptValue(std::move(out));
  }
  if (name == "vec.clip") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 3, 3));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[0].AsColumn());
    MLCS_ASSIGN_OR_RETURN(Value lo_v, args[1].AsScalar());
    MLCS_ASSIGN_OR_RETURN(Value hi_v, args[2].AsScalar());
    MLCS_ASSIGN_OR_RETURN(double lo, lo_v.AsDouble());
    MLCS_ASSIGN_OR_RETURN(double hi, hi_v.AsDouble());
    if (lo > hi) return Status::InvalidArgument("vec.clip: lo > hi");
    MLCS_ASSIGN_OR_RETURN(std::vector<double> data, col->ToDoubleVector());
    for (auto& v : data) v = std::clamp(v, lo, hi);
    ColumnPtr out = Column::FromDouble(std::move(data));
    if (col->has_nulls()) {
      for (size_t i = 0; i < col->size(); ++i) {
        if (col->IsNull(i)) out->SetNull(i);
      }
    }
    return ScriptValue(std::move(out));
  }
  if (name == "vec.fillna") {
    // Replace NULL/NaN with a scalar — the paper's §3 "inconsistencies
    // from incorrect or missing measurements are corrected" step.
    MLCS_RETURN_IF_ERROR(Arity(name, args, 2, 2));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, args[0].AsColumn());
    MLCS_ASSIGN_OR_RETURN(Value fill, args[1].AsScalar());
    MLCS_ASSIGN_OR_RETURN(std::vector<double> data, col->ToDoubleVector());
    MLCS_ASSIGN_OR_RETURN(double f, fill.AsDouble());
    for (auto& v : data) {
      if (std::isnan(v)) v = f;
    }
    return ScriptValue(Column::FromDouble(std::move(data)));
  }
  if (name == "vec.random") {
    MLCS_RETURN_IF_ERROR(Arity(name, args, 1, 2));
    MLCS_ASSIGN_OR_RETURN(int64_t n, IntArg(name, args, 0));
    if (n < 0) return Status::InvalidArgument("vec.random: negative length");
    uint64_t seed = 42;
    if (args.size() >= 2) {
      MLCS_ASSIGN_OR_RETURN(int64_t s, IntArg(name, args, 1));
      seed = static_cast<uint64_t>(s);
    }
    Rng rng(seed);
    std::vector<double> data(static_cast<size_t>(n));
    for (auto& v : data) v = rng.NextDouble();
    return ScriptValue(Column::FromDouble(std::move(data)));
  }
  return Status::NotFound("unknown builtin '" + name + "'");
}

}  // namespace

bool IsBuiltin(const std::string& name) {
  static const std::set<std::string>* kNames = new std::set<std::string>{
      "ml.random_forest", "ml.decision_tree", "ml.logistic_regression",
      "ml.naive_bayes",   "ml.knn",           "ml.fit",
      "ml.predict",
      "ml.predict_proba", "ml.confidence",    "ml.accuracy",
      "pickle.dumps",     "pickle.loads",     "vec.len",
      "vec.sum",          "vec.avg",          "vec.min",
      "vec.max",          "vec.fill",         "vec.random",
      "vec.abs",          "vec.log",          "vec.exp",
      "vec.sqrt",         "vec.round",        "vec.floor",
      "vec.ceil",         "vec.where",        "vec.clip",
      "vec.fillna",       "print"};
  return kNames->count(name) > 0;
}

Result<ScriptValue> CallBuiltin(const std::string& name,
                                const std::vector<ScriptValue>& args) {
  if (name.rfind("ml.", 0) == 0) return MlBuiltin(name, args);
  if (name.rfind("pickle.", 0) == 0) return PickleBuiltin(name, args);
  if (name.rfind("vec.", 0) == 0) return VecBuiltin(name, args);
  if (name == "print") {
    std::string rendered;
    for (const auto& arg : args) {
      if (!rendered.empty()) rendered += " ";
      rendered += arg.ToString();
    }
    MLCS_LOG(kInfo) << "[vscript] " << rendered;
    return ScriptValue();
  }
  return Status::NotFound("unknown function '" + name + "'");
}

}  // namespace mlcs::vscript
