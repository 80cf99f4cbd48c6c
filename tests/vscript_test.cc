#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/pickle.h"
#include "vscript/vs_interpreter.h"
#include "vscript/vs_lexer.h"
#include "vscript/vs_parser.h"

namespace mlcs::vscript {
namespace {

TEST(VsLexerTest, TokenizesOperatorsAndKeywords) {
  auto tokens = Tokenize("x = a + b * 2; return x >= 10;").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kIdent);
  EXPECT_EQ(tokens[1].type, TokenType::kAssign);
  EXPECT_EQ(tokens[5].type, TokenType::kStar);
  EXPECT_EQ(tokens.back().type, TokenType::kEof);
}

TEST(VsLexerTest, CommentsSkipped) {
  auto tokens = Tokenize("# a comment\nx = 1; # trailing\n").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 2);
}

TEST(VsLexerTest, StringsWithEscapes) {
  auto tokens = Tokenize("s = 'a\\'b\\n';").ValueOrDie();
  EXPECT_EQ(tokens[2].type, TokenType::kString);
  EXPECT_EQ(tokens[2].text, "a'b\n");
}

TEST(VsLexerTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Tokenize("s = 'oops").ok());
}

TEST(VsLexerTest, FloatsAndInts) {
  auto tokens = Tokenize("1 2.5 1e3 7").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kInt);
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_EQ(tokens[2].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].type, TokenType::kInt);
}

TEST(VsParserTest, ParsesListing1Shape) {
  // The paper's Listing 1 body, translated to VectorScript.
  const char* body = R"(
    clf = ml.random_forest(n_estimators);
    ml.fit(clf, data, classes);
    return { classifier: pickle.dumps(clf), estimators: n_estimators };
  )";
  auto program = Parse(body).ValueOrDie();
  EXPECT_EQ(program.statements.size(), 3u);
  EXPECT_EQ(program.statements[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(program.statements[2]->kind, StmtKind::kReturn);
}

TEST(VsParserTest, SyntaxErrorsCarryLineNumbers) {
  auto r = Parse("x = ;\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(VsParserTest, MissingSemicolonRejected) {
  EXPECT_FALSE(Parse("x = 1").ok());
  EXPECT_FALSE(Parse("return 1").ok());
}

TEST(VsInterpreterTest, ScalarArithmetic) {
  auto result = ExecuteSource("return (1 + 2) * 3;", {}).ValueOrDie();
  EXPECT_EQ(result.AsScalar().ValueOrDie(), Value::Int32(9));
}

TEST(VsInterpreterTest, VariablesAndReassignment) {
  auto result = ExecuteSource("x = 1; x = x + 10; return x;", {})
                    .ValueOrDie();
  EXPECT_EQ(result.AsScalar().ValueOrDie(), Value::Int32(11));
}

TEST(VsInterpreterTest, UndefinedVariableReported) {
  auto r = ExecuteSource("return ghost;", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

TEST(VsInterpreterTest, IfElse) {
  const char* body = R"(
    if (x > 5) { result = 'big'; } else { result = 'small'; }
    return result;
  )";
  Environment env;
  env["x"] = ScriptValue(Value::Int32(10));
  EXPECT_EQ(ExecuteSource(body, env).ValueOrDie().AsScalar().ValueOrDie(),
            Value::Varchar("big"));
  env["x"] = ScriptValue(Value::Int32(1));
  EXPECT_EQ(ExecuteSource(body, env).ValueOrDie().AsScalar().ValueOrDie(),
            Value::Varchar("small"));
}

TEST(VsInterpreterTest, WhileLoop) {
  const char* body = R"(
    total = 0;
    i = 0;
    while (i < 10) { total = total + i; i = i + 1; }
    return total;
  )";
  EXPECT_EQ(
      ExecuteSource(body, {}).ValueOrDie().AsScalar().ValueOrDie(),
      Value::Int32(45));
}

TEST(VsInterpreterTest, InfiniteLoopGuard) {
  InterpreterOptions opt;
  opt.max_steps = 1000;
  auto r = ExecuteSource("while (true) { x = 1; }", {}, opt);
  EXPECT_FALSE(r.ok());
}

TEST(VsInterpreterTest, VectorArithmeticBroadcasts) {
  Environment env;
  env["data"] = ScriptValue(Column::FromInt32({1, 2, 3}));
  auto result = ExecuteSource("return data * 2 + 1;", env).ValueOrDie();
  ASSERT_TRUE(result.is_column());
  EXPECT_EQ(result.column()->i32_data(), (std::vector<int32_t>{3, 5, 7}));
}

TEST(VsInterpreterTest, VectorComparisonYieldsBoolColumn) {
  Environment env;
  env["v"] = ScriptValue(Column::FromDouble({0.1, 0.9}));
  auto result = ExecuteSource("return v > 0.5;", env).ValueOrDie();
  ASSERT_TRUE(result.is_column());
  EXPECT_EQ(result.column()->bool_data(), (std::vector<uint8_t>{0, 1}));
}

TEST(VsInterpreterTest, VecBuiltins) {
  Environment env;
  env["v"] = ScriptValue(Column::FromInt32({1, 2, 3, 4}));
  EXPECT_EQ(ExecuteSource("return vec.len(v);", env)
                .ValueOrDie()
                .AsScalar()
                .ValueOrDie(),
            Value::Int64(4));
  EXPECT_EQ(ExecuteSource("return vec.sum(v);", env)
                .ValueOrDie()
                .AsScalar()
                .ValueOrDie(),
            Value::Double(10.0));
  EXPECT_EQ(ExecuteSource("return vec.avg(v);", env)
                .ValueOrDie()
                .AsScalar()
                .ValueOrDie(),
            Value::Double(2.5));
  EXPECT_EQ(ExecuteSource("return vec.min(v);", env)
                .ValueOrDie()
                .AsScalar()
                .ValueOrDie(),
            Value::Double(1.0));
  EXPECT_EQ(ExecuteSource("return vec.max(v);", env)
                .ValueOrDie()
                .AsScalar()
                .ValueOrDie(),
            Value::Double(4.0));
  auto fill = ExecuteSource("return vec.fill(7, 3);", env).ValueOrDie();
  EXPECT_EQ(fill.column()->i32_data(), (std::vector<int32_t>{7, 7, 7}));
  auto rnd = ExecuteSource("return vec.random(5, 1);", env).ValueOrDie();
  EXPECT_EQ(rnd.column()->size(), 5u);
}

std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(VsParserTest, DeepNestingIsAParseErrorNotACrash) {
  constexpr size_t kDepth = 100000;
  std::vector<std::string> programs = {
      "return " + Repeat("(", kDepth) + "1" + Repeat(")", kDepth) + ";",
      "return " + Repeat("!", kDepth) + "true;",
      "return " + Repeat("-", kDepth) + "1;",
      Repeat("if (true) {", kDepth) + "return 1;" + Repeat("}", kDepth)};
  for (const std::string& source : programs) {
    auto program = Parse(source);
    ASSERT_FALSE(program.ok()) << source.substr(0, 40);
    EXPECT_EQ(program.status().code(), StatusCode::kParseError);
    EXPECT_NE(program.status().message().find("nesting deeper than"),
              std::string::npos)
        << program.status().ToString();
  }
}

TEST(VsParserTest, NestingJustUnderTheCapParses) {
  // The return statement and its expression take 2 of the 256 levels.
  constexpr size_t kDepth = 254;
  EXPECT_TRUE(
      Parse("return " + Repeat("(", kDepth) + "1" + Repeat(")", kDepth) + ";")
          .ok());
  EXPECT_TRUE(Parse("return " + Repeat("-", kDepth) + "1;").ok());
}

TEST(VsInterpreterTest, UnknownFunctionReportsLine) {
  auto r = ExecuteSource("x = 1;\nreturn nope.nothing(x);", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

/// End-to-end: the paper's Listing 1 train body followed by Listing 2
/// predict body, entirely inside VectorScript.
TEST(VsInterpreterTest, Listing1ThenListing2) {
  // Separable data: class = x > 50.
  Rng rng(3);
  std::vector<int32_t> data(400), classes(400);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int32_t>(rng.NextBounded(100));
    classes[i] = data[i] > 50 ? 1 : 0;
  }
  Environment train_env;
  train_env["data"] = ScriptValue(Column::FromInt32(std::move(data)));
  train_env["classes"] =
      ScriptValue(Column::FromInt32(std::vector<int32_t>(classes)));
  train_env["n_estimators"] = ScriptValue(Value::Int32(8));

  const char* train_body = R"(
    clf = ml.random_forest(n_estimators);
    ml.fit(clf, data, classes);
    return { classifier: pickle.dumps(clf), estimators: n_estimators };
  )";
  auto trained = ExecuteSource(train_body, train_env).ValueOrDie();
  ASSERT_TRUE(trained.is_dict());
  const auto& dict = trained.dict();
  ASSERT_TRUE(dict.count("classifier"));
  Value blob = dict.at("classifier").AsScalar().ValueOrDie();
  EXPECT_EQ(blob.type(), TypeId::kBlob);
  EXPECT_EQ(dict.at("estimators").AsScalar().ValueOrDie(), Value::Int32(8));

  // Listing 2: predict.
  Environment predict_env;
  predict_env["data"] = ScriptValue(Column::FromInt32({10, 90, 30, 70}));
  predict_env["classifier"] = ScriptValue(blob);
  const char* predict_body = R"(
    classifier = pickle.loads(classifier);
    return ml.predict(classifier, data);
  )";
  auto pred = ExecuteSource(predict_body, predict_env).ValueOrDie();
  ASSERT_TRUE(pred.is_column());
  EXPECT_EQ(pred.column()->i32_data(), (std::vector<int32_t>{0, 1, 0, 1}));
}

TEST(VsInterpreterTest, MlAccuracyAndConfidence) {
  Rng rng(5);
  std::vector<int32_t> data(300), classes(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int32_t>(rng.NextBounded(100));
    classes[i] = data[i] > 50 ? 1 : 0;
  }
  Environment env;
  env["data"] = ScriptValue(Column::FromInt32(std::move(data)));
  env["classes"] = ScriptValue(Column::FromInt32(std::move(classes)));
  const char* body = R"(
    clf = ml.decision_tree();
    ml.fit(clf, data, classes);
    pred = ml.predict(clf, data);
    acc = ml.accuracy(classes, pred);
    conf = ml.confidence(clf, data);
    return { accuracy: acc, mean_conf: vec.avg(conf) };
  )";
  auto result = ExecuteSource(body, env).ValueOrDie();
  double acc =
      result.dict().at("accuracy").AsScalar().ValueOrDie().double_value();
  EXPECT_GT(acc, 0.95);
  double mean_conf =
      result.dict().at("mean_conf").AsScalar().ValueOrDie().double_value();
  EXPECT_GT(mean_conf, 0.5);
  EXPECT_LE(mean_conf, 1.0 + 1e-9);
}

TEST(VsInterpreterTest, ModelArithmeticRejected) {
  Environment env;
  const char* body = "m = ml.naive_bayes(); return m + 1;";
  EXPECT_FALSE(ExecuteSource(body, env).ok());
}

TEST(VsInterpreterTest, FitValidationErrorsSurface) {
  Environment env;
  env["data"] = ScriptValue(Column::FromInt32({1, 2, 3}));
  env["classes"] = ScriptValue(Column::FromInt32({0, 1}));  // wrong length
  const char* body = R"(
    clf = ml.naive_bayes();
    ml.fit(clf, data, classes);
    return 0;
  )";
  EXPECT_FALSE(ExecuteSource(body, env).ok());
}

}  // namespace
}  // namespace mlcs::vscript
