/// Property-based SQL tests: randomly generated expressions evaluated
/// through the full SQL path must match a direct C++ oracle, and
/// relational identities must hold on random tables.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "dataframe/dataframe.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "sql/database.h"

namespace mlcs {
namespace {

/// Random integer arithmetic/comparison expression with its oracle value.
/// Division/modulo are excluded (NULL-on-zero semantics differ from C++).
struct RandomExpr {
  std::string sql;
  int64_t value = 0;
  bool is_bool = false;
  bool bool_value = false;
};

RandomExpr GenExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.NextDouble() < 0.3) {
    RandomExpr leaf;
    leaf.value = rng.NextInt(-100, 100);
    // Leaves are cast to BIGINT so the engine computes in 64-bit like the
    // oracle (bare small literals would type as INTEGER and wrap at 2^31).
    leaf.sql = "CAST(" +
               (leaf.value < 0 ? "(0 - " + std::to_string(-leaf.value) + ")"
                               : std::to_string(leaf.value)) +
               " AS BIGINT)";
    return leaf;
  }
  RandomExpr left = GenExpr(rng, depth - 1);
  RandomExpr right = GenExpr(rng, depth - 1);
  // Comparisons only at the top to keep types simple.
  RandomExpr out;
  switch (rng.NextBounded(3)) {
    case 0:
      out.value = left.value + right.value;
      out.sql = "(" + left.sql + " + " + right.sql + ")";
      break;
    case 1:
      out.value = left.value - right.value;
      out.sql = "(" + left.sql + " - " + right.sql + ")";
      break;
    default:
      out.value = left.value * right.value;
      out.sql = "(" + left.sql + " * " + right.sql + ")";
      break;
  }
  return out;
}

TEST(SqlPropertyTest, RandomArithmeticMatchesOracle) {
  Database db;
  Rng rng(404);
  for (int i = 0; i < 200; ++i) {
    RandomExpr e = GenExpr(rng, 4);
    auto r = db.Query("SELECT CAST(" + e.sql + " AS BIGINT)");
    ASSERT_TRUE(r.ok()) << e.sql;
    EXPECT_EQ(r.ValueOrDie()->GetValue(0, 0).ValueOrDie(),
              Value::Int64(e.value))
        << e.sql;
  }
}

TEST(SqlPropertyTest, RandomComparisonsMatchOracle) {
  Database db;
  Rng rng(405);
  for (int i = 0; i < 200; ++i) {
    RandomExpr a = GenExpr(rng, 3);
    RandomExpr b = GenExpr(rng, 3);
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    size_t op = rng.NextBounded(6);
    bool expect;
    switch (op) {
      case 0: expect = a.value == b.value; break;
      case 1: expect = a.value != b.value; break;
      case 2: expect = a.value < b.value; break;
      case 3: expect = a.value <= b.value; break;
      case 4: expect = a.value > b.value; break;
      default: expect = a.value >= b.value; break;
    }
    std::string sql =
        "SELECT " + a.sql + " " + ops[op] + " " + b.sql;
    auto r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_EQ(r.ValueOrDie()->GetValue(0, 0).ValueOrDie(),
              Value::Bool(expect))
        << sql;
  }
}

class SqlRelationalPropertyTest : public ::testing::TestWithParam<int> {};

/// Relational identities on a random table:
///   COUNT(*) = COUNT(WHERE p) + COUNT(WHERE NOT p or NULL-p rows)
///   SUM over groups = global SUM
///   DISTINCT count = GROUP BY group count
TEST_P(SqlRelationalPropertyTest, IdentitiesHold) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()));
  ASSERT_TRUE(db.Query("CREATE TABLE t (g INTEGER, x INTEGER)").ok());
  auto table = db.catalog().GetTable("t").ValueOrDie();
  size_t rows = 200 + rng.NextBounded(800);
  for (size_t i = 0; i < rows; ++i) {
    Value x = rng.NextDouble() < 0.05
                  ? Value::MakeNull(TypeId::kInt32)
                  : Value::Int32(static_cast<int32_t>(rng.NextInt(-50, 50)));
    ASSERT_TRUE(
        table
            ->AppendRow({Value::Int32(static_cast<int32_t>(
                             rng.NextBounded(13))),
                         x})
            .ok());
  }

  auto scalar = [&](const std::string& sql) {
    auto r = db.Query(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.ValueOrDie()->GetValue(0, 0).ValueOrDie();
  };

  // Partition identity (NULL x rows match neither predicate).
  int64_t total = scalar("SELECT COUNT(*) FROM t").int64_value();
  int64_t pos = scalar("SELECT COUNT(*) FROM t WHERE x >= 0").int64_value();
  int64_t neg = scalar("SELECT COUNT(*) FROM t WHERE x < 0").int64_value();
  int64_t nulls =
      scalar("SELECT COUNT(*) FROM t WHERE x IS NULL").int64_value();
  EXPECT_EQ(total, pos + neg + nulls);

  // Group sums fold to the global sum.
  int64_t global_sum = scalar("SELECT SUM(x) FROM t").int64_value();
  auto groups =
      db.Query("SELECT g, SUM(x) AS s FROM t GROUP BY g").ValueOrDie();
  int64_t folded = 0;
  for (size_t r = 0; r < groups->num_rows(); ++r) {
    Value v = groups->GetValue(r, 1).ValueOrDie();
    if (!v.is_null()) folded += v.int64_value();
  }
  EXPECT_EQ(global_sum, folded);

  // DISTINCT row count equals GROUP BY group count.
  auto distinct = db.Query("SELECT DISTINCT g FROM t").ValueOrDie();
  EXPECT_EQ(distinct->num_rows(), groups->num_rows());

  // ORDER BY is a permutation: sorted sum equals unsorted sum.
  int64_t sorted_sum = 0;
  auto sorted = db.Query("SELECT x FROM t ORDER BY x").ValueOrDie();
  for (size_t r = 0; r < sorted->num_rows(); ++r) {
    Value v = sorted->GetValue(r, 0).ValueOrDie();
    if (!v.is_null()) sorted_sum += v.int64_value();
  }
  EXPECT_EQ(sorted_sum, global_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRelationalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

/// -- Optimizer parity -------------------------------------------------------
///
/// Random SELECTs (filters, joins, aggregates, ORDER BY) must return
/// bit-identical tables with the rewrite rules on and off, at one worker
/// thread and several. This is the contract sql/optimizer.h promises.

std::string ParityPredicate(Rng& rng, bool join_scope) {
  auto piece = [&rng, join_scope]() -> std::string {
    switch (rng.NextBounded(join_scope ? 7 : 5)) {
      case 0:
        return "v > " + std::to_string(rng.NextInt(-40, 40));
      case 1:
        return "w <= " + std::to_string(rng.NextInt(-40, 40));
      case 2:
        return "k = " + std::to_string(rng.NextInt(0, 9));
      case 3:
        return "s IS NOT NULL";
      case 4:
        // Literal-only conjunct: exercises constant folding (and, when it
        // folds to TRUE, whole-filter elimination).
        return rng.NextDouble() < 0.5 ? "1 < 2" : "2 < 1";
      case 5:
        return "u < " + std::to_string(rng.NextInt(-40, 40));
      default:
        // References the join-renamed right-side key copy.
        return "k_r >= " + std::to_string(rng.NextInt(0, 9));
    }
  };
  std::string out = piece();
  size_t extra = rng.NextBounded(3);
  for (size_t i = 0; i < extra; ++i) out += " AND " + piece();
  return out;
}

/// Random query over tables a (k, v, w, r, s, q), b (k, u) and c (r, t).
/// `r` is sorted, `q` is sorted with whole NULL stretches, `c.r` is a
/// sorted join key with duplicates and `s` holds low-cardinality strings.
std::string ParityQuery(Rng& rng) {
  switch (rng.NextBounded(14)) {
    case 0:  // plain filter + projection (pruning applies)
      return "SELECT k, v FROM a WHERE " + ParityPredicate(rng, false);
    case 1:  // inner join: pushdown to either side
      return "SELECT k, v, u FROM a JOIN b ON k = k WHERE " +
             ParityPredicate(rng, true);
    case 2:  // LEFT join: right-side pushes must be suppressed
      return "SELECT k, w, u FROM a LEFT JOIN b ON k = k WHERE " +
             ParityPredicate(rng, true);
    case 3:  // aggregate with grouped ORDER BY
      return "SELECT k, COUNT(*) AS c, SUM(v) AS sv FROM a WHERE " +
             ParityPredicate(rng, false) + " GROUP BY k ORDER BY k";
    case 4:  // aggregate over a join: pushdown-below-join candidate, with
             // duplicate b keys (fan-out) and NULL v inputs
      return "SELECT k, COUNT(*) AS c, SUM(v) AS sv, COUNT(v) AS cv "
             "FROM a JOIN b ON k = k GROUP BY k ORDER BY k";
    case 5:  // same, filtered: the fact-side filter must stay below the
             // partial aggregate
      return "SELECT k, SUM(w) AS sw FROM a JOIN b ON k = k WHERE " +
             ParityPredicate(rng, false) + " GROUP BY k ORDER BY k";
    case 6:  // dim-side group key: grouping stays above the join while the
             // fact side still collapses by the join key
      return "SELECT u, COUNT(*) AS c, SUM(v) AS sv FROM a JOIN b "
             "ON k = k GROUP BY u ORDER BY u";
    case 7:  // aggregation grouped on the sorted column
      return "SELECT r, COUNT(*) AS c, SUM(w) AS sw FROM a "
             "GROUP BY r ORDER BY r";
    case 8:  // equality filter on the sorted column
      return "SELECT k, s FROM a WHERE r = " +
             std::to_string(rng.NextInt(0, 14));
    case 9:  // strings as group keys
      return "SELECT s, COUNT(*) AS c FROM a GROUP BY s ORDER BY s";
    case 10:  // two group keys, one with NULL stretches
      return "SELECT r, q, COUNT(*) AS c, SUM(v) AS sv FROM a WHERE " +
             ParityPredicate(rng, false) + " GROUP BY r, q ORDER BY r, q";
    case 11:  // join on a sorted key with duplicates on the build side
      return "SELECT k, r, t FROM a JOIN c ON r = r WHERE " +
             ParityPredicate(rng, false);
    case 12:  // nullable probe key; NULL keys never match
      return "SELECT k, q, t FROM a LEFT JOIN c ON q = r";
    case 13:
    default:  // no column refs at all: narrowest-column scan kicks in
      return "SELECT COUNT(*) FROM a WHERE " + ParityPredicate(rng, false);
  }
}

/// Every query returns the same table with the optimizer on and off, and
/// the same again from a SaveTo/LoadFrom copy of the tables, whose scans
/// read block files through the buffer pool and skip blocks by zone map.
/// Runs at one worker thread and several.
TEST(SqlPropertyTest, OptimizerParityOnRandomQueries) {
  ThreadPool one_thread(1);
  ThreadPool many_threads(3);
  for (ThreadPool* pool : {&one_thread, &many_threads}) {
    Database db;
    MorselPolicy policy;
    policy.pool = pool;
    policy.morsel_rows = 64;  // several morsels even on a small table
    db.set_exec_policy(policy);
    ASSERT_TRUE(db.Run("CREATE TABLE a (k INTEGER, v INTEGER, w INTEGER, "
                       "r INTEGER, s VARCHAR, q INTEGER); "
                       "CREATE TABLE b (k INTEGER, u INTEGER); "
                       "CREATE TABLE c (r INTEGER, t INTEGER);")
                    .ok());
    Rng rng(pool->num_threads() == 1 ? 42 : 43);
    auto a = db.catalog().GetTable("a").ValueOrDie();
    for (size_t i = 0; i < 600; ++i) {
      Value v = rng.NextDouble() < 0.05
                    ? Value::MakeNull(TypeId::kInt32)
                    : Value::Int32(static_cast<int32_t>(
                          rng.NextInt(-50, 50)));
      Value s = rng.NextDouble() < 0.10
                    ? Value::MakeNull(TypeId::kVarchar)
                    : Value::Varchar("s" + std::to_string(rng.NextBounded(7)));
      ASSERT_TRUE(
          a->AppendRow({Value::Int32(static_cast<int32_t>(
                            rng.NextBounded(10))),
                        v,
                        Value::Int32(static_cast<int32_t>(
                            rng.NextInt(-50, 50))),
                        Value::Int32(static_cast<int32_t>(i / 40)), s,
                        i / 30 % 4 == 1
                            ? Value::MakeNull(TypeId::kInt32)
                            : Value::Int32(static_cast<int32_t>(i / 30))})
              .ok());
    }
    auto b = db.catalog().GetTable("b").ValueOrDie();
    for (size_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(b->AppendRow({Value::Int32(static_cast<int32_t>(
                                    rng.NextBounded(13))),
                                Value::Int32(static_cast<int32_t>(
                                    rng.NextInt(-50, 50)))})
                      .ok());
    }
    auto c = db.catalog().GetTable("c").ValueOrDie();
    for (size_t i = 0; i < 240; ++i) {
      ASSERT_TRUE(c->AppendRow({Value::Int32(static_cast<int32_t>(i / 12)),
                                Value::Int32(static_cast<int32_t>(
                                    rng.NextInt(-50, 50)))})
                      .ok());
    }

    std::string dir = testing::TempDir() + "/parity_" +
                      std::to_string(pool->num_threads());
    ASSERT_TRUE(db.SaveTo(dir).ok());
    Database stored;
    stored.set_exec_policy(policy);
    ASSERT_TRUE(stored.LoadFrom(dir).ok());

    for (int i = 0; i < 140; ++i) {
      std::string sql = ParityQuery(rng);
      db.set_optimizer_enabled(true);
      auto on = db.Query(sql);
      ASSERT_TRUE(on.ok()) << sql << " -> " << on.status().ToString();
      db.set_optimizer_enabled(false);
      auto off = db.Query(sql);
      ASSERT_TRUE(off.ok()) << sql << " -> " << off.status().ToString();
      EXPECT_TRUE(on.ValueOrDie()->Equals(*off.ValueOrDie()))
          << sql << "\noptimized:\n"
          << on.ValueOrDie()->ToString() << "\nunoptimized:\n"
          << off.ValueOrDie()->ToString();
      auto from_blocks = stored.Query(sql);
      ASSERT_TRUE(from_blocks.ok())
          << sql << " -> " << from_blocks.status().ToString();
      EXPECT_TRUE(on.ValueOrDie()->Equals(*from_blocks.ValueOrDie()))
          << sql << "\nresident:\n"
          << on.ValueOrDie()->ToString() << "\nstored:\n"
          << from_blocks.ValueOrDie()->ToString();
    }
    // The stored copy was read from blocks, not promoted to resident.
    EXPECT_FALSE(stored.catalog().IsResident("a"));
  }
}

/// -- Column-ingestion parity -----------------------------------------------
///
/// The in-database UDFs train and predict from table columns through
/// Matrix::FromColumns (plain null-free INTEGER/DOUBLE columns read in
/// place, anything else converted once); the external channels copy them
/// into owned doubles with DataFrame::ToMatrix. Both must yield
/// byte-identical models and predictions for every model type — over
/// columns read in place, NULL feature values, converted columns, and
/// serial vs pooled forest fits. This is the contract ml/matrix.h promises.
TEST(SqlPropertyTest, ColumnIngestionParitySweep) {
  for (bool nulls : {false, true}) {
    SCOPED_TRACE("nulls=" + std::to_string(nulls));
    const size_t n = 700;
    Rng rng(9100 + (nulls ? 1 : 0));

    // A wide INTEGER feature and a DOUBLE one (NULL entries on the nulls
    // axis), a low-cardinality INTEGER, a sorted INTEGER, and a BIGINT
    // that is always converted.
    Schema schema;
    schema.AddField("wide", TypeId::kInt32);
    schema.AddField("low", TypeId::kInt32);
    schema.AddField("runs", TypeId::kInt32);
    schema.AddField("real", TypeId::kDouble);
    schema.AddField("big", TypeId::kInt64);
    auto table = Table::Make(std::move(schema));
    ml::Labels y(n);
    for (size_t r = 0; r < n; ++r) {
      bool wide_null = nulls && rng.NextDouble() < 0.05;
      bool real_null = nulls && rng.NextDouble() < 0.05;
      auto wide = static_cast<int32_t>(rng.NextInt(-50, 50));
      auto low = static_cast<int32_t>(rng.NextBounded(4));
      auto runs = static_cast<int32_t>(r / 25);
      double real = rng.NextGaussian();
      int64_t big = rng.NextInt(-1000000, 1000000) * 1000003;
      ASSERT_TRUE(
          table
              ->AppendRow({wide_null ? Value::MakeNull(TypeId::kInt32)
                                     : Value::Int32(wide),
                           Value::Int32(low), Value::Int32(runs),
                           real_null ? Value::MakeNull(TypeId::kDouble)
                                     : Value::Double(real),
                           Value::Int64(big)})
              .ok());
      y[r] = static_cast<int32_t>(
          ((wide_null ? 3 : wide + 50) + low * 7 + runs +
           (real > 0.5 ? 1 : 0)) %
          3);
    }
    std::vector<ColumnPtr> cols;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      cols.push_back(table->column(c));
    }
    auto frame = dataframe::DataFrame(
        std::make_shared<Table>(table->schema(), cols));
    auto xm_or = frame.ToMatrix({"wide", "low", "runs", "real", "big"});
    ASSERT_TRUE(xm_or.ok()) << xm_or.status().ToString();
    const ml::Matrix& xm = xm_or.ValueOrDie();
    auto src_or = ml::Matrix::FromColumns(cols);
    ASSERT_TRUE(src_or.ok()) << src_or.status().ToString();
    const ml::Matrix& src = src_or.ValueOrDie();
    // FromColumns reads every plain null-free INTEGER/DOUBLE column in
    // place; ToMatrix copies every column.
    size_t in_place = 0;
    for (size_t c = 0; c < cols.size(); ++c) {
      const ColumnPtr& col = cols[c];
      EXPECT_EQ(xm.view(c).i32(), nullptr);
      if (col->has_nulls()) continue;
      if (col->type() == TypeId::kInt32) {
        EXPECT_EQ(src.view(c).i32(), col->i32_data().data()) << c;
        ++in_place;
      } else if (col->type() == TypeId::kDouble) {
        EXPECT_EQ(src.view(c).f64(), col->f64_data().data()) << c;
        EXPECT_NE(xm.view(c).f64(), col->f64_data().data()) << c;
        ++in_place;
      }
    }
    EXPECT_GT(in_place, 0u);

    // Random forest: both ingestion paths give the same bytes; serial
    // and pooled fits (whose options, and so bytes, differ) predict the
    // same as the serial matrix-fit reference.
    ml::RandomForestOptions opt;
    opt.n_estimators = 5;
    opt.max_depth = 6;
    opt.seed = 11;
    opt.parallel_fit = false;
    ml::RandomForest reference(opt);
    ASSERT_TRUE(reference.Fit(xm, y).ok());
    auto ref_pred = reference.Predict(xm);
    auto ref_conf = reference.PredictConfidence(xm);
    ASSERT_TRUE(ref_pred.ok() && ref_conf.ok());
    for (bool parallel : {false, true}) {
      SCOPED_TRACE("parallel=" + std::to_string(parallel));
      opt.parallel_fit = parallel;
      ml::RandomForest rf_mat(opt);
      ml::RandomForest rf_src(opt);
      ASSERT_TRUE(rf_mat.Fit(xm, y).ok());
      ASSERT_TRUE(rf_src.Fit(src, y).ok());
      EXPECT_EQ(ml::pickle::Dumps(rf_mat), ml::pickle::Dumps(rf_src));
      auto pred = rf_src.Predict(src);
      ASSERT_TRUE(pred.ok());
      EXPECT_EQ(pred.ValueOrDie(), ref_pred.ValueOrDie());
      auto conf = rf_src.PredictConfidence(xm);
      ASSERT_TRUE(conf.ok());
      EXPECT_EQ(conf.ValueOrDie(), ref_conf.ValueOrDie());
    }

    // Logistic regression: standardization and gradient sums read the
    // same doubles in the same order either way.
    ml::LogisticRegressionOptions lr_opt;
    lr_opt.epochs = 12;
    ml::LogisticRegression lr_mat(lr_opt);
    ml::LogisticRegression lr_src(lr_opt);
    ASSERT_TRUE(lr_mat.Fit(xm, y).ok());
    ASSERT_TRUE(lr_src.Fit(src, y).ok());
    EXPECT_EQ(ml::pickle::Dumps(lr_mat), ml::pickle::Dumps(lr_src));
    auto lr_pm = lr_mat.Predict(xm);
    auto lr_ps = lr_src.Predict(xm);
    ASSERT_TRUE(lr_pm.ok() && lr_ps.ok());
    EXPECT_EQ(lr_pm.ValueOrDie(), lr_ps.ValueOrDie());
    auto lr_cm = lr_mat.PredictProba(xm, 1);
    auto lr_cs = lr_src.PredictProba(xm, 1);
    ASSERT_TRUE(lr_cm.ok() && lr_cs.ok());
    EXPECT_EQ(lr_cm.ValueOrDie(), lr_cs.ValueOrDie());

    // Tree, naive Bayes and kNN: one model fit from the Matrix, one from
    // the columns; the same bytes, labels, probabilities and confidences.
    std::vector<std::pair<ml::ModelPtr, ml::ModelPtr>> pairs;
    pairs.emplace_back(std::make_shared<ml::DecisionTree>(),
                       std::make_shared<ml::DecisionTree>());
    pairs.emplace_back(std::make_shared<ml::NaiveBayes>(),
                       std::make_shared<ml::NaiveBayes>());
    pairs.emplace_back(std::make_shared<ml::Knn>(),
                       std::make_shared<ml::Knn>());
    for (auto& [on_matrix, on_columns] : pairs) {
      SCOPED_TRACE(ml::ModelTypeToString(on_matrix->type()));
      ASSERT_TRUE(on_matrix->Fit(xm, y).ok());
      ASSERT_TRUE(on_columns->Fit(src, y).ok());
      EXPECT_EQ(ml::pickle::Dumps(*on_matrix),
                ml::pickle::Dumps(*on_columns));
      auto from_matrix = on_matrix->Predict(xm);
      auto from_columns = on_columns->Predict(src);
      ASSERT_TRUE(from_matrix.ok() && from_columns.ok());
      EXPECT_EQ(from_matrix.ValueOrDie(), from_columns.ValueOrDie());
      for (int32_t cls : on_matrix->classes()) {
        auto pm = on_matrix->PredictProba(xm, cls);
        auto pc = on_columns->PredictProba(xm, cls);
        ASSERT_TRUE(pm.ok() && pc.ok());
        EXPECT_EQ(pm.ValueOrDie(), pc.ValueOrDie());
      }
      auto cm = on_matrix->PredictConfidence(xm);
      auto cc = on_columns->PredictConfidence(xm);
      ASSERT_TRUE(cm.ok() && cc.ok());
      EXPECT_EQ(cm.ValueOrDie(), cc.ValueOrDie());
    }
  }
}

TEST(SqlPropertyTest, ConcurrentReadersAreSafe) {
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE t (x INTEGER);"
                     "INSERT INTO t VALUES (1), (2), (3), (4);")
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&db, &failures] {
      for (int i = 0; i < 200; ++i) {
        auto r = db.Query("SELECT SUM(x) FROM t WHERE x > 1");
        if (!r.ok() ||
            !(r.ValueOrDie()->GetValue(0, 0).ValueOrDie() ==
              Value::Int64(9))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mlcs
