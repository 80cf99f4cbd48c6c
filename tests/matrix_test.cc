#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "dataframe/dataframe.h"
#include "ml/logistic_regression.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"

namespace mlcs::ml {
namespace {

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  m.Set(1, 0, 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(MatrixTest, FromColumnsConvertsNumericTypes) {
  std::vector<ColumnPtr> cols = {Column::FromInt32({1, 2, 3}),
                                 Column::FromDouble({0.5, 1.5, 2.5}),
                                 Column::FromBool({1, 0, 1})};
  Matrix m = Matrix::FromColumns(cols).ValueOrDie();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 1.5);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
}

TEST(MatrixTest, FromColumnsRejectsStringsAndRaggedColumns) {
  EXPECT_FALSE(Matrix::FromColumns({Column::FromStrings({"a"})}).ok());
  EXPECT_FALSE(Matrix::FromColumns(
                   {Column::FromInt32({1, 2}), Column::FromInt32({1})})
                   .ok());
  EXPECT_FALSE(Matrix::CopyColumns(
                   {Column::FromInt32({1, 2}), Column::FromInt32({1})})
                   .ok());
}

TEST(MatrixTest, NullsBecomeNaN) {
  Column col(TypeId::kInt32);
  col.AppendInt32(1);
  col.AppendNull();
  Matrix m = Matrix::FromColumns({std::make_shared<Column>(col)})
                 .ValueOrDie();
  EXPECT_TRUE(std::isnan(m.At(1, 0)));
}

/// FromColumns reads a plain null-free INTEGER or DOUBLE column in place;
/// DataFrame::ToMatrix copies it. Either matrix, and a copy of either,
/// stays readable after the table is dropped.
TEST(MatrixTest, FromColumnsReadsInPlaceAndToMatrixCopies) {
  Schema schema;
  schema.AddField("i", TypeId::kInt32);
  schema.AddField("d", TypeId::kDouble);
  auto table = std::make_shared<Table>(
      std::move(schema),
      std::vector<ColumnPtr>{Column::FromInt32({4, -1, 7}),
                             Column::FromDouble({0.5, -2.0, 1e300})});
  const int32_t* ints = table->column(0)->i32_data().data();
  const double* doubles = table->column(1)->f64_data().data();

  Matrix in_place =
      Matrix::FromColumns({table->column(0), table->column(1)}).ValueOrDie();
  EXPECT_EQ(in_place.view(0).i32(), ints);
  EXPECT_EQ(in_place.view(1).f64(), doubles);

  Matrix copy = dataframe::DataFrame(table).ToMatrix({"i", "d"}).ValueOrDie();
  EXPECT_EQ(copy.view(0).i32(), nullptr);
  EXPECT_NE(copy.view(0).f64(), nullptr);
  EXPECT_NE(copy.view(1).f64(), doubles);

  // Only owned features are writable.
  EXPECT_DEATH(in_place.Set(0, 0, 1.0), "");
  copy.Set(0, 0, 1.0);
  EXPECT_EQ(copy.At(0, 0), 1.0);
  EXPECT_EQ(in_place.At(0, 0), 4.0);

  Matrix copy_of_in_place = in_place;
  table.reset();
  for (const Matrix* m : {&in_place, &copy, &copy_of_in_place}) {
    EXPECT_EQ(m->At(2, 0), 7.0);
    EXPECT_EQ(m->At(1, 1), -2.0);
    EXPECT_EQ(m->At(2, 1), 1e300);
  }
}

/// FromColumns' views give exactly the doubles of an owned copy, for
/// columns read in place and converted ones alike.
TEST(MatrixTest, FromColumnsReadsLikeACopy) {
  ColumnPtr ints = Column::FromInt32({4, -1, 7});
  ColumnPtr doubles = Column::FromDouble({0.5, -2.0, 1e300});
  ColumnPtr with_null = Column::FromInt32({1, 2, 3});
  with_null->SetNull(1);
  std::vector<ColumnPtr> cols{ints, doubles, with_null};
  Matrix in_place = Matrix::FromColumns(cols).ValueOrDie();
  Matrix copy = Matrix::CopyColumns(cols).ValueOrDie();
  ASSERT_EQ(in_place.rows(), 3u);
  ASSERT_EQ(in_place.cols(), 3u);
  EXPECT_EQ(in_place.view(2).i32(), nullptr);  // NULLs: converted
  for (size_t c = 0; c < 3; ++c) {
    FeatureView view = in_place.view(c);
    for (size_t r = 0; r < 3; ++r) {
      if (std::isnan(copy.At(r, c))) {
        EXPECT_TRUE(std::isnan(view[r])) << r << "," << c;
      } else {
        EXPECT_EQ(view[r], copy.At(r, c)) << r << "," << c;
      }
    }
  }
}

/// Six INTEGER feature columns of small domains, as the voter table holds.
std::vector<ColumnPtr> IntColumns(size_t rows, Labels* y) {
  Rng rng(9);
  std::vector<ColumnPtr> cols;
  for (size_t c = 0; c < 6; ++c) {
    std::vector<int32_t> v(rows);
    for (int32_t& x : v) x = static_cast<int32_t>(rng.NextBounded(3 + 7 * c));
    cols.push_back(Column::FromInt32(std::move(v)));
  }
  y->resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    (*y)[r] = cols[1]->i32_data()[r] + cols[4]->i32_data()[r] +
                      static_cast<int32_t>(rng.NextBounded(6)) >
              12;
  }
  return cols;
}

TEST(MatrixTest, ModelsOnColumnsInPlaceMatchACopy) {
  Labels y;
  std::vector<ColumnPtr> cols = IntColumns(4000, &y);
  Matrix copy = Matrix::CopyColumns(cols).ValueOrDie();
  Matrix in_place = Matrix::FromColumns(cols).ValueOrDie();
  ASSERT_NE(in_place.view(0).i32(), nullptr);
  RandomForestOptions opt;
  opt.n_estimators = 4;
  opt.max_depth = 6;
  RandomForest on_copy(opt);
  RandomForest on_columns(opt);
  ASSERT_TRUE(on_copy.Fit(copy, y).ok());
  ASSERT_TRUE(on_columns.Fit(in_place, y).ok());
  EXPECT_EQ(pickle::Dumps(on_copy), pickle::Dumps(on_columns));
  EXPECT_EQ(on_columns.Predict(in_place).ValueOrDie(),
            on_copy.Predict(copy).ValueOrDie());

  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(copy, y).ok());
  EXPECT_EQ(lr.Predict(in_place).ValueOrDie(), lr.Predict(copy).ValueOrDie());

  std::vector<ColumnPtr> fewer(cols.begin(), cols.end() - 1);
  Matrix narrow = Matrix::FromColumns(fewer).ValueOrDie();
  EXPECT_FALSE(on_columns.Predict(narrow).ok());
  EXPECT_FALSE(lr.Predict(narrow).ok());
}

TEST(MatrixTest, SelectRowsCopiesIntoOwnedFeatures) {
  Matrix m(4, 1);
  for (size_t r = 0; r < 4; ++r) m.Set(r, 0, static_cast<double>(r));
  Matrix sel = m.SelectRows({3, 1});
  EXPECT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sel.At(1, 0), 1.0);

  Matrix in_place =
      Matrix::FromColumns({Column::FromInt32({5, 6, 7})}).ValueOrDie();
  Matrix picked = in_place.SelectRows({2, 0});
  EXPECT_EQ(picked.view(0).i32(), nullptr);
  picked.Set(0, 0, 1.5);
  EXPECT_DOUBLE_EQ(picked.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(picked.At(1, 0), 5.0);
}

}  // namespace
}  // namespace mlcs::ml
