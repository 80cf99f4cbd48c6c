#ifndef MLCS_ML_TRAINING_SOURCE_H_
#define MLCS_ML_TRAINING_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// Read access to one feature of a TrainingSource. Either a dense per-row
/// array of doubles or of int32 (fact-table feature; an INTEGER table
/// column is read in place), or a per-key lookup table addressed through
/// the source's shared key column (dimension-table feature reached through
/// a join key — the factorized representation that never materializes the
/// join). `view[r]` returns the exact double the dense path would hold at
/// row r, so trainers running through views stay bit-identical to the
/// matrix path.
class FeatureView {
 public:
  FeatureView() = default;

  double operator[](size_t r) const {
    if (factorized_) return lut_[keys_[r]];
    return dense_ != nullptr ? dense_[r] : static_cast<double>(i32_[r]);
  }
  bool factorized() const { return factorized_; }

 private:
  friend class TrainingSource;
  FeatureView(const double* dense, const int32_t* i32, const double* lut,
              const uint32_t* keys, bool factorized)
      : dense_(dense), i32_(i32), lut_(lut), keys_(keys),
        factorized_(factorized) {}

  const double* dense_ = nullptr;
  const int32_t* i32_ = nullptr;
  const double* lut_ = nullptr;
  const uint32_t* keys_ = nullptr;
  bool factorized_ = false;
};

/// The statistics-provider seam between relational data and the trainers
/// (DESIGN.md §14). A TrainingSource presents n rows × d features like a
/// Matrix, but dimension-side features are stored once per join key (a
/// K-entry LUT) plus one shared n-entry key column, instead of n gathered
/// copies — O(|fact| + |dim|) bytes instead of O(|join output|). Trainers
/// consume it through FeatureView (per-row reads, bit-identical to dense)
/// or through the per-key LUT directly (the tree splitters aggregate
/// class counts by key below the join and derive split statistics from
/// the K-sized table).
///
/// Build either by borrowing a fitted Matrix (FromMatrix — the dense
/// fallback funnels through the same trainer code), by borrowing table
/// columns (FromColumns — the in-database UDFs, which never build a
/// Matrix), or feature by feature: dense features via AddDenseFeature,
/// then SetKeys once, then factorized features via AddFactorizedFeature.
/// The tree models also predict through a source (Model::PredictSource).
class TrainingSource {
 public:
  TrainingSource() = default;
  TrainingSource(TrainingSource&&) = default;
  TrainingSource& operator=(TrainingSource&&) = default;
  TrainingSource(const TrainingSource&) = delete;
  TrainingSource& operator=(const TrainingSource&) = delete;

  /// Dense view over an existing matrix. Borrows the columns — `x` must
  /// outlive the source.
  static TrainingSource FromMatrix(const Matrix& x);
  /// Dense view over numeric table columns of equal length. A plain,
  /// null-free INTEGER or DOUBLE column is read in place (the source keeps
  /// a reference to it); any other numeric column is converted to doubles
  /// once (NULL → NaN), as Matrix::FromColumns would.
  static Result<TrainingSource> FromColumns(
      const std::vector<ColumnPtr>& columns);

  /// Borrows `column` (caller keeps it alive) as a dense feature.
  Status AddDenseFeature(const std::vector<double>* column);
  /// Adopts `column` as a dense feature.
  Status AddOwnedDenseFeature(std::vector<double> column);
  /// Sets the shared join-key column: `keys[r]` in [0, num_keys). Must be
  /// called once, before any AddFactorizedFeature.
  Status SetKeys(std::vector<uint32_t> keys, size_t num_keys);
  /// Adds a per-key feature: `lut.size() == num_keys()`. Row r's value is
  /// lut[keys()[r]].
  Status AddFactorizedFeature(std::vector<double> lut);

  size_t rows() const { return rows_; }
  size_t cols() const { return features_.size(); }
  FeatureView view(size_t f) const;
  /// view(f) for every feature, in order.
  std::vector<FeatureView> views() const;
  /// Dense copy, for models that only predict from a Matrix.
  Matrix ToMatrix() const;
  bool factorized(size_t f) const { return features_[f].is_factorized; }
  /// Per-key values of a factorized feature (undefined for dense ones).
  const std::vector<double>& lut(size_t f) const { return features_[f].lut; }
  /// Shared key column; nullptr when the source has no factorized features.
  const uint32_t* keys() const {
    return keys_.empty() ? nullptr : keys_.data();
  }
  size_t num_keys() const { return num_keys_; }
  size_t num_factorized() const;

  /// Bytes a dense n×d materialization of this feature set would hold —
  /// what the joined-matrix path touches.
  size_t MaterializedBytes() const {
    return rows_ * features_.size() * sizeof(double);
  }
  /// Bytes actually backing this source: n per dense feature, K per
  /// factorized feature, plus the shared key column.
  size_t FactorizedBytes() const;

 private:
  struct Feature {
    const std::vector<double>* dense = nullptr;  // borrowed when set
    ColumnPtr column;  // borrowed plain INTEGER or DOUBLE column when set
    std::vector<double> owned;                   // owns dense storage
    std::vector<double> lut;                     // factorized storage
    bool is_factorized = false;
  };

  Status CheckRows(size_t n);

  size_t rows_ = 0;
  bool rows_set_ = false;
  size_t num_keys_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<Feature> features_;
};

/// Bumps the mlcs.factorized.* metrics for one completed factorized (or
/// dense-fallback) fit: fit count, bytes the source held, and bytes the
/// materialized path would have held.
void CountTrainingSourceFit(const TrainingSource& source);

}  // namespace mlcs::ml

#endif  // MLCS_ML_TRAINING_SOURCE_H_
