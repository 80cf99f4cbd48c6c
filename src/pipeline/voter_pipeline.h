#ifndef MLCS_PIPELINE_VOTER_PIPELINE_H_
#define MLCS_PIPELINE_VOTER_PIPELINE_H_

#include <string>
#include <vector>

#include "client/protocol.h"
#include "common/result.h"
#include "io/voter_gen.h"
#include "sql/database.h"

namespace mlcs::pipeline {

/// Voter-classification pipeline parameters (paper §4). Every channel runs
/// the *same* logical pipeline: join voters with precincts, generate a
/// "true" label per voter by weighted random from the precinct's vote
/// share, split train/test, fit a random forest, predict the test set, and
/// aggregate predictions per precinct.
struct PipelineConfig {
  io::VoterDataOptions data;
  int n_estimators = 8;
  int max_depth = 10;
  double train_fraction = 0.5;
  uint64_t seed = 42;
};

/// One Figure-1 bar: total time plus the load/initial-wrangling share
/// (the gray sub-bar), and a quality check (mean absolute error between
/// aggregated predicted and actual precinct dem-share).
struct PipelineResult {
  std::string method;
  double load_wrangle_seconds = 0;
  double train_seconds = 0;
  double predict_seconds = 0;
  double total_seconds = 0;
  double precinct_share_mae = 0;
  size_t test_rows = 0;
  /// Per-precinct aggregate predictions (precinct_id, predicted dem count,
  /// test rows) — identical across channels given identical config; the
  /// cross-channel equivalence test keys on this.
  TablePtr precinct_predictions;
};

/// -- Shared deterministic building blocks (identical on every channel) --

/// Weighted-random "true" class label per voter: P(dem) = precinct dem
/// share; deterministic in (voter_id, seed).
[[nodiscard]] ColumnPtr GenerateLabelColumn(const Column& voter_id,
                                            const Column& dem,
                                            const Column& rep, uint64_t seed);

/// Train/test split mask, deterministic in (voter_id, seed).
[[nodiscard]] ColumnPtr SplitMaskColumn(const Column& voter_id, uint64_t seed,
                                        double train_fraction);

/// Registers the pipeline's native vectorized UDFs on a database:
///   gen_label(voter_id, dem, rep, seed)              → INTEGER
///   split_mask(voter_id, seed, fraction_permille)    → BOOLEAN
///   train_voter_rf(n_estimators, max_depth, seed, f..., labels)
///       → TABLE(classifier BLOB, n_estimators INTEGER)
///   predict_voter_rf(classifier, f...)               → INTEGER
Status RegisterVoterUdfs(Database* db);

/// Loads the synthetic dataset into `db` as `voters` + `precincts` (the
/// in-database channel's starting state: data already lives in the RDBMS).
Status LoadVoterData(Database* db, const PipelineConfig& config);

/// -- Figure-1 channels ---------------------------------------------------

/// MonetDB/Python analogue: everything in the database via vectorized
/// UDFs; data never leaves the engine.
Result<PipelineResult> RunInDatabase(Database* db,
                                     const PipelineConfig& config);

/// External pipeline loading from CSV text files.
Result<PipelineResult> RunFromCsv(const std::string& voters_csv,
                                  const std::string& precincts_csv,
                                  const PipelineConfig& config);

/// External pipeline loading from per-column NumPy .npy files.
Result<PipelineResult> RunFromNpyDir(const std::string& voters_dir,
                                     const std::string& precincts_dir,
                                     const PipelineConfig& config);

/// External pipeline loading from the HDF5-like .h5b chunked files.
Result<PipelineResult> RunFromH5b(const std::string& voters_file,
                                  const std::string& precincts_file,
                                  const PipelineConfig& config);

/// External pipeline pulling preprocessed data from a database server over
/// a socket (PostgreSQL-style text protocol or MySQL-style binary).
Result<PipelineResult> RunFromSocket(const std::string& host, uint16_t port,
                                     client::WireProtocol protocol,
                                     const PipelineConfig& config);

/// External pipeline using an in-process row-at-a-time cursor (SQLite
/// analogue): no socket, but per-cell boxing.
Result<PipelineResult> RunSqliteLike(Database* db,
                                     const PipelineConfig& config);

/// The wrangling SQL the server-backed channels execute remotely (exposed
/// for tests): join + labels + split mask, projecting features/label/mask.
std::string WranglingSql(const PipelineConfig& config);

}  // namespace mlcs::pipeline

#endif  // MLCS_PIPELINE_VOTER_PIPELINE_H_
