/// Out-of-memory datasets (paper §5.1 future work, implemented): score a
/// dataset that is processed strictly chunk-at-a-time. The model is
/// trained in-memory on a sample; prediction then streams over an .h5b
/// file with only one chunk resident at a time, folding the per-precinct
/// aggregation incrementally.
///
/// Usage: ./build/examples/out_of_core_prediction [num_voters]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "io/h5b.h"
#include "io/voter_gen.h"
#include "ml/random_forest.h"
#include "pipeline/voter_pipeline.h"

int main(int argc, char** argv) {
  using namespace mlcs;
  io::VoterDataOptions data;
  data.num_voters = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  data.num_precincts = 500;
  data.num_columns = 32;

  // Stage the "larger than memory" file (here just larger than the chunk).
  auto voters = io::GenerateVoters(data);
  auto precincts = io::GeneratePrecincts(data);
  if (!voters.ok() || !precincts.ok()) return 1;
  const std::string path = "/tmp/mlcs_ooc_voters.h5b";
  io::H5bOptions h5opt;
  h5opt.chunk_rows = 16384;
  if (!io::WriteH5b(*voters.ValueOrDie(), path, h5opt).ok()) return 1;
  std::printf("staged %zu voters into %s (chunks of %zu rows)\n",
              data.num_voters, path.c_str(), h5opt.chunk_rows);

  // Train on an in-memory sample (first chunk's worth of rows).
  auto sample = voters.ValueOrDie()->SliceRows(
      0, std::min<size_t>(h5opt.chunk_rows, data.num_voters));
  auto vid = sample->ColumnByName("voter_id").ValueOrDie();
  // Labels from the true precinct shares via the shared pipeline helper.
  auto joined_dem = Column::Make(TypeId::kInt32);
  auto joined_rep = Column::Make(TypeId::kInt32);
  auto pid = sample->ColumnByName("precinct_id").ValueOrDie();
  auto pdem = precincts.ValueOrDie()->ColumnByName("dem_votes").ValueOrDie();
  auto prep = precincts.ValueOrDie()->ColumnByName("rep_votes").ValueOrDie();
  for (int32_t p : pid->i32_data()) {
    joined_dem->AppendInt32(pdem->i32_data()[p]);
    joined_rep->AppendInt32(prep->i32_data()[p]);
  }
  ColumnPtr labels =
      pipeline::GenerateLabelColumn(*vid, *joined_dem, *joined_rep, 42);

  // Every column but voter_id is a feature, read in place.
  auto features_of = [](const Table& table) {
    std::vector<ColumnPtr> cols;
    for (size_t c = 1; c < table.num_columns(); ++c) {
      cols.push_back(table.column(c));
    }
    return ml::Matrix::FromColumns(cols).ValueOrDie();
  };
  ml::Matrix x = features_of(*sample);
  ml::RandomForestOptions opt;
  opt.n_estimators = 8;
  opt.max_depth = 10;
  ml::RandomForest forest(opt);
  if (!forest.Fit(x, labels->i32_data()).ok()) return 1;
  std::printf("trained forest on a %zu-row sample\n", x.rows());

  // Stream the full file chunk-at-a-time and fold the aggregate.
  auto reader_or = io::H5bChunkReader::Open(path);
  if (!reader_or.ok()) return 1;
  auto reader = std::move(reader_or).ValueOrDie();
  std::map<int32_t, std::pair<int64_t, int64_t>> per_precinct;  // dem, total
  size_t chunks = 0;
  while (reader.HasNext()) {
    auto chunk_or = reader.NextChunk();
    if (!chunk_or.ok()) {
      std::fprintf(stderr, "chunk read failed: %s\n",
                   chunk_or.status().ToString().c_str());
      return 1;
    }
    auto chunk = chunk_or.ValueOrDie();
    ml::Matrix cx = features_of(*chunk);
    auto pred = forest.Predict(cx).ValueOrDie();
    const auto& cpid =
        chunk->ColumnByName("precinct_id").ValueOrDie()->i32_data();
    for (size_t i = 0; i < pred.size(); ++i) {
      auto& [dem, total] = per_precinct[cpid[i]];
      dem += pred[i];
      ++total;
    }
    ++chunks;
  }
  std::printf("streamed %llu rows in %zu chunks\n",
              static_cast<unsigned long long>(reader.rows_read()), chunks);

  // Accuracy of the streamed aggregate vs the generator's true lean.
  double mae = 0;
  for (const auto& [precinct, counts] : per_precinct) {
    double share = static_cast<double>(counts.first) /
                   static_cast<double>(counts.second);
    mae += std::fabs(share - io::PrecinctDemShare(
                                 data.seed, static_cast<size_t>(precinct),
                                 data.num_precincts));
  }
  mae /= static_cast<double>(per_precinct.size());
  std::printf("per-precinct dem-share MAE (streamed): %.4f\n", mae);
  std::printf("\nout_of_core_prediction finished OK\n");
  return 0;
}
