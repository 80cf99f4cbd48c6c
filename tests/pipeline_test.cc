/// Integration tests for the voter-classification pipeline (the Figure 1
/// workload): every channel must be runnable and — given identical seeds —
/// produce byte-identical per-precinct aggregate predictions, since they
/// run the same logical pipeline over the same data.
#include "pipeline/voter_pipeline.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include "client/server.h"
#include "exec/sort.h"
#include "io/csv.h"
#include "io/h5b.h"
#include "io/npy.h"

namespace mlcs::pipeline {
namespace {

PipelineConfig SmallConfig() {
  PipelineConfig config;
  config.data.num_voters = 4000;
  config.data.num_precincts = 40;
  config.data.num_columns = 24;  // scaled-down width for test speed
  config.data.seed = 5;
  config.n_estimators = 4;
  config.max_depth = 8;
  config.seed = 5;
  return config;
}

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  mkdir(dir.c_str(), 0755);
  return dir;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = SmallConfig();
    voters_ = io::GenerateVoters(config_.data).ValueOrDie();
    precincts_ = io::GeneratePrecincts(config_.data).ValueOrDie();
  }

  void CheckResult(const PipelineResult& result) {
    EXPECT_GT(result.test_rows, 1000u);
    EXPECT_GT(result.total_seconds, 0);
    EXPECT_GE(result.total_seconds, result.load_wrangle_seconds);
    // The model must beat noise: predicted precinct shares track the true
    // lean far better than a coin flip would (~0.17 MAE for this data).
    EXPECT_LT(result.precinct_share_mae, 0.12);
    ASSERT_NE(result.precinct_predictions, nullptr);
    EXPECT_EQ(result.precinct_predictions->num_rows(),
              config_.data.num_precincts);
  }

  PipelineConfig config_;
  TablePtr voters_;
  TablePtr precincts_;
};

TEST_F(PipelineTest, LabelAndSplitAreDeterministic) {
  auto ids = Column::FromInt32({0, 1, 2, 3, 4});
  auto dem = Column::FromInt32({80, 80, 80, 80, 80});
  auto rep = Column::FromInt32({20, 20, 20, 20, 20});
  auto a = GenerateLabelColumn(*ids, *dem, *rep, 7);
  auto b = GenerateLabelColumn(*ids, *dem, *rep, 7);
  EXPECT_TRUE(a->Equals(*b));
  auto c = GenerateLabelColumn(*ids, *dem, *rep, 8);
  EXPECT_FALSE(a->Equals(*c));  // seed-sensitive

  auto m1 = SplitMaskColumn(*ids, 7, 0.5);
  auto m2 = SplitMaskColumn(*ids, 7, 0.5);
  EXPECT_TRUE(m1->Equals(*m2));
}

TEST_F(PipelineTest, LabelFollowsShare) {
  // All-dem precinct → all labels 1; all-rep → all 0.
  std::vector<int32_t> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  auto id_col = Column::FromInt32(std::move(ids));
  auto all_dem = GenerateLabelColumn(
      *id_col, *Column::Constant(Value::Int32(100), 1000),
      *Column::Constant(Value::Int32(0), 1000), 1);
  auto all_rep = GenerateLabelColumn(
      *id_col, *Column::Constant(Value::Int32(0), 1000),
      *Column::Constant(Value::Int32(100), 1000), 1);
  int dem_count = 0, rep_count = 0;
  for (size_t i = 0; i < 1000; ++i) {
    dem_count += all_dem->i32_data()[i];
    rep_count += all_rep->i32_data()[i];
  }
  EXPECT_EQ(dem_count, 1000);
  EXPECT_EQ(rep_count, 0);
}

TEST_F(PipelineTest, SplitFractionApproximatelyHonored) {
  std::vector<int32_t> ids(20000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  auto id_col = Column::FromInt32(std::move(ids));
  auto mask = SplitMaskColumn(*id_col, 3, 0.3);
  size_t train = 0;
  for (uint8_t m : mask->bool_data()) train += m;
  EXPECT_NEAR(static_cast<double>(train) / 20000.0, 0.3, 0.02);
}

TEST_F(PipelineTest, InDatabaseChannelWorks) {
  Database db;
  ASSERT_TRUE(LoadVoterData(&db, config_).ok());
  auto result = RunInDatabase(&db, config_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CheckResult(result.ValueOrDie());
}

TEST_F(PipelineTest, AllChannelsAgreeOnPredictions) {
  // Stage the file-based inputs.
  std::string dir = TempDirFor("pipeline_channels");
  std::string voters_csv = dir + "/voters.csv";
  std::string precincts_csv = dir + "/precincts.csv";
  ASSERT_TRUE(io::WriteCsv(*voters_, voters_csv).ok());
  ASSERT_TRUE(io::WriteCsv(*precincts_, precincts_csv).ok());
  std::string voters_npy = TempDirFor("pipeline_channels/voters_npy");
  std::string precincts_npy = TempDirFor("pipeline_channels/precincts_npy");
  ASSERT_TRUE(io::SaveTableAsNpyDir(*voters_, voters_npy).ok());
  ASSERT_TRUE(io::SaveTableAsNpyDir(*precincts_, precincts_npy).ok());
  std::string voters_h5b = dir + "/voters.h5b";
  std::string precincts_h5b = dir + "/precincts.h5b";
  ASSERT_TRUE(io::WriteH5b(*voters_, voters_h5b).ok());
  ASSERT_TRUE(io::WriteH5b(*precincts_, precincts_h5b).ok());

  // Server-backed channels share one database.
  Database server_db;
  ASSERT_TRUE(LoadVoterData(&server_db, config_).ok());
  ASSERT_TRUE(RegisterVoterUdfs(&server_db).ok());
  client::TableServer server(&server_db);
  ASSERT_TRUE(server.Start(0).ok());

  std::vector<PipelineResult> results;
  {
    Database db;
    ASSERT_TRUE(LoadVoterData(&db, config_).ok());
    auto r = RunInDatabase(&db, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  {
    auto r = RunFromCsv(voters_csv, precincts_csv, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  {
    auto r = RunFromNpyDir(voters_npy, precincts_npy, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  {
    auto r = RunFromH5b(voters_h5b, precincts_h5b, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  for (client::WireProtocol protocol :
       {client::WireProtocol::kPgText, client::WireProtocol::kMyBinary}) {
    auto r = RunFromSocket("127.0.0.1", server.port(), protocol, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  {
    Database db;
    ASSERT_TRUE(LoadVoterData(&db, config_).ok());
    auto r = RunSqliteLike(&db, config_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).ValueOrDie());
  }
  server.Stop();

  ASSERT_EQ(results.size(), 7u);
  for (const auto& result : results) CheckResult(result);

  // Equivalence: identical aggregated predictions across all channels.
  // (Sort by precinct to normalize group emission order.)
  auto normalized = [](const PipelineResult& r) {
    auto sorted = exec::SortTable(*r.precinct_predictions,
                                  {{"precinct_id", false}});
    EXPECT_TRUE(sorted.ok());
    return sorted.ValueOrDie();
  };
  auto reference = normalized(results[0]);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(reference->Equals(*normalized(results[i])))
        << results[i].method << " diverges from " << results[0].method;
  }
}

TEST_F(PipelineTest, InDatabaseWrangleSharesVoterColumns) {
  // Every voter matches exactly one precinct, so the SQL join passes the
  // voter columns through: voter_joined holds the catalog's own column
  // buffers, not per-query copies of all of them.
  Database db;
  ASSERT_TRUE(LoadVoterData(&db, config_).ok());
  ASSERT_TRUE(RunInDatabase(&db, config_).ok());
  TablePtr voters = db.catalog().GetTable("voters").ValueOrDie();
  TablePtr joined = db.catalog().GetTable("voter_joined").ValueOrDie();
  for (size_t c = 0; c < voters->num_columns(); ++c) {
    const std::string& name = voters->schema().field(c).name;
    ColumnPtr wrangled = joined->ColumnByName(name).ValueOrDie();
    EXPECT_EQ(wrangled.get(), voters->column(c).get()) << name;
  }
}

TEST_F(PipelineTest, WranglingSqlIsValid) {
  Database db;
  ASSERT_TRUE(LoadVoterData(&db, config_).ok());
  ASSERT_TRUE(RegisterVoterUdfs(&db).ok());
  auto r = db.Query(WranglingSql(config_));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto t = r.ValueOrDie();
  EXPECT_EQ(t->num_rows(), config_.data.num_voters);
  EXPECT_TRUE(t->schema().FieldIndex("label").has_value());
  EXPECT_TRUE(t->schema().FieldIndex("is_train").has_value());
}

}  // namespace
}  // namespace mlcs::pipeline
