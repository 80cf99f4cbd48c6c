/// Ablation abl-ser: model (de)serialization overhead — the paper's §5.1
/// future-work item, implemented and measured.
///
/// Per model size (forest of N trees):
///   - Pickle / Unpickle: the BLOB round-trip cost itself.
///   - PredictFreshDeserialize: what the paper's Listing 2 pays — unpickle
///     the classifier BLOB on every UDF invocation, then predict.
///   - PredictCachedModel: the proposed optimization — keep the in-memory
///     model snapshot and skip the round-trip.
///   - ModelCacheHit: what a snapshot-cache hit still pays per use — keying
///     the BLOB and the LRU lookup — to set beside PickleLoads.
/// The gap between PredictFreshDeserialize and PredictCachedModel is
/// exactly the avoidable overhead; it grows with model size and shrinks
/// with batch size.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "common/random.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "modelstore/model_cache.h"
#include "pipeline/voter_pipeline.h"
#include "sql/database.h"

namespace {

using namespace mlcs;

struct Fixture {
  ml::Matrix x;
  ml::Labels y;
  ml::Matrix probe;
};

Fixture& Data() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(9);
    constexpr size_t kRows = 4000;
    f->x = ml::Matrix(kRows, 8);
    f->y.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
      for (size_t c = 0; c < 8; ++c) {
        f->x.Set(i, c, cls * 2.0 + rng.NextGaussian());
      }
      f->y[i] = cls;
    }
    f->probe = f->x.SelectRows([&] {
      std::vector<uint32_t> idx(512);
      for (size_t i = 0; i < idx.size(); ++i) {
        idx[i] = static_cast<uint32_t>(i);
      }
      return idx;
    }());
    return f;
  }();
  return *fixture;
}

ml::RandomForest& ForestOf(int trees) {
  static std::map<int, ml::RandomForest*>* cache =
      new std::map<int, ml::RandomForest*>();
  auto it = cache->find(trees);
  if (it == cache->end()) {
    ml::RandomForestOptions opt;
    opt.n_estimators = trees;
    opt.max_depth = 12;
    auto* forest = new ml::RandomForest(opt);
    if (!forest->Fit(Data().x, Data().y).ok()) std::abort();
    it = cache->emplace(trees, forest).first;
  }
  return *it->second;
}

void BM_PickleDumps(benchmark::State& state) {
  ml::RandomForest& forest = ForestOf(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string blob = ml::pickle::Dumps(forest);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["blob_bytes"] = static_cast<double>(bytes);
}

void BM_PickleLoads(benchmark::State& state) {
  ml::RandomForest& forest = ForestOf(static_cast<int>(state.range(0)));
  std::string blob = ml::pickle::Dumps(forest);
  for (auto _ : state) {
    auto model = ml::pickle::Loads(blob);
    if (!model.ok()) state.SkipWithError("loads failed");
    benchmark::DoNotOptimize(model);
  }
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
}

/// Listing-2 semantics: deserialize per predict call.
void BM_PredictFreshDeserialize(benchmark::State& state) {
  ml::RandomForest& forest = ForestOf(static_cast<int>(state.range(0)));
  std::string blob = ml::pickle::Dumps(forest);
  for (auto _ : state) {
    auto model = ml::pickle::Loads(blob);
    if (!model.ok()) state.SkipWithError("loads failed");
    auto pred = model.ValueOrDie()->Predict(Data().probe);
    benchmark::DoNotOptimize(pred);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Data().probe.rows()));
}

/// §5.1 optimization: reuse the in-memory snapshot.
void BM_PredictCachedModel(benchmark::State& state) {
  ml::RandomForest& forest = ForestOf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto pred = forest.Predict(Data().probe);
    benchmark::DoNotOptimize(pred);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Data().probe.rows()));
}

/// A hit on an already-cached BLOB: the key over every byte plus the lookup.
void BM_ModelCacheHit(benchmark::State& state) {
  ml::RandomForest& forest = ForestOf(static_cast<int>(state.range(0)));
  std::string blob = ml::pickle::Dumps(forest);
  modelstore::ModelCache cache(4);
  if (!cache.Get(blob).ok()) state.SkipWithError("first get failed");
  for (auto _ : state) {
    auto model = cache.Get(blob);
    if (!model.ok()) state.SkipWithError("get failed");
    benchmark::DoNotOptimize(model);
  }
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}

/// End-to-end SQL comparison: Listing-2 semantics (deserialize per call)
/// vs the cached UDF (§5.1 optimization), through the full query path.
Database& SqlFixture() {
  static Database* db = [] {
    auto* d = new Database();
    pipeline::PipelineConfig config;
    config.data.num_voters = 20000;
    config.data.num_precincts = 200;
    config.data.num_columns = 16;
    if (!pipeline::LoadVoterData(d, config).ok()) std::abort();
    if (!pipeline::RegisterVoterUdfs(d).ok()) std::abort();
    auto r = d->Query(
        "CREATE TABLE m AS SELECT * FROM train_voter_rf(16, 12, 1, "
        "(SELECT precinct_id, age, urban_score, "
        "gen_label(voter_id, 60, 40, 1) AS label "
        "FROM voters JOIN precincts ON precinct_id = precinct_id))");
    if (!r.ok()) std::abort();
    return d;
  }();
  return *db;
}

void BM_SqlPredictFreshDeserialize(benchmark::State& state) {
  Database& db = SqlFixture();
  for (auto _ : state) {
    auto r = db.Query(
        "SELECT predict_voter_rf((SELECT classifier FROM m), precinct_id, "
        "age, urban_score) FROM voters");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}

void BM_SqlPredictCached(benchmark::State& state) {
  Database& db = SqlFixture();
  for (auto _ : state) {
    auto r = db.Query(
        "SELECT predict_voter_rf_cached((SELECT classifier FROM m), "
        "precinct_id, age, urban_score) FROM voters");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}

BENCHMARK(BM_PickleDumps)->Arg(1)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_PickleLoads)->Arg(1)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_PredictFreshDeserialize)->Arg(1)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_PredictCachedModel)->Arg(1)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_ModelCacheHit)->Arg(1)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_SqlPredictFreshDeserialize);
BENCHMARK(BM_SqlPredictCached);

}  // namespace

MLCS_BENCH_MAIN(ablation_model_serialization)
