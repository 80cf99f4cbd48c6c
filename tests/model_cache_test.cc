#include "modelstore/model_cache.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "ml/naive_bayes.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "obs/trace.h"
#include "pipeline/voter_pipeline.h"
#include "sql/database.h"

namespace mlcs::modelstore {
namespace {

std::string FittedBlob(uint64_t seed) {
  Rng rng(seed);
  ml::Matrix x(100, 2);
  ml::Labels y(100);
  for (size_t i = 0; i < 100; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    x.Set(i, 0, cls * 3.0 + rng.NextGaussian());
    x.Set(i, 1, cls * 3.0 + rng.NextGaussian());
    y[i] = cls;
  }
  ml::NaiveBayes nb;
  EXPECT_TRUE(nb.Fit(x, y).ok());
  return ml::pickle::Dumps(nb);
}

/// A real 8-tree forest BLOB, the shape the serving path keys.
std::string ForestBlob() {
  Rng rng(3);
  ml::Matrix x(400, 4);
  ml::Labels y(400);
  for (size_t i = 0; i < 400; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    for (size_t c = 0; c < 4; ++c) x.Set(i, c, cls + rng.NextGaussian());
    y[i] = cls;
  }
  ml::RandomForestOptions opt;
  opt.n_estimators = 8;
  ml::RandomForest forest(opt);
  EXPECT_TRUE(forest.Fit(x, y).ok());
  return ml::pickle::Dumps(forest);
}

TEST(ModelCacheTest, KeyChangesWithEveryBitFlip) {
  // Lengths 0-130 cover four-plus 32-byte stripes, the 8-byte word tail
  // and the byte tail, each at every alignment of the flipped bit.
  Rng rng(5);
  for (size_t len = 0; len <= 130; ++len) {
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    const uint64_t key = ModelCache::Key(bytes);
    for (size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
        ASSERT_NE(ModelCache::Key(bytes), key)
            << "len " << len << " offset " << i << " bit " << bit;
        bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      }
    }
    ASSERT_EQ(ModelCache::Key(bytes), key);
  }
}

TEST(ModelCacheTest, KeyChangesWithFlipsInAForestBlob) {
  std::string blob = ForestBlob();
  ASSERT_GT(blob.size(), 4096u);
  const uint64_t key = ModelCache::Key(blob);
  for (size_t i = 0; i < blob.size(); i += 61) {
    const char flip = static_cast<char>(1 << (i % 8));
    blob[i] = static_cast<char>(blob[i] ^ flip);
    ASSERT_NE(ModelCache::Key(blob), key) << "offset " << i;
    blob[i] = static_cast<char>(blob[i] ^ flip);
  }
}

TEST(ModelCacheTest, KeyDependsOnBytesAndLengthOnly) {
  const std::string blob = ForestBlob();
  const std::string copy(blob.data(), blob.size());  // separate storage
  ASSERT_NE(copy.data(), blob.data());
  EXPECT_EQ(ModelCache::Key(copy), ModelCache::Key(blob));
  EXPECT_NE(ModelCache::Key(blob + std::string(1, '\0')),
            ModelCache::Key(blob));
  EXPECT_NE(ModelCache::Key(std::string(1, '\0')), ModelCache::Key(""));
}

TEST(ModelCacheTest, EveryGetIsTraced) {
  ModelCache cache(4);
  const std::string blob = FittedBlob(1);
  obs::TraceContext ctx("gets", /*force=*/true);
  (void)cache.Get(blob).ValueOrDie();  // miss
  (void)cache.Get(blob).ValueOrDie();  // hit
  std::vector<obs::TraceSpan> spans = ctx.ConsumeSpans();
  std::vector<const obs::TraceSpan*> gets;
  const obs::TraceSpan* load = nullptr;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == "model_cache.get") gets.push_back(&s);
    if (s.name == "model_cache.load") load = &s;
  }
  ASSERT_EQ(gets.size(), 2u);
  for (const obs::TraceSpan* g : gets) EXPECT_EQ(g->bytes, blob.size());
  // Only the miss deserializes, under its own get span (spans are
  // recorded as they end, so the miss's get comes first).
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->parent_id, gets[0]->span_id);
  EXPECT_EQ(load->bytes, blob.size());
}

TEST(ModelCacheTest, HitReturnsSameObject) {
  ModelCache cache(4);
  std::string blob = FittedBlob(1);
  auto a = cache.Get(blob).ValueOrDie();
  auto b = cache.Get(blob).ValueOrDie();
  EXPECT_EQ(a.get(), b.get());  // identical snapshot, no re-deserialize
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ModelCacheTest, DifferentBlobsAreDistinct) {
  ModelCache cache(4);
  auto a = cache.Get(FittedBlob(1)).ValueOrDie();
  auto b = cache.Get(FittedBlob(2)).ValueOrDie();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ModelCacheTest, LruEviction) {
  ModelCache cache(2);
  std::string b1 = FittedBlob(1), b2 = FittedBlob(2), b3 = FittedBlob(3);
  (void)cache.Get(b1).ValueOrDie();
  (void)cache.Get(b2).ValueOrDie();
  (void)cache.Get(b1).ValueOrDie();  // b1 now most recent
  (void)cache.Get(b3).ValueOrDie();  // evicts b2
  EXPECT_EQ(cache.size(), 2u);
  uint64_t misses_before = cache.misses();
  (void)cache.Get(b1).ValueOrDie();  // still cached
  EXPECT_EQ(cache.misses(), misses_before);
  (void)cache.Get(b2).ValueOrDie();  // was evicted → miss
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(ModelCacheTest, GarbageBytesReported) {
  ModelCache cache(2);
  EXPECT_FALSE(cache.Get("not a model").ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ModelCacheTest, ClearResets) {
  ModelCache cache(4);
  (void)cache.Get(FittedBlob(1)).ValueOrDie();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ModelCacheTest, ThreadSafeGets) {
  ModelCache cache(4);
  std::string blob = FittedBlob(7);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (!cache.Get(blob).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCacheTest, CachedSqlPredictMatchesFresh) {
  // End-to-end: the cached UDF (§5.1 optimization) must agree with the
  // Listing-2 deserialize-per-call UDF.
  pipeline::PipelineConfig config;
  config.data.num_voters = 2000;
  config.data.num_precincts = 20;
  config.data.num_columns = 12;
  Database db;
  ASSERT_TRUE(pipeline::LoadVoterData(&db, config).ok());
  ASSERT_TRUE(pipeline::RegisterVoterUdfs(&db).ok());
  ASSERT_TRUE(
      db.Query("CREATE TABLE m AS SELECT * FROM train_voter_rf(4, 6, 1, "
               "(SELECT precinct_id, age, "
               "gen_label(voter_id, 60, 40, 1) AS label FROM voters JOIN "
               "precincts ON precinct_id = precinct_id))")
          .ok());
  auto fresh = db.Query(
      "SELECT predict_voter_rf((SELECT classifier FROM m), precinct_id, "
      "age) AS p FROM voters");
  auto cached = db.Query(
      "SELECT predict_voter_rf_cached((SELECT classifier FROM m), "
      "precinct_id, age) AS p FROM voters");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(fresh.ValueOrDie()->Equals(*cached.ValueOrDie()));
  // Run again: the second cached call must be a hit.
  uint64_t hits_before = ModelCache::Global().hits();
  ASSERT_TRUE(db.Query("SELECT predict_voter_rf_cached((SELECT classifier "
                       "FROM m), precinct_id, age) FROM voters")
                  .ok());
  EXPECT_GT(ModelCache::Global().hits(), hits_before);
}

}  // namespace
}  // namespace mlcs::modelstore
