// Concurrency stress scenarios for the shared-memory hot paths: ThreadPool,
// the parallel UDF driver, and the global model cache. These run in every
// build, but their real job is the TSan pass (`scripts/check.sh --full` /
// -DMLCS_SANITIZE=thread), where they drive the cross-thread interleavings
// a data race would surface in.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bufpool/buffer_pool.h"
#include "bufpool/zone_map.h"
#include "client/inference_client.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "ml/matrix.h"
#include "ml/naive_bayes.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_server.h"
#include "sql/database.h"
#include "udf/parallel.h"
#include "udf/udf.h"

namespace mlcs {
namespace {

// Small iteration counts on purpose: TSan is ~10x slower and the value is
// in the interleavings, not the volume.
constexpr int kThreads = 4;
constexpr int kIters = 32;

TEST(SanitizerStressTest, MutexDetectorBookkeepingChurn) {
  // The deadlock detector's own state — per-thread held stacks, the shared
  // lock-order graph, and node erasure in ~Mutex — exercised under real
  // contention with detection forced on (sanitizer builds default to on,
  // but Release TSan-less runs of this suite should cover it too). Threads
  // interleave nested consistent-order acquisitions, try-lock back-offs,
  // CondVar waits (which unhook and re-hook the held set), and mutex
  // create/destroy cycles that shrink the graph while others grow it.
  const bool detect_before = Mutex::DeadlockDetectionEnabled();
  Mutex::SetDeadlockDetectionForTesting(true);
  Mutex::ResetDeadlockGraphForTesting();
  {
    Mutex outer{"stress.outer"};
    Mutex inner{"stress.inner"};
    CondVar cv;
    int generation = 0;  // guarded by outer
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          {
            MutexLock lo(&outer);
            MutexLock li(&inner);
            ++generation;
          }
          if (t % 2 == 0) {
            // Reverse order only via try-lock: must not record an edge.
            MutexLock li(&inner);
            if (outer.TryLock()) outer.Unlock();
          } else {
            // Short-lived mutexes join and leave the order graph.
            Mutex scratch{"stress.scratch"};
            MutexLock lo(&outer);
            MutexLock ls(&scratch);
          }
          {
            MutexLock lo(&outer);
            const int target = generation;
            cv.NotifyAll();
            while (generation == target && generation % 2 != 0) {
              if (!cv.WaitUntil(lo, std::chrono::steady_clock::now() +
                                        std::chrono::milliseconds(1))) {
                break;
              }
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    MutexLock lo(&outer);
    EXPECT_EQ(generation, kThreads * kIters);
  }
  Mutex::SetDeadlockDetectionForTesting(detect_before);
}

TEST(SanitizerStressTest, ThreadPoolConcurrentSubmitters) {
  // Many external threads hammering Submit() on one pool races the queue,
  // the condition variable, and shutdown.
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mu;
  std::vector<std::future<void>> futures;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto fut = pool.Submit([&executed] { executed.fetch_add(1); });
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(fut));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& f : futures) f.wait();
  EXPECT_EQ(executed.load(), kThreads * kIters);
}

TEST(SanitizerStressTest, ThreadPoolConcurrentParallelItems) {
  // Overlapping ParallelItems and ParallelMorsels calls from distinct
  // threads share one pool; each call must still cover its own range
  // exactly once.
  ThreadPool pool(3);
  MorselPolicy policy;
  policy.pool = &pool;
  policy.morsel_rows = 16;
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        std::vector<std::atomic<int>> hits(512);
        Status items = ParallelItems(policy, hits.size(), [&hits](size_t j) {
          hits[j].fetch_add(1);
          return Status::OK();
        });
        Status morsels = ParallelMorsels(
            policy, hits.size(), [&hits](size_t, size_t begin, size_t end) {
              for (size_t j = begin; j < end; ++j) hits[j].fetch_add(1);
              return Status::OK();
            });
        if (!items.ok() || !morsels.ok()) failures.fetch_add(1);
        for (auto& h : hits) {
          if (h.load() != 2) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SanitizerStressTest, ThreadPoolShutdownWhileSubmitting) {
  // Destroying a pool while another thread races Submit() exercises the
  // shutdown handshake. The submitter stops at the first failed handoff.
  for (int round = 0; round < 8; ++round) {
    std::atomic<bool> stop{false};
    auto pool = std::make_unique<ThreadPool>(2);
    std::thread submitter([&] {
      while (!stop.load()) {
        pool->Submit([] {}).wait();
      }
    });
    for (int i = 0; i < kIters; ++i) {
      pool->Submit([] {}).wait();
    }
    stop.store(true);
    submitter.join();
    pool.reset();  // full drain + join with no task in flight
  }
}

TEST(SanitizerStressTest, ParallelUdfConcurrentCallers) {
  // Multiple threads run the chunked UDF driver against one shared
  // registry; the UDF itself touches shared state through an atomic only.
  udf::UdfRegistry registry;
  udf::ScalarUdfEntry entry;
  entry.name = "plus_one";
  std::atomic<int64_t> total_rows_seen{0};
  entry.fn = [&total_rows_seen](const std::vector<ColumnPtr>& args,
                                size_t num_rows) -> Result<ColumnPtr> {
    total_rows_seen.fetch_add(static_cast<int64_t>(num_rows));
    return exec::BinaryKernel(exec::BinOpKind::kAdd, *args[0],
                              *Column::Constant(Value::Int64(1), 1));
  };
  ASSERT_TRUE(registry.RegisterScalar(std::move(entry)).ok());

  constexpr size_t kRows = 4096;
  std::vector<int64_t> data(kRows);
  for (size_t i = 0; i < kRows; ++i) data[i] = static_cast<int64_t>(i);
  ColumnPtr input = Column::FromInt64(std::move(data));

  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      udf::ParallelOptions opt;
      opt.num_chunks = 4;
      opt.min_rows_per_chunk = 1;
      for (int i = 0; i < 8; ++i) {
        auto r = udf::ParallelCallScalar(registry, "plus_one", {input},
                                         kRows, opt);
        if (!r.ok() || r.ValueOrDie()->size() != kRows) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total_rows_seen.load(),
            static_cast<int64_t>(kThreads * 8 * kRows));
}

TEST(SanitizerStressTest, ParallelUdfConcurrentRegistrationAndCalls) {
  // Registry mutation (RegisterScalar / Drop) racing CallScalar from the
  // parallel driver — the registry's internal lock is the system under test.
  udf::UdfRegistry registry;
  auto make_entry = [](const std::string& name) {
    udf::ScalarUdfEntry e;
    e.name = name;
    e.fn = [](const std::vector<ColumnPtr>& args,
              size_t) -> Result<ColumnPtr> { return args[0]; };
    return e;
  };
  ASSERT_TRUE(registry.RegisterScalar(make_entry("stable")).ok());

  ColumnPtr input = Column::FromInt64({1, 2, 3, 4, 5, 6, 7, 8});
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int i = 0;
    while (!stop.load()) {
      std::string name = "temp_" + std::to_string(i++ % 4);
      (void)registry.RegisterScalar(make_entry(name), /*or_replace=*/true);
      (void)registry.Drop(name, /*if_exists=*/true);
    }
  });
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      udf::ParallelOptions opt;
      opt.num_chunks = 2;
      opt.min_rows_per_chunk = 1;
      for (int i = 0; i < kIters; ++i) {
        auto r =
            udf::ParallelCallScalar(registry, "stable", {input}, 8, opt);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  stop.store(true);
  mutator.join();
  EXPECT_EQ(failures.load(), 0);
}

std::string FittedBlob(uint64_t seed) {
  Rng rng(seed);
  ml::Matrix x(64, 2);
  ml::Labels y(64);
  for (size_t i = 0; i < 64; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    x.Set(i, 0, cls * 3.0 + rng.NextGaussian());
    x.Set(i, 1, cls * 3.0 + rng.NextGaussian());
    y[i] = cls;
  }
  ml::NaiveBayes nb;
  EXPECT_TRUE(nb.Fit(x, y).ok());
  return ml::pickle::Dumps(nb);
}

TEST(SanitizerStressTest, ModelCacheEvictionChurn) {
  // More distinct blobs than capacity, hit from many threads: every Get
  // races insertion, LRU splice, and eviction of entries other threads
  // still hold shared_ptrs to. Interleaved Clear() calls stress the same
  // paths with the map emptied underneath.
  modelstore::ModelCache cache(2);
  std::vector<std::string> blobs;
  for (uint64_t s = 1; s <= 5; ++s) blobs.push_back(FittedBlob(s));

  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string& blob = blobs[(t + i) % blobs.size()];
        auto r = cache.Get(blob);
        if (!r.ok() || r.ValueOrDie() == nullptr) failures.fetch_add(1);
        if (i % 16 == 15) cache.Clear();
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads * kIters));
}

TEST(SanitizerStressTest, InferenceServerChurn) {
  // The serving path end to end under every concurrent hazard at once:
  // multiple clients hammering the micro-batcher (alternating wire
  // layouts), a mutator retraining and re-saving the served model (so the
  // content-addressed cache keeps missing) plus extra models to force LRU
  // eviction, and finally Stop() while requests are still in flight.
  Database db;
  modelstore::ModelStore store(&db);
  ASSERT_TRUE(store.Init().ok());
  {
    auto seeded = ml::pickle::Loads(FittedBlob(1)).ValueOrDie();
    ASSERT_TRUE(store.SaveModel("m", *seeded, 0.9, 64).ok());
  }
  modelstore::ModelCache cache(2);  // tiny: eviction churn guaranteed
  serve::InferenceServerOptions opts;
  opts.max_queue_requests = 8;  // small: overload paths exercised too
  opts.model_cache = &cache;
  serve::InferenceServer server(&db, &store, opts);
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();

  std::atomic<bool> stop_mutator{false};
  std::atomic<int> unexpected{0};

  std::thread mutator([&] {
    uint64_t seed = 2;
    while (!stop_mutator.load()) {
      // Retrain/replace the served model and park other models to churn
      // both the store's table and the cache's LRU.
      auto retrained = ml::pickle::Loads(FittedBlob(seed++));
      if (!retrained.ok()) {
        unexpected.fetch_add(1);
        continue;
      }
      if (!store.SaveModel("m", *retrained.ValueOrDie(), 0.9, 64).ok()) {
        unexpected.fetch_add(1);
      }
      auto extra = ml::pickle::Loads(FittedBlob(seed + 1000));
      if (extra.ok()) {
        Status saved =
            store.SaveModel("spare_" + std::to_string(seed % 3),
                            *extra.ValueOrDie(), 0.5, 64);
        if (!saved.ok()) unexpected.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      client::InferenceClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        unexpected.fetch_add(1);
        return;
      }
      Rng rng(1000 + c);
      ml::Matrix x(4, 2);
      for (size_t r = 0; r < 4; ++r) {
        x.Set(r, 0, rng.NextGaussian());
        x.Set(r, 1, rng.NextGaussian());
      }
      for (int i = 0; i < kIters; ++i) {
        client::InferenceCallOptions call;
        call.layout = (i % 2 == 0) ? serve::Layout::kColumnar
                                   : serve::Layout::kRowMajor;
        auto response = client.Call("m", x, call);
        if (!response.ok()) {
          // Acceptable only once the server is being stopped under us.
          break;
        }
        switch (response.ValueOrDie().code) {
          case serve::ServeCode::kOk:
            if (response.ValueOrDie().labels.size() != 4u) {
              unexpected.fetch_add(1);
            }
            break;
          case serve::ServeCode::kOverloaded:
          case serve::ServeCode::kShuttingDown:
            break;  // legitimate degradation outcomes
          default:
            unexpected.fetch_add(1);
        }
      }
    });
  }

  // Stop the server while clients are mid-flight — the drain must answer
  // or cleanly refuse everything without a race or a leak.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  for (auto& t : clients) t.join();
  stop_mutator.store(true);
  mutator.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_FALSE(server.running());
}

TEST(SanitizerStressTest, MorselOperatorsShareServingPool) {
  // PR 3's hazard surface: the relational operators fan morsels out over
  // the same ThreadPool the inference server executes its batches on.
  // Several threads run filter + group-by + join + sort queries while
  // clients hammer predict, all multiplexed onto three shared workers.
  // Two properties under test: no data race anywhere in the morsel
  // scheduler / operator partials (TSan), and determinism — every query
  // result under contention must equal the reference computed before the
  // stress started. The pool is created explicitly (CI has one core, so
  // Global() would give a single worker and hide the interleavings).
  ThreadPool pool(3);

  Database db;
  {
    std::string script =
        "CREATE TABLE facts (k INTEGER, v DOUBLE);"
        "CREATE TABLE dim (k INTEGER, name VARCHAR);";
    ASSERT_TRUE(db.Run(script).ok());
    Rng rng(7);
    std::string insert = "INSERT INTO facts VALUES ";
    for (int i = 0; i < 2048; ++i) {
      if (i > 0) insert += ",";
      insert += "(";
      insert += std::to_string(rng.NextBounded(16));
      insert += ",";
      insert += std::to_string(rng.NextDouble());
      insert += ")";
    }
    ASSERT_TRUE(db.Query(insert).ok());
    std::string dims = "INSERT INTO dim VALUES ";
    for (int k = 0; k < 16; ++k) {
      if (k > 0) dims += ",";
      dims += "(";
      dims += std::to_string(k);
      dims += ",'g";
      dims += std::to_string(k);
      dims += "')";
    }
    ASSERT_TRUE(db.Query(dims).ok());
  }
  // 64-row morsels: 32 morsels for element-wise work, 2 for the
  // aggregate's 16x-widened grain — everything actually fans out.
  MorselPolicy policy;
  policy.pool = &pool;
  policy.morsel_rows = 64;
  db.set_exec_policy(policy);

  const std::string kQuery =
      "SELECT d.name, COUNT(*) AS n, SUM(f.v) AS total FROM facts f "
      "JOIN dim d ON f.k = d.k WHERE f.v > 0.25 GROUP BY d.name "
      "ORDER BY total DESC";
  TablePtr reference = db.Query(kQuery).ValueOrDie();
  ASSERT_GT(reference->num_rows(), 0u);

  modelstore::ModelStore store(&db);
  ASSERT_TRUE(store.Init().ok());
  // Two models, alternated by the predictors, so batches split into
  // groups and the pool runs all but the last of them.
  const std::string kModels[2] = {"m", "m2"};
  for (uint64_t v = 0; v < 2; ++v) {
    auto seeded = ml::pickle::Loads(FittedBlob(1 + v)).ValueOrDie();
    ASSERT_TRUE(store.SaveModel(kModels[v], *seeded, 0.9, 64).ok());
  }
  serve::InferenceServerOptions opts;
  opts.pool = &pool;  // the whole point: serving shares the query pool
  serve::InferenceServer server(&db, &store, opts);
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < kThreads; ++t) {
    queriers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto r = db.Query(kQuery);
        if (!r.ok() || !r.ValueOrDie()->Equals(*reference)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> predictors;
  for (int c = 0; c < 2; ++c) {
    predictors.emplace_back([&, c] {
      client::InferenceClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(500 + c);
      ml::Matrix x(4, 2);
      for (size_t r = 0; r < 4; ++r) {
        x.Set(r, 0, rng.NextGaussian());
        x.Set(r, 1, rng.NextGaussian());
      }
      for (int i = 0; i < kIters; ++i) {
        auto response = client.Call(kModels[(c + i) % 2], x);
        if (!response.ok() ||
            response.ValueOrDie().code != serve::ServeCode::kOk ||
            response.ValueOrDie().labels.size() != 4u) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : queriers) t.join();
  for (auto& t : predictors) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
}

/// Prepared-plan cache under concurrent DDL churn: readers replay one
/// cached SELECT over a stable table while a DDL thread drops/recreates a
/// different table, bumping the catalog schema version. Every bump
TEST(SanitizerStressTest, TracingConcurrentQueriesAndServing) {
  // The observability layer's hazard surface: tracing enabled while
  // morsel-parallel queries and serving batches run concurrently. Trace
  // contexts install per thread, pool workers attach and record spans
  // from inside operators and predict tasks, and every context flushes
  // into the shared sink — all of it must stay TSan-clean with zero lost
  // answers.
  obs::SetTracingEnabled(true);
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE big (x INTEGER, g INTEGER);").ok());
  std::string values = "INSERT INTO big VALUES (0, 0)";
  for (int i = 1; i < 512; ++i) {
    values += ", (" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  ASSERT_TRUE(db.Query(values).ok());

  modelstore::ModelStore store(&db);
  ASSERT_TRUE(store.Init().ok());
  {
    auto seeded = ml::pickle::Loads(FittedBlob(1)).ValueOrDie();
    ASSERT_TRUE(store.SaveModel("m", *seeded, 0.9, 64).ok());
  }
  serve::InferenceServer server(&db, &store);
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();

  std::atomic<int> unexpected{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&db, &unexpected] {
      for (int i = 0; i < kIters; ++i) {
        auto r = db.Query(
            "SELECT g, COUNT(*), SUM(x) FROM big WHERE x > 10 GROUP BY g");
        if (!r.ok()) unexpected.fetch_add(1);
      }
    });
  }
  workers.emplace_back([&unexpected, port] {
    client::InferenceClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      unexpected.fetch_add(1);
      return;
    }
    Rng rng(7);
    ml::Matrix x(4, 2);
    for (size_t r = 0; r < 4; ++r) {
      x.Set(r, 0, rng.NextGaussian());
      x.Set(r, 1, rng.NextGaussian());
    }
    for (int i = 0; i < kIters; ++i) {
      auto response = client.Call("m", x, {});
      if (!response.ok() ||
          response.ValueOrDie().code != serve::ServeCode::kOk) {
        unexpected.fetch_add(1);
      }
    }
  });
  for (auto& t : workers) t.join();
  server.Stop();
  obs::SetTracingEnabled(false);
  EXPECT_EQ(unexpected.load(), 0);
  // Every traced query and batch flushed into the recorder; spans recorded
  // from pool workers (operators, predicts) must be well-formed.
  std::vector<obs::TraceSpan> spans = obs::FlightRecorder::Global().Query(0);
  EXPECT_FALSE(spans.empty());
  for (const obs::TraceSpan& s : spans) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_GE(s.span_id, 1u);
  }
}

/// invalidates the readers' cached plans mid-flight, so this hammers the
/// cache mutex, the version atomic, and concurrent re-planning of the
/// same SQL text. Readers must never see a wrong answer or an error.
TEST(SanitizerStressTest, PlanCacheConcurrentDdlChurn) {
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE fixed (x INTEGER);"
                     "INSERT INTO fixed VALUES (1), (2), (3);"
                     "CREATE TABLE churn (y INTEGER);")
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c) {
    readers.emplace_back([&db, &stop, &failures] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = db.Query("SELECT SUM(x) FROM fixed WHERE x > 0");
        if (!r.ok() ||
            !(r.ValueOrDie()->GetValue(0, 0).ValueOrDie() ==
              Value::Int64(6))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // The churn table is never read: concurrent DDL+DML on one table is the
  // caller's responsibility (see sql/database.h); what must stay safe is
  // everyone else's cached plans while the schema version moves.
  std::thread ddl([&db, &stop] {
    for (int i = 0; i < 150; ++i) {
      if (!db.Query("DROP TABLE churn").ok() ||
          !db.Query("CREATE TABLE churn (y INTEGER, z INTEGER)").ok() ||
          !db.Query("DROP TABLE churn").ok() ||
          !db.Query("CREATE TABLE churn (y INTEGER)").ok()) {
        break;
      }
    }
    stop.store(true, std::memory_order_release);
  });
  ddl.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Deterministic invalidation check (the threads above may not interleave
  // on a 1-core CI quota): warm a plan, bump the schema version, replay.
  obs::Counter* stale =
      obs::MetricsRegistry::Global().GetCounter("mlcs.plan_cache.stale");
  uint64_t stale_before = stale->Value();
  ASSERT_TRUE(db.Query("SELECT SUM(x) FROM fixed WHERE x > 0").ok());
  ASSERT_TRUE(db.Query("CREATE TABLE bump_marker (a INTEGER)").ok());
  ASSERT_TRUE(db.Query("SELECT SUM(x) FROM fixed WHERE x > 0").ok());
  EXPECT_GE(stale->Value(), stale_before + 1);
}

/// The buffer pool's hazard surface: many threads scanning one
/// stored-backed table through the shared global pool with a budget small
/// enough that every scan races insertion, LRU splice, and eviction of
/// chunks other scans still hold pinned — while one thread flips the
/// zone-map kill switch (an atomic read on every scan) and another
/// periodically wipes the pool out from under everyone. Every query must
/// still return the right answer.
TEST(SanitizerStressTest, BufferPoolConcurrentScansAndEviction) {
  std::string dir = testing::TempDir() + "/stress_bufpool";
  {
    Database writer;
    ASSERT_TRUE(writer.Query("CREATE TABLE t (x INTEGER, s VARCHAR)").ok());
    std::string insert = "INSERT INTO t VALUES (0, 's0')";
    for (int i = 1; i < 512; ++i) {
      insert += ", (";
      insert += std::to_string(i);
      insert += ", 's";
      insert += std::to_string(i);
      insert += "')";
    }
    ASSERT_TRUE(writer.Query(insert).ok());
    setenv("MLCS_BLOCK_ROWS", "32", 1);  // 16 blocks → real LRU churn
    ASSERT_TRUE(writer.SaveTo(dir).ok());
    unsetenv("MLCS_BLOCK_ROWS");
  }
  Database db;
  ASSERT_TRUE(db.LoadFrom(dir).ok());

  bufpool::BufferPool& pool = bufpool::BufferPool::Global();
  const size_t budget_before = pool.byte_budget();
  pool.set_byte_budget(4096);  // holds only a few chunks at a time

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < kThreads; ++t) {
    scanners.emplace_back([&db, &failures, t] {
      for (int i = 0; i < kIters; ++i) {
        // Alternate a selective scan (zone maps may skip 15/16 blocks)
        // with a full scan (touches every chunk, maximum pool pressure).
        bool selective = (t + i) % 2 == 0;
        auto r = db.Query(selective
                              ? "SELECT COUNT(*) FROM t WHERE x >= 500"
                              : "SELECT COUNT(*) FROM t");
        int64_t want = selective ? 12 : 512;
        if (!r.ok() ||
            !(r.ValueOrDie()->GetValue(0, 0).ValueOrDie() ==
              Value::Int64(want))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread toggler([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      bufpool::SetZoneMapSkippingEnabled(false);
      bufpool::SetZoneMapSkippingEnabled(true);
    }
  });
  std::thread wiper([&pool, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      pool.Clear();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& t : scanners) t.join();
  stop.store(true, std::memory_order_release);
  toggler.join();
  wiper.join();
  bufpool::SetZoneMapSkippingEnabled(true);
  pool.set_byte_budget(budget_before);
  pool.Clear();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SanitizerStressTest, ConcurrentForestFits) {
  // Forest fits on the shared global pool: trees fan out as pool items,
  // each growing in place over its own row buffer from codes every tree
  // shares, and with fewer trees than threads each large node's
  // candidate search fans out too. Two threads fit 8-tree forests while a
  // third runs morsel-parallel queries on the same pool; then a 2-tree
  // fit takes the parallel candidate search. Every model must equal a
  // fit made alone byte for byte, and grow the serial fit's trees.
  Rng rng(31);
  ml::Matrix x(12000, 16);
  ml::Labels y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      // Half the features are small-domain integers, half continuous.
      x.Set(r, c, c % 2 == 0 ? static_cast<double>(rng.NextBounded(40))
                             : rng.NextGaussian());
    }
    y[r] = x.At(r, 0) / 20.0 + x.At(r, 1) + rng.NextGaussian() > 1.0;
  }
  auto fit = [&](int trees, bool parallel) {
    ml::RandomForestOptions opt;
    opt.n_estimators = trees;
    opt.max_depth = 8;
    opt.max_features = 12;  // ~7 600 distinct root rows x 12 candidates
    opt.parallel_fit = parallel;
    auto forest = std::make_unique<ml::RandomForest>(opt);
    EXPECT_TRUE(forest->Fit(x, y).ok());
    return forest;
  };
  // The pickle records parallel_fit, so pooled bytes are pinned by a
  // pooled fit on the quiet pool, and that fit must grow the serial
  // fit's trees: the two pickles differ in that one flag byte and
  // nowhere else (leaf distributions and importances included).
  auto same_trees = [&](const ml::RandomForest& a, const ml::RandomForest& b) {
    const std::string pa = ml::pickle::Dumps(a);
    const std::string pb = ml::pickle::Dumps(b);
    if (pa.size() != pb.size()) return false;
    size_t differing = 0;
    for (size_t i = 0; i < pa.size(); ++i) differing += pa[i] != pb[i];
    return differing == 1;
  };
  const std::string pooled8 = ml::pickle::Dumps(*fit(8, true));
  const std::string pooled2 = ml::pickle::Dumps(*fit(2, true));
  EXPECT_TRUE(same_trees(*fit(8, true), *fit(8, false)));
  EXPECT_TRUE(same_trees(*fit(2, true), *fit(2, false)));

  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE facts (k INTEGER, v DOUBLE);").ok());
  std::string insert = "INSERT INTO facts VALUES ";
  for (int i = 0; i < 2048; ++i) {
    if (i > 0) insert += ",";
    insert += "(";
    insert += std::to_string(rng.NextBounded(16));
    insert += ",";
    insert += std::to_string(rng.NextDouble());
    insert += ")";
  }
  ASSERT_TRUE(db.Query(insert).ok());
  MorselPolicy policy;  // the global pool the forests use
  policy.morsel_rows = 64;
  db.set_exec_policy(policy);
  const std::string kQuery =
      "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM facts WHERE v > 0.25 "
      "GROUP BY k ORDER BY k";
  TablePtr reference = db.Query(kQuery).ValueOrDie();

  std::atomic<int> failures{0};
  std::atomic<bool> fitting{true};
  std::thread querier([&] {
    while (fitting.load()) {
      auto r = db.Query(kQuery);
      if (!r.ok() || !r.ValueOrDie()->Equals(*reference)) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> fitters;
  for (int t = 0; t < 2; ++t) {
    fitters.emplace_back([&] {
      for (int i = 0; i < 2; ++i) {
        if (ml::pickle::Dumps(*fit(8, true)) != pooled8) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : fitters) t.join();
  // Fewer trees than pool threads: large nodes search their candidate
  // features in parallel.
  if (ml::pickle::Dumps(*fit(2, true)) != pooled2) failures.fetch_add(1);
  fitting.store(false);
  querier.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mlcs
