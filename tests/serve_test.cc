// Tests for the inference serving subsystem (src/serve/): the bounded
// admission queue, the request/response wire protocol in both layouts, and
// the full server — micro-batching, admission control, deadlines, and
// drain-then-stop shutdown — over real sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "client/inference_client.h"
#include "client/net_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/logistic_regression.h"
#include "ml/pickle.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "serve/bounded_queue.h"
#include "serve/inference_server.h"
#include "serve/serve_protocol.h"
#include "sql/database.h"

namespace mlcs::serve {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.PopWait().value(), 1);
  EXPECT_TRUE(q.TryPush(3));  // space again
}

TEST(BoundedQueueTest, CloseRejectsPushesButDrains) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_FALSE(q.TryPush(3));
  // Drain-then-stop: queued items survive Close.
  EXPECT_EQ(q.PopWait().value(), 1);
  EXPECT_EQ(q.PopWait().value(), 2);
  EXPECT_FALSE(q.PopWait().has_value());  // closed and empty
}

TEST(BoundedQueueTest, TryPopNeverBlocks) {
  BoundedQueue<int> q(4);
  EXPECT_FALSE(q.TryPop().has_value());  // empty: answers at once
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(q.TryPop().value(), 1);  // FIFO
  q.Close();
  // Queued items survive Close, then the closed queue answers nullopt.
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.TryPop().value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::thread consumer([&q] {
    EXPECT_FALSE(q.PopWait().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 200;
  std::atomic<int> accepted{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(i)) std::this_thread::yield();
        accepted.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (q.PopWait().has_value()) popped.fetch_add(1);
    });
  }
  for (int p = 0; p < 3; ++p) threads[p].join();
  q.Close();
  threads[3].join();
  threads[4].join();
  EXPECT_EQ(accepted.load(), 3 * kPerProducer);
  EXPECT_EQ(popped.load(), 3 * kPerProducer);
}

// ---------------------------------------------------------------------------
// Serve wire protocol
// ---------------------------------------------------------------------------

ml::Matrix TestMatrix(size_t rows, size_t cols) {
  ml::Matrix x(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      x.Set(r, c, static_cast<double>(r) * 10 + static_cast<double>(c));
    }
  }
  return x;
}

class ServeProtocolTest : public ::testing::TestWithParam<Layout> {};

TEST_P(ServeProtocolTest, RequestRoundTrips) {
  PredictRequest request;
  request.request_id = 77;
  request.deadline_ms = 250;
  request.model_name = "voter_lr";
  request.features = TestMatrix(5, 3);
  ByteWriter out;
  EncodePredictRequest(request, GetParam(), &out);
  ByteReader in(out.data());
  auto back = DecodePredictRequest(&in).ValueOrDie();
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(back.model_name, "voter_lr");
  ASSERT_EQ(back.features.rows(), 5u);
  ASSERT_EQ(back.features.cols(), 3u);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(back.features.At(r, c), request.features.At(r, c));
    }
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST_P(ServeProtocolTest, TruncatedPayloadRejectedBeforeAllocation) {
  PredictRequest request;
  request.request_id = 1;
  request.model_name = "m";
  request.features = TestMatrix(8, 2);
  ByteWriter out;
  EncodePredictRequest(request, GetParam(), &out);
  // Half the frame: the declared 8x2 payload is not present.
  ByteReader in(out.data().data(), out.size() / 2);
  auto result = DecodePredictRequest(&in);
  ASSERT_FALSE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(Layouts, ServeProtocolTest,
                         ::testing::Values(Layout::kRowMajor,
                                           Layout::kColumnar));

TEST(ServeProtocolTest2, ColumnarFrameIsIdenticalSizeButCheaperToDecode) {
  // Both layouts carry the same doubles; the columnar one simply lands in
  // matrix order. Sizes match — the win is the decode path, not bytes.
  PredictRequest request;
  request.model_name = "m";
  request.features = TestMatrix(16, 4);
  ByteWriter row_major, columnar;
  EncodePredictRequest(request, Layout::kRowMajor, &row_major);
  EncodePredictRequest(request, Layout::kColumnar, &columnar);
  EXPECT_EQ(row_major.size(), columnar.size());
}

TEST(ServeProtocolTest2, OversizedRowCountRejected) {
  ByteWriter out;
  out.WriteU8('P');
  out.WriteU64(9);
  out.WriteU32(0);
  out.WriteString("m");
  out.WriteU8(0);                    // row-major
  out.WriteU32(kMaxRequestRows + 1); // rows above cap
  out.WriteU16(1);
  ByteReader in(out.data());
  auto result = DecodePredictRequest(&in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cap"), std::string::npos);
}

TEST(ServeProtocolTest2, UnknownLayoutByteRejected) {
  ByteWriter out;
  out.WriteU8('P');
  out.WriteU64(9);
  out.WriteU32(0);
  out.WriteString("m");
  out.WriteU8(9);  // bogus layout
  ByteReader in(out.data());
  EXPECT_FALSE(DecodePredictRequest(&in).ok());
}

TEST(ServeProtocolTest2, PeekRequestIdSurvivesGarbage) {
  ByteWriter out;
  out.WriteU8('P');
  out.WriteU64(424242);
  out.WriteU32(0);
  // Truncated right after the id: full decode fails, peek still works.
  ByteReader in(out.data());
  EXPECT_FALSE(DecodePredictRequest(&in).ok());
  EXPECT_EQ(PeekRequestId(out.data().data(), out.size()), 424242u);
  uint8_t junk[3] = {1, 2, 3};
  EXPECT_EQ(PeekRequestId(junk, sizeof(junk)), 0u);
}

TEST(ServeProtocolTest2, ResponseRoundTripsOkAndError) {
  PredictResponse ok;
  ok.request_id = 5;
  ok.code = ServeCode::kOk;
  ok.labels = {1, 0, 2, 1};
  ByteWriter out;
  EncodePredictResponse(ok, &out);
  ByteReader in(out.data());
  auto back = DecodePredictResponse(&in).ValueOrDie();
  EXPECT_EQ(back.request_id, 5u);
  EXPECT_EQ(back.labels, ok.labels);

  PredictResponse err;
  err.request_id = 6;
  err.code = ServeCode::kOverloaded;
  err.message = "queue full";
  ByteWriter out2;
  EncodePredictResponse(err, &out2);
  ByteReader in2(out2.data());
  auto back2 = DecodePredictResponse(&in2).ValueOrDie();
  EXPECT_EQ(back2.code, ServeCode::kOverloaded);
  EXPECT_EQ(back2.message, "queue full");
  EXPECT_FALSE(ServeCodeToStatus(back2.code, back2.message).ok());
}

// ---------------------------------------------------------------------------
// End-to-end server
// ---------------------------------------------------------------------------

/// Fits a small two-class logistic regression and returns the matrix the
/// tests predict on plus the labels the fitted model itself produces (the
/// server must agree with a direct local Predict).
class InferenceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<modelstore::ModelStore>(&db_);
    ASSERT_TRUE(store_->Init().ok());
    Rng rng(7);
    ml::Matrix train(64, 2);
    ml::Labels labels(64);
    for (size_t r = 0; r < 64; ++r) {
      int cls = static_cast<int>(r % 2);
      train.Set(r, 0, rng.NextGaussian() + cls * 4.0);
      train.Set(r, 1, rng.NextGaussian() - cls * 4.0);
      labels[r] = cls;
    }
    ml::LogisticRegression model{ml::LogisticRegressionOptions{}};
    ASSERT_TRUE(model.Fit(train, labels).ok());
    ASSERT_TRUE(store_->SaveModel("m", model, 0.99, 64).ok());
    query_ = TestQueryMatrix(12);
    expected_ = model.Predict(query_).ValueOrDie();
    cache_ = std::make_unique<modelstore::ModelCache>(4);
  }

  static ml::Matrix TestQueryMatrix(size_t rows) {
    Rng rng(21);
    ml::Matrix x(rows, 2);
    for (size_t r = 0; r < rows; ++r) {
      int cls = static_cast<int>(r % 2);
      x.Set(r, 0, rng.NextGaussian() + cls * 4.0);
      x.Set(r, 1, rng.NextGaussian() - cls * 4.0);
    }
    return x;
  }

  std::unique_ptr<InferenceServer> MakeServer(InferenceServerOptions opts) {
    if (opts.model_cache == nullptr) opts.model_cache = cache_.get();
    auto server =
        std::make_unique<InferenceServer>(&db_, store_.get(), opts);
    EXPECT_TRUE(server->Start(0).ok());
    EXPECT_GT(server->port(), 0);
    return server;
  }

  Database db_;
  std::unique_ptr<modelstore::ModelStore> store_;
  std::unique_ptr<modelstore::ModelCache> cache_;
  ml::Matrix query_;
  ml::Labels expected_;
};

TEST_F(InferenceServerTest, PredictsOverBothLayouts) {
  auto server = MakeServer({});
  for (Layout layout : {Layout::kRowMajor, Layout::kColumnar}) {
    client::InferenceClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    client::InferenceCallOptions opts;
    opts.layout = layout;
    auto labels = client.Predict("m", query_, opts).ValueOrDie();
    EXPECT_EQ(labels, expected_) << LayoutToString(layout);
  }
  EXPECT_EQ(server->stats().responses_ok, 2u);
  // The per-instance counters mirror into the global registry (DESIGN.md
  // §10): the serving series must be visible on the one snapshot path.
  uint64_t global_ok = obs::MetricsRegistry::Global()
                           .GetCounter("mlcs.serve.responses_ok")
                           ->Value();
  EXPECT_GE(global_ok, 2u);
}

TEST_F(InferenceServerTest, MetricsAndTraceExportFrames) {
  auto server = MakeServer({});
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // A predict first, so the scrape reflects real serving work.
  ASSERT_TRUE(client.Predict("m", query_).ok());

  auto metrics = client.FetchMetricsText();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.ValueOrDie().find("# TYPE "), std::string::npos);
  EXPECT_NE(metrics.ValueOrDie().find("mlcs_serve_responses_ok"),
            std::string::npos);

  auto trace = client.FetchChromeTrace(0);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace.ValueOrDie().find("{\"traceEvents\":["), 0u);

  // Export frames interleave with predicts on one connection.
  EXPECT_EQ(client.Predict("m", query_).ValueOrDie(), expected_);
}

// An export renders off the I/O thread: while one connection waits for a
// large Chrome-trace render (over the frame cap, so it ends in an error
// frame), a predict on a second connection is read and answered.
TEST_F(InferenceServerTest, LargeExportDoesNotBlockOtherConnections) {
  obs::FlightRecorder::Global().Clear();
  uint64_t trace_id = 0;
  {
    obs::TraceContext ctx("oversized_export", /*force=*/true);
    trace_id = ctx.trace_id();
    obs::ScopedSpan span("oversized_note");
    // Each control byte escapes to six JSON bytes ("\u0001").
    span.set_note(
        std::string(client::net::kMaxFrameBytes / 6 + 1024, '\x01'));
  }
  auto server = MakeServer({});
  client::InferenceClient exporter;
  client::InferenceClient predictor;
  ASSERT_TRUE(exporter.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(predictor.Connect("127.0.0.1", server->port()).ok());

  using Clock = std::chrono::steady_clock;
  Clock::time_point export_done;
  Status export_status;
  std::thread export_thread([&] {
    export_status = exporter.FetchChromeTrace(trace_id).status();
    export_done = Clock::now();
  });
  // Let the server start rendering before the predict arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto labels = predictor.Predict("m", query_);
  Clock::time_point predict_done = Clock::now();
  export_thread.join();
  obs::FlightRecorder::Global().Clear();

  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels.ValueOrDie(), expected_);
  ASSERT_FALSE(export_status.ok());
  EXPECT_NE(export_status.ToString().find("exceeds the frame cap"),
            std::string::npos)
      << export_status.ToString();
  std::chrono::duration<double, std::milli> lead = export_done - predict_done;
  EXPECT_GT(lead.count(), 0.0)
      << "the export answer arrived before the predict on the other "
         "connection";
  EXPECT_TRUE(exporter.connected());
}

TEST_F(InferenceServerTest, UnknownModelAnswersModelNotFound) {
  auto server = MakeServer({});
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto response = client.Call("no_such_model", query_).ValueOrDie();
  EXPECT_EQ(response.code, ServeCode::kModelNotFound);
}

TEST_F(InferenceServerTest, MalformedFrameAnswersBadRequest) {
  auto server = MakeServer({});
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // Hand-build a frame whose body is garbage but carries a request id.
  ByteWriter frame;
  size_t start = client::net::BeginFrame(&frame);
  frame.WriteU8('P');
  frame.WriteU64(31337);
  ASSERT_TRUE(client::net::EndFrame(&frame, start).ok());
  ASSERT_TRUE(client::net::WriteAll(client.fd(), frame));
  auto response = client.Receive().ValueOrDie();
  EXPECT_EQ(response.code, ServeCode::kBadRequest);
  EXPECT_EQ(response.request_id, 31337u);
  // The same connection still serves well-formed requests.
  auto labels = client.Predict("m", query_).ValueOrDie();
  EXPECT_EQ(labels, expected_);
  EXPECT_EQ(server->stats().rejected_bad_request, 1u);
}

TEST_F(InferenceServerTest, WrongFeatureCountAnswersBadRequest) {
  auto server = MakeServer({});
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto response = client.Call("m", TestMatrix(3, 7)).ValueOrDie();
  EXPECT_EQ(response.code, ServeCode::kBadRequest);
}

TEST_F(InferenceServerTest, MicroBatcherCoalescesConcurrentRequests) {
  // Hold every batch until the admission queue has all requests, so one
  // batch must carry all of them.
  constexpr int kRequests = 6;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  InferenceServerOptions opts;
  opts.test_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  auto server = MakeServer(opts);

  std::vector<std::thread> threads;
  std::atomic<int> correct{0};
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([this, &server, &correct] {
      client::InferenceClient client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) return;
      auto labels = client.Predict("m", query_);
      if (labels.ok() && labels.ValueOrDie() == expected_) {
        correct.fetch_add(1);
      }
    });
  }
  // Wait until all requests are queued, then release the batcher. The
  // first request may already be held by the batch thread, so the queue
  // holds at least kRequests - 1.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (server->stats().requests_accepted >= kRequests) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  EXPECT_EQ(correct.load(), kRequests);
  auto stats = server->stats();
  EXPECT_EQ(stats.responses_ok, static_cast<uint64_t>(kRequests));
  // Coalescing happened: far fewer batches than requests, and at least one
  // batch carried several requests.
  EXPECT_LT(stats.batches_executed, stats.batched_requests);
  EXPECT_GE(stats.peak_batch_requests, 2u);
}

/// Holds the first batch in the test hook until Release(); later batches
/// pass straight through.
class BatchGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool released_ = false;
};

void WaitAccepted(const InferenceServer& server, uint64_t n) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (server.stats().requests_accepted >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST_F(InferenceServerTest, BatchTakesEverythingQueued) {
  // The batcher holds a first request while six more are pipelined on the
  // same connection; the next batch takes all six, and their responses
  // leave in one write that must decode back into six frames.
  constexpr int kQueued = 6;
  BatchGate gate;
  InferenceServerOptions opts;
  opts.test_batch_hook = gate.Hook();
  auto server = MakeServer(opts);
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // Request i carries the first i + 1 query rows, so every response has
  // its own labels: a prefix of expected_.
  std::map<uint64_t, size_t> rows_by_id;
  auto send = [&](size_t rows) {
    auto id = client.Send("m", TestQueryMatrix(rows));
    ASSERT_TRUE(id.ok());
    rows_by_id[id.ValueOrDie()] = rows;
  };
  send(1);
  gate.WaitHeld();
  for (int i = 1; i <= kQueued; ++i) send(static_cast<size_t>(i) + 1);
  WaitAccepted(*server, kQueued + 1);
  gate.Release();
  for (int i = 0; i <= kQueued; ++i) {
    auto r = client.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const PredictResponse& response = r.ValueOrDie();
    ASSERT_EQ(response.code, ServeCode::kOk) << response.message;
    auto it = rows_by_id.find(response.request_id);
    ASSERT_NE(it, rows_by_id.end()) << response.request_id;
    auto end = expected_.begin() + static_cast<std::ptrdiff_t>(it->second);
    ml::Labels want(expected_.begin(), end);
    EXPECT_EQ(response.labels, want) << response.request_id;
    rows_by_id.erase(it);
  }
  EXPECT_TRUE(rows_by_id.empty());
  auto stats = server->stats();
  EXPECT_EQ(stats.batches_executed, 2u);
  EXPECT_EQ(stats.peak_batch_requests, static_cast<uint64_t>(kQueued));
}

TEST_F(InferenceServerTest, SequentialCallsEachFormOneBatch) {
  // Nothing waits for company: a lone request is a batch of one.
  constexpr uint64_t kCalls = 5;
  auto server = MakeServer({});
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (uint64_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(client.Predict("m", query_).ValueOrDie(), expected_);
  }
  EXPECT_EQ(server->stats().batches_executed, kCalls);
}

/// Spans of every retained `serve.batch` trace, oldest first.
std::vector<std::vector<obs::TraceSpan>> ServeBatchTraces() {
  std::vector<std::vector<obs::TraceSpan>> out;
  auto recent = obs::FlightRecorder::Global().RecentTraces(64);
  for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
    if (it->root_name == "serve.batch") {
      out.push_back(obs::FlightRecorder::Global().Query(it->trace_id));
    }
  }
  return out;
}

std::vector<const obs::TraceSpan*> SpansNamed(
    const std::vector<obs::TraceSpan>& spans, const std::string& name) {
  std::vector<const obs::TraceSpan*> out;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

const obs::TraceSpan* RootSpan(const std::vector<obs::TraceSpan>& spans) {
  for (const obs::TraceSpan& s : spans) {
    if (s.span_id == 1) return &s;
  }
  return nullptr;
}

TEST_F(InferenceServerTest, InlineGroupTracesUnderTheBatchRoot) {
  obs::FlightRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  auto server = MakeServer({});
  client::InferenceClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  EXPECT_EQ(client.Predict("m", query_).ValueOrDie(), expected_);
  server->Stop();  // joins the batcher, which flushed the batch's trace
  obs::SetTracingEnabled(false);

  auto traces = ServeBatchTraces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceSpan* root = RootSpan(traces[0]);
  ASSERT_NE(root, nullptr);
  auto predicts = SpansNamed(traces[0], "serve.predict");
  ASSERT_EQ(predicts.size(), 1u);
  EXPECT_EQ(predicts[0]->parent_id, 1u);
  EXPECT_EQ(predicts[0]->tid, root->tid);  // ran on the batch thread
  auto gets = SpansNamed(traces[0], "model_cache.get");
  ASSERT_EQ(gets.size(), 1u);
  EXPECT_EQ(gets[0]->parent_id, predicts[0]->span_id);
}

TEST_F(InferenceServerTest, TwoModelBatchTracesBothGroups) {
  // A batch holding two models splits into two groups: the first runs on
  // the pool, the last on the batch thread, and both trace under the
  // batch's root.
  auto blob = store_->LoadModelBlob("m");
  ASSERT_TRUE(blob.ok());
  auto model = ml::pickle::Loads(blob.ValueOrDie());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(store_->SaveModel("m2", *model.ValueOrDie(), 0.99, 64).ok());
  ThreadPool pool(2);
  BatchGate gate;
  InferenceServerOptions opts;
  opts.pool = &pool;
  opts.test_batch_hook = gate.Hook();
  obs::FlightRecorder::Global().Clear();
  obs::SetTracingEnabled(true);
  auto server = MakeServer(opts);
  client::InferenceClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  EXPECT_TRUE(client.Send("m", query_).ok());
  gate.WaitHeld();
  EXPECT_TRUE(client.Send("m", query_).ok());
  EXPECT_TRUE(client.Send("m2", query_).ok());
  WaitAccepted(*server, 3);
  gate.Release();
  for (int i = 0; i < 3; ++i) {
    auto r = client.Receive();
    EXPECT_TRUE(r.ok() && r.ValueOrDie().code == ServeCode::kOk &&
                r.ValueOrDie().labels == expected_);
  }
  server->Stop();
  obs::SetTracingEnabled(false);

  auto traces = ServeBatchTraces();
  ASSERT_EQ(traces.size(), 2u);
  const std::vector<obs::TraceSpan>& spans = traces[1];
  const obs::TraceSpan* root = RootSpan(spans);
  ASSERT_NE(root, nullptr);
  auto predicts = SpansNamed(spans, "serve.predict");
  auto gets = SpansNamed(spans, "model_cache.get");
  ASSERT_EQ(predicts.size(), 2u);
  ASSERT_EQ(gets.size(), 2u);
  int on_batch_thread = 0;
  for (const obs::TraceSpan* predict : predicts) {
    EXPECT_EQ(predict->parent_id, 1u);
    if (predict->tid == root->tid) ++on_batch_thread;
    int children = 0;
    for (const obs::TraceSpan* get : gets) {
      if (get->parent_id == predict->span_id) ++children;
    }
    EXPECT_EQ(children, 1) << "predict span " << predict->span_id;
  }
  EXPECT_EQ(on_batch_thread, 1);  // the other group ran on the pool
}

TEST_F(InferenceServerTest, OverloadAnswersOverloadedWithBoundedQueue) {
  // Queue capacity 2 and a batcher frozen by the hook: the first request
  // is held by the batcher, two sit in the queue, every further request
  // must be answered kOverloaded immediately.
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  InferenceServerOptions opts;
  opts.max_queue_requests = 2;
  opts.test_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto server = MakeServer(opts);

  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  constexpr int kTotal = 8;
  // First request; wait until the batcher has taken it and is frozen, so
  // the admissions below are deterministic: 2 queued, the rest rejected.
  ASSERT_TRUE(client.Send("m", query_).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  for (int i = 1; i < kTotal; ++i) {
    ASSERT_TRUE(client.Send("m", query_).ok());
  }
  // The rejections are sent synchronously by the I/O thread, so they come
  // back while the batcher is still frozen.
  int overloaded = 0;
  std::vector<serve::PredictResponse> early;
  for (int i = 0; i < kTotal - 3; ++i) {
    early.push_back(client.Receive().ValueOrDie());
  }
  for (const auto& r : early) {
    ASSERT_EQ(r.code, ServeCode::kOverloaded) << r.request_id;
    ++overloaded;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The held request plus the two queued ones now complete.
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = client.Receive().ValueOrDie();
    EXPECT_EQ(r.code, ServeCode::kOk) << r.request_id;
    if (r.code == ServeCode::kOk) ++ok;
  }
  EXPECT_EQ(overloaded, kTotal - 3);
  EXPECT_EQ(ok, 3);
  auto stats = server->stats();
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(kTotal - 3));
  EXPECT_LE(stats.peak_queue_depth, 2u);  // the admission bound held
}

TEST_F(InferenceServerTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  InferenceServerOptions opts;
  opts.test_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  auto server = MakeServer(opts);
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  client::InferenceCallOptions call;
  call.deadline_ms = 1;  // expires while the batcher is frozen
  ASSERT_TRUE(client.Send("m", query_, call).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  auto response = client.Receive().ValueOrDie();
  EXPECT_EQ(response.code, ServeCode::kDeadlineExceeded);
  EXPECT_EQ(server->stats().expired_deadline, 1u);
}

TEST_F(InferenceServerTest, UnbatchedModeStillAnswersEverything) {
  InferenceServerOptions opts;
  opts.batching_enabled = false;
  auto server = MakeServer(opts);
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (int i = 0; i < 5; ++i) {
    auto labels = client.Predict("m", query_).ValueOrDie();
    EXPECT_EQ(labels, expected_);
  }
  auto stats = server->stats();
  EXPECT_EQ(stats.responses_ok, 5u);
  // No coalescing in the baseline: one batch per request.
  EXPECT_EQ(stats.batches_executed, 5u);
}

TEST_F(InferenceServerTest, DrainThenStopAnswersQueuedRequests) {
  // Freeze the batcher, queue requests, then Stop() from another thread:
  // every queued request must still be answered kOk (drained), and the
  // responses arrive even though the server is shutting down.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool held = false;
  InferenceServerOptions opts;
  opts.test_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  auto server = MakeServer(opts);
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  constexpr int kQueued = 4;
  for (int i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(client.Send("m", query_).ok());
  }
  // Wait until the batcher holds the first batch and the rest are queued.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (server->stats().requests_accepted >= kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::thread stopper([&server] { server->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  int ok = 0;
  for (int i = 0; i < kQueued; ++i) {
    auto r = client.Receive();
    if (r.ok() && r.ValueOrDie().code == ServeCode::kOk) ++ok;
  }
  EXPECT_EQ(ok, kQueued);
  EXPECT_FALSE(server->running());
}

TEST_F(InferenceServerTest, RequestsAfterDrainAnswerShuttingDown) {
  // A frame that arrives while the server drains is answered with
  // kShuttingDown, not silently dropped. Freeze the batcher so Stop()
  // stays in its drain phase while the probe request arrives.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  InferenceServerOptions opts;
  opts.test_batch_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  auto server = MakeServer(opts);
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Send("m", query_).ok());  // occupies the batcher
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper([&server] { server->Stop(); });
  // Wait until draining has begun (Stop closes the listen socket first).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client.Send("m", query_).ok());
  auto response = client.Receive().ValueOrDie();
  EXPECT_EQ(response.code, ServeCode::kShuttingDown);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  // The held request was still answered during the drain.
  auto drained = client.Receive().ValueOrDie();
  EXPECT_EQ(drained.code, ServeCode::kOk);
  EXPECT_GE(server->stats().rejected_shutdown, 1u);
}

TEST_F(InferenceServerTest, StopIsIdempotentAndRestartable) {
  auto server = MakeServer({});
  server->Stop();
  server->Stop();
  EXPECT_FALSE(server->running());
  ASSERT_TRUE(server->Start(0).ok());
  client::InferenceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  EXPECT_EQ(client.Predict("m", query_).ValueOrDie(), expected_);
  server->Stop();
}

}  // namespace
}  // namespace mlcs::serve
