#ifndef MLCS_SERVE_INFERENCE_SERVER_H_
#define MLCS_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "modelstore/model_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "modelstore/model_store.h"
#include "serve/bounded_queue.h"
#include "serve/serve_protocol.h"
#include "sql/database.h"

namespace mlcs::serve {

struct InferenceServerOptions {
  /// When false every request is predicted individually (the row-at-a-time
  /// ablation baseline); when true every request queued by the time the
  /// batcher is free joins one batch, one vectorized Predict per model.
  bool batching_enabled = true;
  /// A batch stops taking queued requests once it holds this many rows.
  size_t max_batch_rows = 4096;
  /// Admission bound: requests queued past this answer kOverloaded.
  size_t max_queue_requests = 256;
  /// A batch's extra model groups execute as tasks on this pool (default:
  /// the process-wide shared pool) while the batcher predicts the last one
  /// — no thread is ever dedicated to a single connection.
  ThreadPool* pool = nullptr;
  /// Model snapshot cache (default: ModelCache::Global()). Content
  /// addressing keeps it correct while models are retrained live.
  modelstore::ModelCache* model_cache = nullptr;
  /// Test-only: run by the batch thread right before dispatching a batch;
  /// lets tests hold execution to fill the queue deterministically.
  std::function<void()> test_batch_hook;
};

/// Counters exposed for tests, benchmarks, and ops. Snapshot semantics.
/// Plain-value copy of one server's ServeCounters; the process-wide
/// aggregates live on the metrics registry as `mlcs.serve.*`.
struct InferenceServerStats {  // lint:allow(adhoc-stats)
  uint64_t requests_accepted = 0;   // admitted into the queue
  uint64_t responses_ok = 0;
  uint64_t rejected_overload = 0;   // answered kOverloaded at admission
  uint64_t rejected_bad_request = 0;
  uint64_t rejected_shutdown = 0;   // arrived while draining
  uint64_t expired_deadline = 0;    // answered kDeadlineExceeded
  uint64_t failed_internal = 0;     // model load / predict failures
  uint64_t batches_executed = 0;    // vectorized Predict invocations
  uint64_t batched_requests = 0;    // requests carried by those batches
  uint64_t batched_rows = 0;        // feature rows predicted
  uint64_t peak_queue_depth = 0;    // high-water mark, never > capacity
  uint64_t peak_batch_requests = 0;
};

/// Micro-batching inference server — the serving path for the paper's
/// in-database models (§5.1 snapshots + §2 vectorization, applied to the
/// request path). A batch is every request queued when the batcher is
/// free; requests that arrive while it runs form the next batch, so batches
/// grow with load and an idle server answers at once. Each batch runs one
/// vectorized Predict call per model, so per-request cost amortizes
/// exactly like per-row UDF cost amortized in abl-vec.
///
/// Threading: one poll-based I/O thread owns every connection (no
/// thread-per-connection), and one batcher thread forms batches from a
/// bounded admission queue and predicts the last model group itself; any
/// other groups of the batch run as tasks on the shared ThreadPool.
/// Responses may arrive out of request order; the request_id correlates
/// them. Stop() drains: queued requests are answered, new ones get
/// kShuttingDown, then threads join and sockets close.
class InferenceServer {
 public:
  InferenceServer(Database* db, modelstore::ModelStore* store,
                  InferenceServerOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 → ephemeral) and starts serving.
  Status Start(uint16_t port = 0);
  /// Drain-then-stop; idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  InferenceServerStats stats() const;

 private:
  /// One client connection. The fd closes when the last reference drops,
  /// so an in-flight response can never write into a recycled fd.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    const int fd;
    /// Serializes response frames onto `fd` (the guarded state is the
    /// socket write stream, not a member).
    Mutex write_mutex{"Conn::write_mutex"};
    /// Touched only by the single I/O thread; never shared.
    std::vector<uint8_t> inbuf;  // lint:allow(guarded-member)
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A request admitted into the queue, with its arrival time pinned so
  /// deadlines measure true server-side latency (queue wait included).
  struct Pending {
    ConnPtr conn;
    PredictRequest request;
    std::chrono::steady_clock::time_point arrival;
  };

  void IoLoop();
  void BatchLoop();
  /// Drains readable bytes and dispatches complete frames; false when the
  /// connection must close (peer gone or protocol violation).
  [[nodiscard]] bool ReadAndDispatch(const ConnPtr& conn);
  [[nodiscard]] bool ProcessBufferedFrames(const ConnPtr& conn);
  /// Routes one request frame: a predict request into the admission queue,
  /// an export request to a pool task that renders and writes its answer.
  void HandleFrame(const ConnPtr& conn, const uint8_t* body, size_t size);
  /// Groups the batch by (model, feature count) and predicts each group:
  /// the last on this thread, the others as pool tasks.
  void ExecuteBatch(std::vector<Pending> batch);
  /// `trace` is the batch's trace context (null when tracing is off); pool
  /// workers attach to it so predict spans land in the batch's trace. OK
  /// responses leave in one write per connection.
  void RunGroup(std::vector<Pending*>& members, size_t total_rows,
                obs::TraceContext* trace);

  /// One error response, written on its own.
  void RespondError(const ConnPtr& conn, uint64_t request_id, ServeCode code,
                    std::string message);

  Database* db_;
  modelstore::ModelStore* store_;
  InferenceServerOptions options_;
  ThreadPool* pool_;
  modelstore::ModelCache* cache_;

  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // self-pipe to interrupt poll()
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> io_stop_{false};
  std::thread io_thread_;
  std::thread batch_thread_;
  std::unique_ptr<BoundedQueue<Pending>> queue_;

  /// Per-server counters, each mirrored into the process-wide
  /// `mlcs.serve.*` registry series (so `mlcs_metrics()` aggregates across
  /// servers while stats() stays exact per instance).
  struct ServeCounters {
    obs::MirroredCounter requests_accepted{"mlcs.serve.requests_accepted"};
    obs::MirroredCounter responses_ok{"mlcs.serve.responses_ok"};
    obs::MirroredCounter rejected_overload{"mlcs.serve.rejected_overload"};
    obs::MirroredCounter rejected_bad_request{
        "mlcs.serve.rejected_bad_request"};
    obs::MirroredCounter rejected_shutdown{"mlcs.serve.rejected_shutdown"};
    obs::MirroredCounter expired_deadline{"mlcs.serve.expired_deadline"};
    obs::MirroredCounter failed_internal{"mlcs.serve.failed_internal"};
    obs::MirroredCounter batches_executed{"mlcs.serve.batches_executed"};
    obs::MirroredCounter batched_requests{"mlcs.serve.batched_requests"};
    obs::MirroredCounter batched_rows{"mlcs.serve.batched_rows"};
    obs::MirroredMaxGauge peak_queue_depth{"mlcs.serve.peak_queue_depth"};
    obs::MirroredMaxGauge peak_batch_requests{
        "mlcs.serve.peak_batch_requests"};
  };
  ServeCounters stats_;
};

}  // namespace mlcs::serve

#endif  // MLCS_SERVE_INFERENCE_SERVER_H_
