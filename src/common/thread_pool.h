#ifndef MLCS_COMMON_THREAD_POOL_H_
#define MLCS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "obs/metrics.h"
#include "obs/wait_stats.h"

namespace mlcs {

/// Fixed-size worker pool with fire-and-forget Submit. Parallel loops run
/// on it through ParallelMorsels and ParallelItems (common/parallel_for.h).
class ThreadPool {
 public:
  /// `num_threads == 0` means DefaultThreadCount().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns a future for completion/raised value.
  std::future<void> Submit(std::function<void()> task);

  /// Process-wide shared pool (lazily constructed, never destroyed —
  /// avoids static destruction order issues per Google style).
  static ThreadPool& Global();

  /// The one knob that governs the whole stack: MLCS_THREADS (positive
  /// integer) when set, otherwise hardware_concurrency (min 1). Global()
  /// is sized with this, so the SQL executor, the parallel relational
  /// operators, UDF chunking, RF training, and the inference server all
  /// follow it. Benches record it in their BENCH_<name>.json.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  /// Written before the workers start, joined+cleared only in the dtor.
  std::vector<std::thread> workers_;  // lint:allow(guarded-member)
  Mutex mutex_{"ThreadPool::mutex_"};
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ MLCS_GUARDED_BY(mutex_);
  bool shutdown_ MLCS_GUARDED_BY(mutex_) = false;
  /// Process-wide pool metrics (all ThreadPool instances share the series):
  /// `mlcs.threadpool.queue_depth` (gauge), `.tasks_completed` (counter),
  /// `.task_wait_us` (histogram of enqueue→dequeue latency).
  obs::Gauge* queue_depth_;
  obs::Counter* tasks_completed_;
  obs::Histogram* task_wait_us_;
  /// Same enqueue→dequeue latency mirrored into the wait-attribution
  /// registry (`mlcs.wait.pool.dispatch`) so dispatch delay shows up next
  /// to lock/queue/bufpool blocking in one place (DESIGN.md §15).
  obs::WaitSite* dispatch_wait_;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_THREAD_POOL_H_
