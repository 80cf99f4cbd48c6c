#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mlcs {

namespace {

/// Pins glibc malloc's policy before main() in every process that links
/// the thread pool. Column buffers are allocated by pool workers, each in
/// its own arena, and freed by the query thread in bulk. With glibc's
/// dynamic thresholds, whether that freed memory is kept or handed back
/// to the kernel (and faulted in again by the next query) depends on heap
/// layout: identical fig1 runs took 15k–27k page faults per bar, and the
/// bar time followed. With the thresholds fixed, allocations under 2 MB
/// come from the arenas and an arena hands back its free top only past
/// 32 MB: ~3k faults per bar, the same every run. Since each arena may
/// now keep that much, arenas are capped at two per core.
const bool g_malloc_policy_set = [] {
#if defined(__GLIBC__)
  int arenas = static_cast<int>(
      2 * std::max(1u, std::thread::hardware_concurrency()));
  return mallopt(M_MMAP_THRESHOLD, 2 << 20) == 1 &&
         mallopt(M_TRIM_THRESHOLD, 32 << 20) == 1 &&
         mallopt(M_ARENA_MAX, arenas) == 1;
#else
  return false;
#endif
}();

}  // namespace

size_t ThreadPool::DefaultThreadCount() {
  const char* env = std::getenv("MLCS_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  queue_depth_ = registry.GetGauge("mlcs.threadpool.queue_depth");
  tasks_completed_ = registry.GetCounter("mlcs.threadpool.tasks_completed");
  task_wait_us_ = registry.GetHistogram(
      "mlcs.threadpool.task_wait_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000});
  dispatch_wait_ =
      obs::WaitStats::Global().GetSite(obs::WaitKind::kPool, "dispatch");
  if (num_threads == 0) {
    num_threads = DefaultThreadCount();
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto enqueued = std::chrono::steady_clock::now();
  std::packaged_task<void()> packaged(
      [this, enqueued, task = std::move(task)] {
        auto started = std::chrono::steady_clock::now();
        auto waited = started - enqueued;
        task_wait_us_->Observe(
            std::chrono::duration<double, std::micro>(waited).count());
        dispatch_wait_->RecordWaitNs(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count()));
        task();
        tasks_completed_->Add(1);
      });
  std::future<void> fut = packaged.get_future();
  {
    MutexLock lock(&mutex_);
    tasks_.push(std::move(packaged));
  }
  queue_depth_->Add(1);
  cv_.NotifyOne();
  return fut;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && tasks_.empty()) cv_.Wait(lock);
      if (tasks_.empty()) return;  // shutdown requested and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    queue_depth_->Add(-1);
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace mlcs
