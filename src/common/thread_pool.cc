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

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  ParallelForChunks(count, num_threads(),
                    [&fn](size_t, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(i);
                    });
}

void ThreadPool::ParallelForChunks(
    size_t count, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (count == 0) return;
  num_chunks = std::max<size_t>(1, std::min(num_chunks, count));
  if (num_chunks == 1) {
    fn(0, 0, count);
    return;
  }
  size_t chunk_size = (count + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t begin = c * chunk_size;
    size_t end = std::min(count, begin + chunk_size);
    if (begin >= end) break;
    futures.push_back(Submit([&fn, c, begin, end] { fn(c, begin, end); }));
  }
  for (auto& f : futures) f.wait();
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
