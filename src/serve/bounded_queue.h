#ifndef MLCS_SERVE_BOUNDED_QUEUE_H_
#define MLCS_SERVE_BOUNDED_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/mutex.h"
#include "obs/wait_stats.h"

namespace mlcs::serve {

/// Bounded multi-producer/multi-consumer queue — the admission-control
/// primitive of the serving path. Producers never block: TryPush either
/// accepts the item or reports the queue full/closed, so the caller can
/// answer `overloaded` instead of queueing without bound. Consumers drain
/// remaining items after Close() (drain-then-stop shutdown).
///
/// Consumer blocked-time is attributed to `mlcs.wait.queue.<site>` (the
/// `wait_site` constructor label, DESIGN.md §15): only waits that
/// actually parked on the condvar are recorded, so an always-stocked
/// queue costs nothing extra.
template <typename T>
class BoundedQueue {
 public:
  /// `wait_site` must outlive the queue (string literals).
  explicit BoundedQueue(size_t capacity,
                        const char* wait_site = "BoundedQueue")
      : capacity_(capacity), wait_site_name_(wait_site) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking enqueue; false when the queue is full or closed.
  [[nodiscard]] bool TryPush(T item) {
    {
      MutexLock lock(&mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and*
  /// drained; nullopt only in the latter case.
  std::optional<T> PopWait() {
    MutexLock lock(&mutex_);
    if (!closed_ && items_.empty()) {
      auto start = std::chrono::steady_clock::now();
      while (!closed_ && items_.empty()) cv_.Wait(lock);
      RecordBlocked(start);
    }
    return PopLocked();
  }

  /// Never blocks: the front item, or nullopt when the queue is empty
  /// (closed or not) — how the batcher takes what is already queued.
  std::optional<T> TryPop() {
    MutexLock lock(&mutex_);
    return PopLocked();
  }

  /// Rejects all future pushes and wakes every waiter. Already-queued
  /// items remain poppable so consumers can drain.
  void Close() {
    {
      MutexLock lock(&mutex_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  [[nodiscard]] bool closed() const {
    MutexLock lock(&mutex_);
    return closed_;
  }

  size_t size() const {
    MutexLock lock(&mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  std::optional<T> PopLocked() MLCS_REQUIRES(mutex_) {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    return out;
  }

  void RecordBlocked(std::chrono::steady_clock::time_point start) {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    obs::WaitSite* site = wait_site_.load(std::memory_order_acquire);
    if (site == nullptr) {
      site = obs::WaitStats::Global().GetSite(obs::WaitKind::kQueue,
                                              wait_site_name_);
      wait_site_.store(site, std::memory_order_release);
    }
    site->RecordWaitNs(static_cast<uint64_t>(ns));
  }

  const size_t capacity_;
  const char* wait_site_name_;
  std::atomic<obs::WaitSite*> wait_site_{nullptr};
  mutable Mutex mutex_{"BoundedQueue::mutex_"};
  CondVar cv_;
  std::deque<T> items_ MLCS_GUARDED_BY(mutex_);
  bool closed_ MLCS_GUARDED_BY(mutex_) = false;
};

}  // namespace mlcs::serve

#endif  // MLCS_SERVE_BOUNDED_QUEUE_H_
