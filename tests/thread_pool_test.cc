#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "common/parallel_for.h"

namespace mlcs {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.Submit([&] { counter.fetch_add(1); });
  fut.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelItemsCoversAllIndices) {
  ThreadPool pool(3);
  MorselPolicy policy;
  policy.pool = &pool;
  std::vector<std::atomic<int>> hits(1000);
  ASSERT_TRUE(ParallelItems(policy, hits.size(), [&](size_t i) {
                hits[i].fetch_add(1);
                return Status::OK();
              }).ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  MorselPolicy policy;
  policy.pool = &pool;
  bool called = false;
  EXPECT_TRUE(ParallelItems(policy, 0, [&](size_t) {
                called = true;
                return Status::OK();
              }).ok());
  EXPECT_TRUE(ParallelMorsels(policy, 0, [&](size_t, size_t, size_t) {
                called = true;
                return Status::OK();
              }).ok());
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelMorselsPartitionIsExact) {
  ThreadPool pool(4);
  MorselPolicy policy;
  policy.pool = &pool;
  policy.morsel_rows = 10;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  ASSERT_TRUE(ParallelMorsels(policy, 103, [&](size_t, size_t begin,
                                               size_t end) {
                std::lock_guard<std::mutex> lock(mu);
                ranges.emplace_back(begin, end);
                return Status::OK();
              }).ok());
  std::sort(ranges.begin(), ranges.end());
  size_t expected_begin = 0;
  for (auto [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
  EXPECT_EQ(ranges.size(), NumMorsels(policy, 103));
}

TEST(ThreadPoolTest, MorselCountClampedToWork) {
  ThreadPool pool(8);
  MorselPolicy policy;
  policy.pool = &pool;
  std::atomic<int> morsels{0};
  ASSERT_TRUE(ParallelMorsels(policy, 3, [&](size_t, size_t, size_t) {
                morsels.fetch_add(1);
                return Status::OK();
              }).ok());
  EXPECT_EQ(morsels.load(), 1);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  ASSERT_TRUE(ParallelItems(MorselPolicy{}, 10, [&](size_t) {
                counter.fetch_add(1);
                return Status::OK();
              }).ok());
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructionDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // Destructor must wait for queued tasks' completion or discard them
    // safely without UB; either way no crash and no data race.
  }
  EXPECT_LE(counter.load(), 50);
}

}  // namespace
}  // namespace mlcs
