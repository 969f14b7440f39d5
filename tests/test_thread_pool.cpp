#include "src/par/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <tuple>
#include <vector>

namespace psga::par {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionRange) {
  // parallel_lanes hands lane k the k-th static chunk, and the chunks
  // tile the range.
  ThreadPool pool(6);
  std::mutex mutex;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> chunks;
  pool.parallel_lanes(103, [&](std::size_t lane, std::size_t begin,
                               std::size_t end) {
    std::lock_guard lock(mutex);
    chunks.emplace_back(begin, end, lane);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 6u);
  std::size_t expected_begin = 0;
  std::size_t expected_lane = 0;
  for (const auto& [begin, end, lane] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);
    EXPECT_EQ(lane, expected_lane++);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      total += static_cast<long>(i);
    });
  }
  EXPECT_EQ(total.load(), 50L * (99 * 100 / 2));
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 1.0);
  std::vector<double> out(values.size());
  pool.parallel_for(values.size(),
                    [&](std::size_t i) { out[i] = values[i] * 2.0; });
  const double serial = std::accumulate(values.begin(), values.end(), 0.0) * 2.0;
  const double parallel = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(serial, parallel);
}

TEST(ThreadPool, DefaultPoolExists) {
  EXPECT_GE(default_pool().thread_count(), 1);
  std::atomic<int> hits{0};
  default_pool().parallel_for(10, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, NegativeThreadCountClampedToDefault) {
  ThreadPool pool(-5);
  EXPECT_GE(pool.thread_count(), 1);
}

}  // namespace
}  // namespace psga::par
