#include "src/par/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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
  ThreadPool pool(6);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(103, [&](std::size_t begin, std::size_t end) {
    std::lock_guard lock(mutex);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);
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

TEST(ThreadPool, LaneKGetsKthStaticChunk) {
  for (int lanes : {2, 3, 4, 7}) {
    ThreadPool pool(lanes);
    const auto width = static_cast<std::size_t>(lanes);
    for (std::size_t n : {2u, 5u, 64u, 103u}) {
      std::vector<std::optional<std::pair<std::size_t, std::size_t>>> seen(
          width);
      pool.parallel_lanes(n, [&](std::size_t lane, std::size_t begin,
                                 std::size_t end) {
        ASSERT_LT(lane, width);
        EXPECT_FALSE(seen[lane].has_value()) << "lane " << lane << " ran twice";
        seen[lane] = {begin, end};
      });
      for (std::size_t k = 0; k < width; ++k) {
        const std::size_t begin = k * n / width;
        const std::size_t end = (k + 1) * n / width;
        SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                     " n=" + std::to_string(n) + " k=" + std::to_string(k));
        if (begin < end) {
          ASSERT_TRUE(seen[k].has_value());
          EXPECT_EQ(*seen[k], std::make_pair(begin, end));
        } else {
          EXPECT_FALSE(seen[k].has_value()) << "empty chunk was called";
        }
      }
    }
  }
}

TEST(ThreadPool, BackToBackRegions) {
  // Plain (non-atomic) counters: each index belongs to one lane per
  // region, and consecutive regions touch it from different threads only
  // through the pool's fork-join ordering — a missing happens-before edge
  // shows up as a lost increment (or a ThreadSanitizer report).
  ThreadPool pool(4);
  constexpr int kRegions = 100000;
  std::vector<int> counts(8, 0);
  for (int region = 0; region < kRegions; ++region) {
    const std::size_t n = 4 + static_cast<std::size_t>(region % 5);
    pool.parallel_for(n, [&](std::size_t i) { ++counts[i]; });
  }
  // Index i < 4 is in every region; index 4 + j in regions whose
  // width exceeds it.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    int expected = 0;
    for (int width = 4; width < 9; ++width) {
      if (i < static_cast<std::size_t>(width)) expected += kRegions / 5;
    }
    EXPECT_EQ(counts[i], expected) << "index " << i;
  }
}

TEST(ThreadPool, RegionAfterHelpersParked) {
  // Sleep far past the spin budget so every helper (and the caller's next
  // wait) goes through the parked path, then check the region still runs
  // every index once.
  ThreadPool pool(4);
  std::vector<int> counts(16, 0);
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(ThreadPool::kSpinBudget * 40);
    pool.parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; });
  }
  for (int c : counts) EXPECT_EQ(c, 5);
}

TEST(ThreadPool, HelpersAcknowledgeEmptyChunks) {
  // n < lanes leaves some helpers with an empty chunk; they must still
  // acknowledge, or the caller would wait forever on the next region.
  ThreadPool pool(8);
  std::vector<int> counts(3, 0);
  constexpr int kRegions = 2000;
  for (int region = 0; region < kRegions; ++region) {
    const std::size_t n = 2 + static_cast<std::size_t>(region % 2);
    pool.parallel_for(n, [&](std::size_t i) { ++counts[i]; });
  }
  EXPECT_EQ(counts[0], kRegions);
  EXPECT_EQ(counts[1], kRegions);
  EXPECT_EQ(counts[2], kRegions / 2);
}

TEST(ThreadPool, DestroyWhileSpinning) {
  // Destroying right after a region catches helpers still in their spin
  // phase; the destructor must wake and join them.
  for (int round = 0; round < 200; ++round) {
    std::vector<int> counts(4, 0);
    {
      ThreadPool pool(4);
      pool.parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; });
    }
    for (int c : counts) ASSERT_EQ(c, 1) << "round " << round;
  }
}

TEST(ThreadPool, DestroyNeverUsedPool) {
  for (int threads : {1, 2, 4, 16}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
  }
  // And one whose helpers have certainly parked before the destructor.
  ThreadPool parked(3);
  std::this_thread::sleep_for(ThreadPool::kSpinBudget * 40);
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
