#include "src/guest/pv_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace xnuma {
namespace {

struct Recorder {
  std::mutex mu;
  std::vector<std::vector<PageQueueOp>> batches;
  double cost_per_flush = 1e-6;

  PvPageQueue::FlushFn Fn() {
    return [this](std::span<const PageQueueOp> ops) {
      std::lock_guard<std::mutex> lock(mu);
      batches.emplace_back(ops.begin(), ops.end());
      return cost_per_flush;
    };
  }

  int64_t TotalOps() {
    std::lock_guard<std::mutex> lock(mu);
    int64_t n = 0;
    for (const auto& b : batches) {
      n += static_cast<int64_t>(b.size());
    }
    return n;
  }
};

TEST(PvQueueTest, FlushesWhenBatchFull) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), /*partition_bits=*/0, /*batch_size=*/4);
  for (Pfn p = 0; p < 3; ++p) {
    q.PushRelease(p);
  }
  EXPECT_TRUE(rec.batches.empty());
  q.PushRelease(3);
  ASSERT_EQ(rec.batches.size(), 1u);
  EXPECT_EQ(rec.batches[0].size(), 4u);
}

TEST(PvQueueTest, PartitioningByLowBits) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), /*partition_bits=*/2, /*batch_size=*/2);
  EXPECT_EQ(q.num_partitions(), 4);
  // Pages 0 and 4 share partition 0; pages 1 and 2 do not fill theirs.
  q.PushRelease(0);
  q.PushRelease(1);
  q.PushRelease(2);
  q.PushRelease(4);
  ASSERT_EQ(rec.batches.size(), 1u);
  EXPECT_EQ(rec.batches[0][0].pfn, 0);
  EXPECT_EQ(rec.batches[0][1].pfn, 4);
}

TEST(PvQueueTest, AllocAndReleaseKindsPreserved) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), 0, 2);
  q.PushAlloc(5);
  q.PushRelease(5);
  ASSERT_EQ(rec.batches.size(), 1u);
  EXPECT_EQ(rec.batches[0][0].kind, PageQueueOp::Kind::kAlloc);
  EXPECT_EQ(rec.batches[0][1].kind, PageQueueOp::Kind::kRelease);
}

TEST(PvQueueTest, FlushAllDrainsPartialBatches) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), 2, 64);
  for (Pfn p = 0; p < 10; ++p) {
    q.PushRelease(p);
  }
  EXPECT_TRUE(rec.batches.empty());
  q.FlushAll();
  EXPECT_EQ(rec.TotalOps(), 10);
  // Second FlushAll is a no-op.
  const size_t flushes = rec.batches.size();
  q.FlushAll();
  EXPECT_EQ(rec.batches.size(), flushes);
}

TEST(PvQueueTest, StatsAccumulateHypervisorTime) {
  Recorder rec;
  rec.cost_per_flush = 2.5e-6;
  PvPageQueue q(rec.Fn(), 0, 2);
  for (Pfn p = 0; p < 6; ++p) {
    q.PushRelease(p);
  }
  const auto stats = q.GetStats();
  EXPECT_EQ(stats.pushes, 6);
  EXPECT_EQ(stats.flushes, 3);
  EXPECT_NEAR(stats.hypervisor_seconds, 7.5e-6, 1e-12);
  q.ResetStats();
  EXPECT_EQ(q.GetStats().pushes, 0);
}

TEST(PvQueueTest, BatchSizeOneFlushesEveryPush) {
  // The §4.2.3 "hypercall per release" configuration.
  Recorder rec;
  PvPageQueue q(rec.Fn(), 0, 1);
  for (Pfn p = 0; p < 5; ++p) {
    q.PushRelease(p);
  }
  EXPECT_EQ(rec.batches.size(), 5u);
}

TEST(PvQueueTest, ConcurrentPushersLoseNoOps) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), 2, 16);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&q, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Pfn pfn = t * kOpsPerThread + i;
        if (i % 2 == 0) {
          q.PushAlloc(pfn);
        } else {
          q.PushRelease(pfn);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  q.FlushAll();
  EXPECT_EQ(rec.TotalOps(), kThreads * kOpsPerThread);
  EXPECT_EQ(q.GetStats().pushes, kThreads * kOpsPerThread);

  // Every op must appear exactly once.
  std::map<Pfn, int> seen;
  for (const auto& batch : rec.batches) {
    for (const PageQueueOp& op : batch) {
      ++seen[op.pfn];
    }
  }
  for (const auto& [pfn, count] : seen) {
    EXPECT_EQ(count, 1) << "pfn " << pfn;
  }
}

TEST(PvQueueTest, ConcurrentSamePartitionKeepsBatchBound) {
  Recorder rec;
  PvPageQueue q(rec.Fn(), 0, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&q] {
      for (int i = 0; i < 1000; ++i) {
        q.PushRelease(i);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  q.FlushAll();
  for (const auto& batch : rec.batches) {
    EXPECT_LE(batch.size(), 8u);
  }
  EXPECT_EQ(rec.TotalOps(), 4000);
}

class PvQueuePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(PvQueuePartitionTest, OpsRouteToOwnPartition) {
  const int bits = GetParam();
  Recorder rec;
  PvPageQueue q(rec.Fn(), bits, 1);  // flush per push: batch == one op
  const int partitions = 1 << bits;
  for (Pfn p = 0; p < 64; ++p) {
    q.PushRelease(p);
  }
  ASSERT_EQ(rec.batches.size(), 64u);
  for (const auto& batch : rec.batches) {
    EXPECT_EQ(static_cast<int>(batch[0].pfn % partitions), batch[0].pfn & (partitions - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, PvQueuePartitionTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace xnuma
