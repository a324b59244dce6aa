// The guest side of the paper's second hypercall (§4.2.3-4.2.4): a batched,
// partitioned queue of page allocation/release operations.
//
// Calling the hypervisor on every page release is prohibitively expensive
// (an empty hypercall per release divides wrmem's throughput by 3), so the
// guest accumulates (op, page) pairs and flushes a whole batch at once. The
// queue must observe *both* allocations and releases: a page can be
// reallocated while still sitting in the queue, and the hypervisor must not
// invalidate it in that case.
//
// Concurrency protocol, exactly as in §4.2.4:
//  - each entry is (op, page);
//  - a partition's lock is acquired before appending, and crucially is HELD
//    ACROSS the flush hypercall, so no other core can reallocate a free page
//    of the queue while the hypervisor replays it;
//  - the queue is partitioned by the two least significant bits of the page
//    frame number, giving each partition an independent lock.

#ifndef XENNUMA_SRC_GUEST_PV_QUEUE_H_
#define XENNUMA_SRC_GUEST_PV_QUEUE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"

namespace xnuma {

class PvPageQueue {
 public:
  // The flush callback is the hypercall: it receives the batch and returns
  // the simulated hypervisor time it consumed.
  using FlushFn = std::function<double(std::span<const PageQueueOp>)>;

  // `partition_bits` = 2 reproduces the paper's four queues; `batch_size` is
  // the number of entries accumulated before a flush.
  PvPageQueue(FlushFn flush, int partition_bits = 2, int batch_size = 64);

  PvPageQueue(const PvPageQueue&) = delete;
  PvPageQueue& operator=(const PvPageQueue&) = delete;

  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  int batch_size() const { return batch_size_; }

  // Records a page allocation / release; flushes the partition if full.
  // Thread-safe.
  void PushAlloc(Pfn pfn);
  void PushRelease(Pfn pfn);

  // Flushes every partition regardless of fill level (teardown, or policy
  // switch to first-touch).
  void FlushAll();

  // Optional metrics (pv.queue.*). The queue is the one instrumentation
  // site driven from multiple guest threads, so every metric update happens
  // under stats_mu_ (and never touches the single-threaded trace ring).
  // nullptr detaches.
  void set_observability(Observability* obs);

  struct Stats {
    int64_t pushes = 0;
    int64_t flushes = 0;
    double hypervisor_seconds = 0.0;  // simulated time spent in flushes
  };
  Stats GetStats() const;
  void ResetStats();

 private:
  struct Partition {
    std::mutex mu;
    std::vector<PageQueueOp> ops;
  };

  Partition& PartitionOf(Pfn pfn);
  void Push(PageQueueOp op);
  // Caller must hold `p.mu` — the lock stays held across the hypercall.
  void FlushLocked(Partition& p);

  FlushFn flush_;
  int batch_size_;
  std::vector<Partition> partitions_;
  int partition_mask_;

  mutable std::mutex stats_mu_;
  Stats stats_;
  // Pushes are counted outside stats_mu_ (one relaxed add instead of a
  // second lock per push); GetStats folds the value back into Stats.
  std::atomic<int64_t> push_ops_{0};

  // Observability (null = disabled; all updates guarded by stats_mu_).
  Observability* obs_ = nullptr;
  Counter* push_count_ = nullptr;
  Counter* flush_count_ = nullptr;
  Histogram* flush_batch_ = nullptr;
  Histogram* flush_wall_seconds_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_GUEST_PV_QUEUE_H_
