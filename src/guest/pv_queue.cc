#include "src/guest/pv_queue.h"

#include "src/common/check.h"

namespace xnuma {

PvPageQueue::PvPageQueue(FlushFn flush, int partition_bits, int batch_size)
    : flush_(std::move(flush)),
      batch_size_(batch_size),
      partitions_(1 << partition_bits),
      partition_mask_((1 << partition_bits) - 1) {
  XNUMA_CHECK(flush_ != nullptr);
  XNUMA_CHECK(partition_bits >= 0 && partition_bits <= 8);
  XNUMA_CHECK(batch_size_ >= 1);
  for (Partition& p : partitions_) {
    p.ops.reserve(batch_size_);
  }
}

PvPageQueue::Partition& PvPageQueue::PartitionOf(Pfn pfn) {
  return partitions_[pfn & partition_mask_];
}

void PvPageQueue::set_observability(Observability* obs) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  obs_ = obs;
  if (obs_ == nullptr) {
    push_count_ = flush_count_ = nullptr;
    flush_batch_ = flush_wall_seconds_ = nullptr;
    return;
  }
  MetricsRegistry& m = obs_->metrics();
  push_count_ =
      m.RegisterCounter("pv.queue.pushes", "ops", "Alloc/release entries enqueued");
  flush_count_ =
      m.RegisterCounter("pv.queue.flushes", "calls", "Flush hypercalls issued");
  flush_batch_ = m.RegisterHistogram("pv.queue.flush_batch", "ops",
                                     "Entries delivered per flush hypercall",
                                     {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  flush_wall_seconds_ = m.RegisterHistogram(
      "pv.queue.flush_wall_seconds", "s",
      "Wall-clock time of one flush (lock held across the hypercall)");
}

void PvPageQueue::PushAlloc(Pfn pfn) {
  Push({PageQueueOp::Kind::kAlloc, pfn});
}

void PvPageQueue::PushRelease(Pfn pfn) {
  Push({PageQueueOp::Kind::kRelease, pfn});
}

void PvPageQueue::Push(PageQueueOp op) {
  Partition& p = PartitionOf(op.pfn);
  std::lock_guard<std::mutex> lock(p.mu);
  p.ops.push_back(op);
  // One relaxed add instead of a second lock round-trip per push. The obs
  // counter update rides under the partition lock: an observed queue is
  // driven from the machine's single simulation thread (the concurrent
  // pushers in the tests run unobserved), so no update is ever lost.
  push_ops_.fetch_add(1, std::memory_order_relaxed);
  if (push_count_ != nullptr) {
    push_count_->Increment();
  }
  if (static_cast<int>(p.ops.size()) >= batch_size_) {
    // The partition lock is deliberately held across the hypercall: another
    // core must not reallocate a free page of this queue while the
    // hypervisor replays it (§4.2.4).
    FlushLocked(p);
  }
}

void PvPageQueue::FlushLocked(Partition& p) {
  if (p.ops.empty()) {
    return;
  }
  const int64_t batch = static_cast<int64_t>(p.ops.size());
  const double begin_us = obs_ != nullptr ? obs_->tracer().NowUs() : 0.0;
  const double hv_time = flush_(std::span<const PageQueueOp>(p.ops));
  const double end_us = obs_ != nullptr ? obs_->tracer().NowUs() : 0.0;
  p.ops.clear();
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.flushes;
  stats_.hypervisor_seconds += hv_time;
  if (flush_count_ != nullptr) {
    flush_count_->Increment();
    flush_batch_->Observe(static_cast<double>(batch));
    flush_wall_seconds_->Observe((end_us - begin_us) * 1e-6);
  }
}

void PvPageQueue::FlushAll() {
  for (Partition& p : partitions_) {
    std::lock_guard<std::mutex> lock(p.mu);
    FlushLocked(p);
  }
}

PvPageQueue::Stats PvPageQueue::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  Stats s = stats_;
  s.pushes = push_ops_.load(std::memory_order_relaxed);
  return s;
}

void PvPageQueue::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = Stats();
  push_ops_.store(0, std::memory_order_relaxed);
}

}  // namespace xnuma
