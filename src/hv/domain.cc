#include "src/hv/domain.h"

namespace xnuma {

Domain::Domain(DomainId id, std::string name, int64_t memory_pages)
    : id_(id), name_(std::move(name)), p2m_(memory_pages) {}

void Domain::ConfigureVnuma(bool enabled) {
  vnuma_enabled_ = enabled;
  if (!enabled) {
    return;
  }
  vnuma_vcpu_cpu_ = std::make_unique<std::atomic<CpuId>[]>(vcpus_.size());
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    vnuma_vcpu_cpu_[i].store(vcpus_[i].pinned_cpu, std::memory_order_relaxed);
  }
}

void Domain::NoteVcpuLocation(VcpuId vcpu, CpuId cpu) {
  if (!vnuma_enabled_) {
    return;
  }
  if (vcpu < 0 || vcpu >= static_cast<VcpuId>(vcpus_.size())) {
    return;
  }
  std::lock_guard<std::mutex> lock(vnuma_writer_mutex_);
  const uint64_t seq = vnuma_seq_.load(std::memory_order_relaxed);
  vnuma_seq_.store(seq + 1, std::memory_order_release);  // odd: in progress
  vnuma_vcpu_cpu_[vcpu].store(cpu, std::memory_order_relaxed);
  vnuma_seq_.store(seq + 2, std::memory_order_release);  // even: stable
}

void Domain::NoteVnumaPlacementDrift() {
  if (!vnuma_enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(vnuma_writer_mutex_);
  const uint64_t seq = vnuma_seq_.load(std::memory_order_relaxed);
  vnuma_seq_.store(seq + 1, std::memory_order_release);
  vnuma_seq_.store(seq + 2, std::memory_order_release);
}

}  // namespace xnuma
