#include "src/hv/p2m.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

P2mTable::P2mTable(int64_t num_pages) {
  XNUMA_CHECK(num_pages > 0);
  entries_.assign(num_pages, 0);
  gens_.assign((num_pages + kChunkPages - 1) >> kChunkShift, 0);
}

void P2mTable::CheckRange(Pfn pfn, int64_t count) const {
  XNUMA_CHECK(pfn >= 0 && count > 0 && pfn + count <= num_pages());
}

void P2mTable::TouchChunks(Pfn pfn, int64_t count) {
  for (int64_t ci = pfn >> kChunkShift; ci <= (pfn + count - 1) >> kChunkShift; ++ci) {
    TouchChunk(ci);
  }
}

void P2mTable::TouchChunk(int64_t ci) {
  const uint32_t gen = ++gens_[ci];
  if (!repl_enabled_) {
    return;
  }
  for (auto& rp : replicas_) {
    Replica* r = rp.get();
    if (r == nullptr) {
      continue;
    }
    // Only a copy that was current (stamped with the generation this
    // mutation just superseded) transitions to invalid; stale and empty
    // copies were already uncounted, so valid_chunks stays exact.
    if (r->stamps[ci].load(std::memory_order_relaxed) == gen - 1) {
      r->stamps[ci].store(kStampEmpty, std::memory_order_relaxed);
      r->valid_chunks.fetch_sub(1, std::memory_order_relaxed);
      ++repl_invalidations_;
      if (metrics_.invalidations != nullptr) {
        metrics_.invalidations->Increment();
      }
    }
  }
}

int64_t P2mTable::CountInvalid(Pfn pfn, int64_t count) const {
  CheckRange(pfn, count);
  if (count == num_pages()) {
    return count - valid_count_;
  }
  return std::count_if(entries_.begin() + pfn, entries_.begin() + pfn + count,
                       [](uint64_t e) { return (e & 1) == 0; });
}

// ---- Mapping mutators ----------------------------------------------------

void P2mTable::Map(Pfn pfn, Mfn mfn) {
  MapRange(pfn, 1, mfn);
}

void P2mTable::MapRange(Pfn pfn, int64_t count, Mfn mfn) {
  CheckRange(pfn, count);
  XNUMA_CHECK(mfn != kInvalidMfn);
  for (int64_t i = 0; i < count; ++i) {
    XNUMA_CHECK(entries_[pfn + i] == 0);
    entries_[pfn + i] = PackEntry(mfn + i, true);
  }
  valid_count_ += count;
  TouchChunks(pfn, count);
}

void P2mTable::Remap(Pfn pfn, Mfn new_mfn) {
  CheckRange(pfn, 1);
  XNUMA_CHECK(new_mfn != kInvalidMfn);
  uint64_t& e = entries_[pfn];
  XNUMA_CHECK((e & 1) != 0);
  e = (static_cast<uint64_t>(new_mfn) << 2) | (e & 3);
  TouchChunks(pfn, 1);
  if (metrics_.remaps != nullptr) {
    metrics_.remaps->Increment();
  }
}

Pfn P2mTable::MapInvalid(Pfn pfn, std::span<const Mfn> mfns) {
  int64_t touched = -1;  // the last chunk whose generation this call bumped
  for (const Mfn mfn : mfns) {
    XNUMA_CHECK(mfn != kInvalidMfn);
    while (true) {
      CheckRange(pfn, 1);
      if (entries_[pfn] == 0) {
        break;
      }
      ++pfn;
    }
    entries_[pfn] = PackEntry(mfn, true);
    if (pfn >> kChunkShift != touched) {
      touched = pfn >> kChunkShift;
      TouchChunk(touched);
    }
    ++pfn;
  }
  valid_count_ += static_cast<int64_t>(mfns.size());
  return pfn;
}

void P2mTable::UnmapValid(Pfn pfn, int64_t count, std::vector<Mfn>* out) {
  CheckRange(pfn, count);
  int64_t touched = -1;  // the last chunk whose generation this call bumped
  for (Pfn p = pfn; p < pfn + count; ++p) {
    const uint64_t e = entries_[p];
    if ((e & 1) == 0) {
      continue;
    }
    out->push_back(static_cast<Mfn>(e >> 2));
    entries_[p] = 0;
    --valid_count_;
    if (p >> kChunkShift != touched) {
      touched = p >> kChunkShift;
      TouchChunk(touched);
    }
  }
}

Mfn P2mTable::Unmap(Pfn pfn) {
  const Mfn old = Lookup(pfn);
  UnmapRange(pfn, 1);
  return old;
}

void P2mTable::UnmapRange(Pfn pfn, int64_t count) {
  CheckRange(pfn, count);
  for (int64_t i = 0; i < count; ++i) {
    XNUMA_CHECK((entries_[pfn + i] & 1) != 0);
    entries_[pfn + i] = 0;
  }
  valid_count_ -= count;
  TouchChunks(pfn, count);
}

void P2mTable::SetWritable(Pfn pfn, int64_t count, bool writable) {
  CheckRange(pfn, count);
  for (int64_t i = 0; i < count; ++i) {
    uint64_t& e = entries_[pfn + i];
    XNUMA_CHECK((e & 1) != 0);
    e = writable ? (e | 2) : (e & ~uint64_t{2});
  }
  TouchChunks(pfn, count);
}

void P2mTable::WriteProtect(Pfn pfn) { SetWritable(pfn, 1, false); }
void P2mTable::WriteUnprotect(Pfn pfn) { SetWritable(pfn, 1, true); }
void P2mTable::WriteProtectRange(Pfn pfn, int64_t count) { SetWritable(pfn, count, false); }
void P2mTable::WriteUnprotectRange(Pfn pfn, int64_t count) { SetWritable(pfn, count, true); }

P2mTable::Metrics::Metrics(Observability* obs) {
  if (obs == nullptr) {
    return;
  }
  MetricsRegistry& m = obs->metrics();
  remaps = m.RegisterCounter("p2m.remaps", "remaps", "Successful P2M remap commits");
  replicas = m.RegisterGauge(
      "p2m.repl.replicas", "replicas",
      "Live per-node P2M replicas summed over every domain (home nodes excluded)");
  invalidations = m.RegisterCounter(
      "p2m.repl.invalidations", "copies",
      "P2M replica copies dropped by master mutations or wholesale drops");
  local_walks = m.RegisterCounter(
      "p2m.repl.local_walks", "walks",
      "Modeled page-walks served by the walking vCPU's local table or replica");
  remote_walks = m.RegisterCounter(
      "p2m.repl.remote_walks", "walks",
      "Modeled page-walks that crossed the interconnect to the master table");
}

void P2mTable::set_metrics(const Metrics& metrics) {
  // The replica gauge sums every attached table's live replicas, so move
  // this table's share from the old gauge to the new one.
  AddToReplicaGauge(-replica_count());
  metrics_ = metrics;
  AddToReplicaGauge(replica_count());
}

// ---- Run lookup ----------------------------------------------------------

P2mTable::Run P2mTable::LookupRun(Pfn pfn, int32_t vcpu) const {
  CheckRange(pfn, 1);
  const int64_t ci = pfn >> kChunkShift;
  const Pfn base = ci << kChunkShift;
  const Pfn end = std::min(base + kChunkPages, num_pages());
  const uint64_t* e = entries_.data();
  Pfn lo = pfn;
  Pfn hi = pfn + 1;
  Run run;
  if ((e[pfn] & 1) == 0) {
    while (lo > base && e[lo - 1] == 0) {
      --lo;
    }
    while (hi < end && e[hi] == 0) {
      ++hi;
    }
    run = Run{lo, hi - lo, kInvalidMfn, false, false};
  } else {
    // A valid neighbour extends the run when its entry is exactly one frame
    // away with identical flag bits (entry arithmetic: +4 == +1 mfn).
    while (lo > base && e[lo - 1] + 4 == e[lo]) {
      --lo;
    }
    while (hi < end && e[hi] == e[hi - 1] + 4) {
      ++hi;
    }
    run = Run{lo, hi - lo, static_cast<Mfn>(e[lo] >> 2), true, (e[lo] & 2) != 0};
  }
  RestampReplica(pfn, vcpu);
  return run;
}

void P2mTable::RestampReplica(Pfn pfn, int32_t vcpu) const {
  if (!repl_enabled_) {
    return;
  }
  // The walk read the master table; re-copy the chunk it resolved into the
  // walking node's replica (Mitosis' walk-driven fill). Only an
  // already-instantiated replica is stamped — a const walk never
  // allocates.
  CheckRange(pfn, 1);
  const int64_t ci = pfn >> kChunkShift;
  const int node = vcpu_nodes_[VcpuSlot(vcpu)];
  Replica* r = node != home_node_ && node < repl_nodes_ ? replicas_[node].get() : nullptr;
  const uint32_t gen = gens_[ci];
  if (r != nullptr && r->stamps[ci].exchange(gen, std::memory_order_relaxed) != gen) {
    r->valid_chunks.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- Per-node replication (docs/MODEL.md §18) ----------------------------

void P2mTable::AddToReplicaGauge(int64_t delta) {
  if (metrics_.replicas != nullptr && delta != 0) {
    metrics_.replicas->Add(static_cast<double>(delta));
  }
}

void P2mTable::EnableReplication(int num_nodes, int home_node, int num_vcpus) {
  XNUMA_CHECK(num_nodes > 0 && home_node >= 0 && home_node < num_nodes);
  XNUMA_CHECK(num_vcpus > 0);
  AddToReplicaGauge(-replica_count());
  repl_enabled_ = true;
  home_node_ = home_node;
  repl_nodes_ = num_nodes;
  replicas_.clear();
  replicas_.resize(num_nodes);
  vcpu_nodes_.assign(num_vcpus, home_node_);
}

void P2mTable::DisableReplication() {
  AddToReplicaGauge(-replica_count());
  repl_enabled_ = false;
  repl_nodes_ = 0;
  replicas_.clear();
  vcpu_nodes_.clear();
}

P2mTable::Replica& P2mTable::EnsureReplica(int node) {
  XNUMA_CHECK(repl_enabled_ && node >= 0 && node < repl_nodes_);
  std::unique_ptr<Replica>& slot = replicas_[node];
  if (slot == nullptr) {
    slot = std::make_unique<Replica>(num_chunks());
    for (auto& s : slot->stamps) {
      s.store(kStampEmpty, std::memory_order_relaxed);
    }
    AddToReplicaGauge(1);
  }
  return *slot;
}

void P2mTable::SetVcpuNode(int32_t vcpu, int node) {
  XNUMA_CHECK(node >= 0);
  if (!repl_enabled_) {
    return;
  }
  vcpu_nodes_[VcpuSlot(vcpu)] = node;
  if (node != home_node_ && node < repl_nodes_) {
    EnsureReplica(node);
  }
}

void P2mTable::FillReplica(int node) {
  if (!repl_enabled_ || node == home_node_ || node < 0 || node >= repl_nodes_) {
    return;
  }
  Replica& r = EnsureReplica(node);
  for (int64_t ci = 0; ci < num_chunks(); ++ci) {
    r.stamps[ci].store(gens_[ci], std::memory_order_relaxed);
  }
  r.valid_chunks.store(num_chunks(), std::memory_order_relaxed);
}

void P2mTable::InvalidateReplicas(int node) {
  if (!repl_enabled_ || node < 0 || node >= repl_nodes_) {
    return;
  }
  Replica* r = replicas_[node].get();
  if (r != nullptr) {
    for (auto& s : r->stamps) {
      s.store(kStampEmpty, std::memory_order_relaxed);
    }
    r->valid_chunks.store(0, std::memory_order_relaxed);
  }
  ++repl_invalidations_;
  if (metrics_.invalidations != nullptr) {
    metrics_.invalidations->Increment();
  }
}

double P2mTable::ReplicaCoverage(int node) const {
  if (node == home_node_) {
    return 1.0;  // the master table is by definition local
  }
  if (!repl_enabled_ || node < 0 || node >= repl_nodes_) {
    return 0.0;
  }
  const Replica* r = replicas_[node].get();
  if (r == nullptr) {
    return 0.0;
  }
  const double num = static_cast<double>(r->valid_chunks.load(std::memory_order_relaxed));
  return std::min(1.0, std::max(0.0, num / static_cast<double>(num_chunks())));
}

void P2mTable::NoteWalks(int64_t local, int64_t remote) {
  repl_local_walks_ += local;
  repl_remote_walks_ += remote;
  if (metrics_.local_walks != nullptr && local > 0) {
    metrics_.local_walks->Increment(local);
  }
  if (metrics_.remote_walks != nullptr && remote > 0) {
    metrics_.remote_walks->Increment(remote);
  }
}

int64_t P2mTable::replica_count() const {
  int64_t n = 0;
  for (const auto& r : replicas_) {
    n += r != nullptr ? 1 : 0;
  }
  return n;
}

void P2mTable::AuditCounters() const {
  const int64_t valid = std::count_if(entries_.begin(), entries_.end(),
                                      [](uint64_t e) { return (e & 1) != 0; });
  XNUMA_CHECK(valid == valid_count_);
  // Each replica's transition-maintained valid_chunks must equal a recount
  // of stamps that match their chunk's current generation.
  for (const auto& rp : replicas_) {
    const Replica* r = rp.get();
    if (r == nullptr) {
      continue;
    }
    int64_t current = 0;
    for (int64_t ci = 0; ci < num_chunks(); ++ci) {
      current += r->stamps[ci].load(std::memory_order_relaxed) == gens_[ci] ? 1 : 0;
    }
    XNUMA_CHECK(current == r->valid_chunks.load(std::memory_order_relaxed));
  }
}

}  // namespace xnuma
