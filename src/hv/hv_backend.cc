#include "src/hv/hv_backend.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"

namespace xnuma {

HvPlacementBackend::HvPlacementBackend(Domain& domain, FrameAllocator& frames)
    : domain_(&domain), frames_(&frames) {}

HvPlacementBackend::Metrics::Metrics(Observability* context) : obs(context) {
  if (obs == nullptr) {
    return;
  }
  MetricsRegistry& m = obs->metrics();
  maps = m.RegisterCounter("hv.backend.maps", "pages",
                           "Pages mapped through MapOnNode or MapRoundRobin");
  map_ranges = m.RegisterCounter("hv.backend.map_ranges", "ranges",
                                 "Contiguous ranges committed by MapRangeOnNode");
  migrations =
      m.RegisterCounter("hv.backend.migrations", "pages", "Pages migrated between nodes");
  failed_migrations = m.RegisterCounter(
      "hv.backend.failed_migrations", "pages",
      "Migrations refused (unmapped page or full target node)");
  migrated_bytes =
      m.RegisterCounter("hv.backend.migrated_bytes", "bytes", "Bytes copied by migrations");
  replications = m.RegisterCounter("hv.backend.replications", "pages",
                                   "Pages replicated across home nodes");
  collapses = m.RegisterCounter("hv.backend.collapses", "pages",
                                "Replica sets collapsed back to one copy");
  invalidations = m.RegisterCounter(
      "hv.backend.invalidations", "pages",
      "P2M entries invalidated (releases re-arming the first-touch trap, teardown)");
  vnuma_drift = m.RegisterCounter(
      "hv.backend.vnuma_drift", "migrations",
      "Cross-node page migrations that staled a vNUMA snapshot (docs/VNUMA.md)");
  migrate_seconds = m.RegisterHistogram("hv.backend.migrate_seconds", "s",
                                        "Wall-clock cost of one page migration");
}

int64_t HvPlacementBackend::DirtyLimit() const {
  // Past this point a drain would cost as much as the rescan it is meant to
  // avoid; degrade to "everything changed".
  return std::max<int64_t>(4096, num_pages() / 4);
}

void HvPlacementBackend::MarkDirty(Pfn pfn) {
  ++placement_generation_;
  if (dirty_overflow_ || (!dirty_flag_.empty() && dirty_flag_[pfn] != 0)) {
    return;
  }
  if (initializing_ || static_cast<int64_t>(dirty_pfns_.size()) >= DirtyLimit()) {
    MarkAllDirty();
    return;
  }
  if (dirty_flag_.empty()) {
    dirty_flag_.assign(num_pages(), 0);
  }
  dirty_flag_[pfn] = 1;
  dirty_pfns_.push_back(pfn);
}

void HvPlacementBackend::MarkAllDirty() {
  ++placement_generation_;
  for (Pfn pfn : dirty_pfns_) {
    dirty_flag_[pfn] = 0;
  }
  dirty_pfns_.clear();
  dirty_overflow_ = true;
}

bool HvPlacementBackend::DrainDirtyPfns(std::vector<Pfn>* out) {
  const bool complete = !dirty_overflow_;
  for (Pfn pfn : dirty_pfns_) {
    dirty_flag_[pfn] = 0;
    out->push_back(pfn);
  }
  dirty_pfns_.clear();
  dirty_overflow_ = false;
  return complete;
}

void HvPlacementBackend::InitializePolicy(NumaPolicy& policy) {
  initializing_ = true;
  policy.Initialize(*this);
  initializing_ = false;
}

int64_t HvPlacementBackend::num_pages() const { return domain_->memory_pages(); }

const std::vector<NodeId>& HvPlacementBackend::home_nodes() const {
  return domain_->home_nodes();
}

bool HvPlacementBackend::IsMapped(Pfn pfn) const { return domain_->p2m().IsValid(pfn); }

NodeId HvPlacementBackend::NodeOf(Pfn pfn) const {
  const Mfn mfn = domain_->p2m().Lookup(pfn);
  return mfn == kInvalidMfn ? kInvalidNode : frames_->NodeOf(mfn);
}

HvPlacementBackend::PlacementRun HvPlacementBackend::NodeOfRange(Pfn pfn,
                                                                 int32_t vcpu) const {
  const P2mTable::Run run = domain_->p2m().LookupRun(pfn, vcpu);
  PlacementRun r;
  if (!run.valid) {
    r.first = run.first;
    r.count = run.count;
    return r;
  }
  const Mfn mfn = run.mfn + (pfn - run.first);
  const NodeId node = frames_->NodeOf(mfn);
  // A P2M run is mfn-contiguous, but machine memory is statically
  // partitioned: clip the run to the frames node `node` actually owns so
  // every page of the returned run resolves to the same node.
  const Mfn node_lo = frames_->node_base(node);
  const Mfn node_hi = node_lo + frames_->frames_per_node(node);
  const int64_t back = std::min<int64_t>(pfn - run.first, mfn - node_lo);
  const int64_t fwd =
      std::min<int64_t>(run.first + run.count - pfn, node_hi - mfn);
  r.first = pfn - back;
  r.count = back + fwd;
  r.node = node;
  r.mapped = true;
  return r;
}

bool HvPlacementBackend::MapOnNode(Pfn pfn, NodeId node) {
  if (domain_->p2m().IsValid(pfn)) {
    return false;
  }
  const Mfn mfn = frames_->AllocOnNode(node);
  if (mfn == kInvalidMfn) {
    return false;
  }
  domain_->p2m().Map(pfn, mfn);
  MarkDirty(pfn);
  if (metrics_.maps != nullptr) {
    metrics_.maps->Increment();
  }
  return true;
}

bool HvPlacementBackend::MapRangeOnNode(Pfn first, int64_t count, NodeId node) {
  XNUMA_CHECK(count > 0);
  XNUMA_CHECK(first >= 0 && first + count <= num_pages());
  for (Pfn pfn = first; pfn < first + count;) {
    const P2mTable::Run run = domain_->p2m().LookupRun(pfn);
    if (run.valid) {
      return false;
    }
    pfn = run.first + run.count;  // skip the whole invalid run
  }
  const Mfn base = frames_->AllocContiguous(node, count);
  if (base == kInvalidMfn) {
    return false;
  }
  domain_->p2m().MapRange(first, count, base);
  if (initializing_ || count >= DirtyLimit()) {
    MarkAllDirty();  // bulk placement: cheaper to signal a full rescan
  } else {
    for (int64_t k = 0; k < count; ++k) {
      MarkDirty(first + k);
    }
  }
  if (metrics_.map_ranges != nullptr) {
    metrics_.map_ranges->Increment();
  }
  return true;
}

int64_t HvPlacementBackend::MapRoundRobin(Pfn first, int64_t count, int cursor, Pfn* next) {
  P2mTable& p2m = domain_->p2m();
  const std::vector<NodeId>& homes = home_nodes();
  const int64_t num_homes = static_cast<int64_t>(homes.size());
  XNUMA_CHECK(num_homes > 0 && cursor >= 0);
  // Home position j receives the unmapped pages k = offset(j) + m *
  // num_homes, m = 0, 1, ...; its node (home nodes are distinct) runs dry
  // at m = its free frames. The bulk prefix ends at the earliest such page.
  const auto offset = [&](int64_t j) { return (j - cursor % num_homes + num_homes) % num_homes; };
  const int64_t unmapped = count > 0 ? p2m.CountInvalid(first, count) : 0;
  int64_t prefix = unmapped;
  for (int64_t j = 0; j < num_homes; ++j) {
    XNUMA_CHECK(std::find(homes.begin(), homes.begin() + j, homes[j]) == homes.begin() + j);
    prefix = std::min(prefix, offset(j) + frames_->FreeFrames(homes[j]) * num_homes);
  }
  // The prefix is dealt out one P2M chunk's worth of pages at a time, so no
  // pages-sized buffer is needed: each node's sweeps continue where its
  // last one stopped, taking the frames one sweep would.
  std::array<Mfn, P2mTable::kChunkPages> block;
  Pfn end = first;
  for (int64_t lo = 0; lo < prefix; lo += P2mTable::kChunkPages) {
    const int64_t hi = std::min<int64_t>(prefix, lo + P2mTable::kChunkPages);
    for (int64_t j = 0; j < num_homes; ++j) {
      const int64_t k = lo + (offset(j) - lo % num_homes + num_homes) % num_homes;
      if (k < hi) {
        frames_->AllocManyOnNode(homes[j], (hi - 1 - k) / num_homes + 1, &block[k - lo],
                                 num_homes);
      }
    }
    end = p2m.MapInvalid(end, std::span<const Mfn>(block.data(), hi - lo));
  }
  *next = prefix == unmapped ? first + count : end;
  if (prefix > 0) {
    MarkAllDirty();  // bulk placement: one full-rescan signal
    if (metrics_.maps != nullptr) {
      metrics_.maps->Increment(prefix);
    }
  }
  return prefix;
}

bool HvPlacementBackend::Replicate(Pfn pfn) {
  P2mTable& p2m = domain_->p2m();
  if (!p2m.IsValid(pfn) || domain_->IsReplicated(pfn)) {
    return false;
  }
  const NodeId primary = frames_->NodeOf(p2m.Lookup(pfn));
  std::vector<Mfn> replicas;
  for (NodeId node : domain_->home_nodes()) {
    if (node == primary) {
      continue;
    }
    const Mfn mfn = frames_->AllocOnNode(node);
    if (mfn == kInvalidMfn) {
      for (Mfn taken : replicas) {
        frames_->Free(taken);
      }
      return false;
    }
    replicas.push_back(mfn);
  }
  // Reads may now be served from any copy; stores must trap so the replicas
  // can be collapsed before the write lands.
  p2m.WriteProtect(pfn);
  domain_->mutable_replicas()[pfn] = std::move(replicas);
  ++domain_->stats().pages_replicated;
  MarkDirty(pfn);
  if (metrics_.replications != nullptr) {
    metrics_.replications->Increment();
  }
  return true;
}

void HvPlacementBackend::CollapseReplicas(Pfn pfn) {
  auto it = domain_->mutable_replicas().find(pfn);
  if (it == domain_->mutable_replicas().end()) {
    return;
  }
  for (Mfn mfn : it->second) {
    frames_->Free(mfn);
  }
  domain_->mutable_replicas().erase(it);
  if (domain_->p2m().IsValid(pfn)) {
    domain_->p2m().WriteUnprotect(pfn);
  }
  ++domain_->stats().replicas_collapsed;
  MarkDirty(pfn);
  if (metrics_.collapses != nullptr) {
    metrics_.collapses->Increment();
  }
}

bool HvPlacementBackend::IsReplicated(Pfn pfn) const { return domain_->IsReplicated(pfn); }

bool HvPlacementBackend::Migrate(Pfn pfn, NodeId node) {
  const double begin_us = metrics_.obs != nullptr ? metrics_.obs->tracer().NowUs() : 0.0;
  P2mTable& p2m = domain_->p2m();
  if (!p2m.IsValid(pfn)) {
    if (metrics_.failed_migrations != nullptr) {
      metrics_.failed_migrations->Increment();
    }
    return false;
  }
  if (domain_->IsReplicated(pfn)) {
    // A replicated page already serves every node locally; collapse before
    // moving the primary copy.
    CollapseReplicas(pfn);
  }
  const Mfn old_mfn = p2m.Lookup(pfn);
  if (frames_->NodeOf(old_mfn) == node) {
    return true;  // Already there.
  }
  const Mfn new_mfn = frames_->AllocOnNode(node);
  if (new_mfn == kInvalidMfn) {
    if (metrics_.failed_migrations != nullptr) {
      metrics_.failed_migrations->Increment();
    }
    return false;
  }
  // §4.1: write-protect the entry so no store lands in the page while it is
  // being copied, copy, then commit the new mapping and drop protection.
  p2m.WriteProtect(pfn);
  p2m.Remap(pfn, new_mfn);
  p2m.WriteUnprotect(pfn);
  frames_->Free(old_mfn);

  ++window_.migrations;
  window_.bytes += frames_->bytes_per_frame();
  ++domain_->stats().pages_migrated;
  domain_->stats().bytes_migrated += frames_->bytes_per_frame();
  MarkDirty(pfn);
  if (domain_->vnuma_enabled()) {
    // The page left the node the guest's cached topology implies: any vNUMA
    // snapshot taken before this migration is now stale (docs/MODEL.md §16).
    domain_->NoteVnumaPlacementDrift();
    if (metrics_.vnuma_drift != nullptr) {
      metrics_.vnuma_drift->Increment();
    }
  }
  if (metrics_.obs != nullptr) {
    metrics_.migrations->Increment();
    metrics_.migrated_bytes->Increment(frames_->bytes_per_frame());
    metrics_.migrate_seconds->Observe((metrics_.obs->tracer().NowUs() - begin_us) * 1e-6);
  }
  return true;
}

void HvPlacementBackend::Invalidate(Pfn pfn) {
  P2mTable& p2m = domain_->p2m();
  if (!p2m.IsValid(pfn)) {
    return;
  }
  CollapseReplicas(pfn);
  frames_->Free(p2m.Unmap(pfn));
  MarkDirty(pfn);
  if (metrics_.invalidations != nullptr) {
    metrics_.invalidations->Increment();
  }
}

int64_t HvPlacementBackend::ReleaseAll(std::vector<Mfn>* chunk) {
  XNUMA_CHECK(domain_->replicas().empty());
  P2mTable& p2m = domain_->p2m();
  // One P2M chunk at a time, so no pages-sized buffer is needed.
  const int64_t released = p2m.valid_count();
  for (Pfn pfn = 0; p2m.valid_count() > 0; pfn += P2mTable::kChunkPages) {
    chunk->clear();
    p2m.UnmapValid(pfn, std::min(P2mTable::kChunkPages, num_pages() - pfn), chunk);
    frames_->FreeMany(*chunk);
  }
  if (released > 0) {
    MarkAllDirty();
    if (metrics_.invalidations != nullptr) {
      metrics_.invalidations->Increment(released);
    }
  }
  return released;
}

HvPlacementBackend::MigrationWindow HvPlacementBackend::DrainMigrationWindow() {
  const MigrationWindow w = window_;
  window_ = MigrationWindow();
  return w;
}

}  // namespace xnuma
