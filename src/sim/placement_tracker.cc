#include "src/sim/placement_tracker.h"

#include <cmath>

#include "src/common/check.h"

namespace xnuma {

namespace {

// Writes the region's double masses from its integer counts.
void DeriveMasses(PlacementTracker::Region& region, int threads, int nodes) {
  const PlacementTracker::Region::Counts& c = region.counts;
  auto mass = [&](int64_t hot, int64_t cold) { return hot * region.w_hot + cold * region.w_cold; };
  for (NodeId n = 0; n < nodes; ++n) {
    region.node_mass[n] = mass(c.by_node[1][n], c.by_node[0][n]);
  }
  region.total_mass = mass(c.total[1], c.total[0]);
  region.replicated_mass = mass(c.replicated[1], c.replicated[0]);
  for (int t = 0; t < threads; ++t) {
    for (NodeId n = 0; n < nodes; ++n) {
      region.slice_mass[t][n] = mass(c.slice_node[1][t][n], c.slice_node[0][t][n]);
    }
    region.slice_total[t] = mass(c.by_slice[1][t], c.by_slice[0][t]);
  }
}

// Simulated pages of one region.
int64_t RegionSimPages(const RegionSpec& region, int64_t bytes_per_frame,
                       int64_t fallback_min_pages) {
  const int64_t frame_mb = bytes_per_frame / (1 << 20);
  const int64_t min_pages = region.min_pages > 0 ? region.min_pages : fallback_min_pages;
  return std::max<int64_t>(min_pages,
                           static_cast<int64_t>(std::ceil(region.footprint_mb / frame_mb)));
}

}  // namespace

int64_t AppSimPages(const AppProfile& app, int64_t bytes_per_frame, int64_t fallback_min_pages) {
  int64_t total = 0;
  for (const RegionSpec& r : app.regions) {
    total += RegionSimPages(r, bytes_per_frame, fallback_min_pages);
  }
  return total;
}

PlacementTracker::PlacementTracker(Hypervisor& hv, Observability* obs, int verify_period)
    : hv_(&hv), nodes_(hv.topology().num_nodes()), verify_period_(verify_period) {
  if (obs != nullptr) {
    full_rescans_ = obs->metrics().RegisterCounter(
        "engine.placement.full_rescans", "rescans",
        "Placement refreshes that fell back to a whole-region rescan");
    dirty_events_ = obs->metrics().RegisterCounter(
        "engine.placement.dirty_events", "events",
        "Dirty-page events applied incrementally to the placement cache");
  }
}

int PlacementTracker::AddJob(const AppProfile& app, GuestOs* guest, DomainId domain,
                             int threads, int64_t min_region_pages) {
  Job job;
  job.guest = guest;
  job.domain = domain;
  job.threads = threads;
  // Lay the regions out in one process address space.
  Vpn next_vpn = 0;
  for (const RegionSpec& rs : app.regions) {
    Region region;
    region.spec = &rs;
    region.first_vpn = next_vpn;
    region.pages = RegionSimPages(rs, hv_->frames().bytes_per_frame(), min_region_pages);
    next_vpn += region.pages;
    region.hot_count =
        std::clamp<int64_t>(std::llround(rs.hot_fraction * region.pages), 1, region.pages);
    region.hot_stride = std::max<int64_t>(1, region.pages / region.hot_count);
    region.w_hot = rs.hot_share / static_cast<double>(region.hot_count);
    const int64_t cold = region.pages - region.hot_count;
    region.w_cold = cold > 0 ? (1.0 - rs.hot_share) / static_cast<double>(cold) : 0.0;
    region.node_mass.assign(nodes_, 0.0);
    region.slice_mass.assign(threads, std::vector<double>(nodes_, 0.0));
    region.slice_total.assign(threads, 0.0);
    region.counts.Init(threads, nodes_);
    region.page_cache.assign(region.pages, PagePlacement{});
    job.regions.push_back(std::move(region));
  }
  job.pid = guest->CreateProcess(next_vpn);
  std::vector<GuestOs*>& guests = guests_by_domain_[domain];
  if (std::find(guests.begin(), guests.end(), guest) == guests.end()) {
    guests.push_back(guest);
  }
  jobs_.push_back(std::move(job));
  return jobs_.back().pid;
}

PagePlacement PlacementTracker::ReadPage(const Job& job, Vpn vpn) const {
  PagePlacement page;
  page.pfn = job.guest->PfnOfVpage(job.pid, vpn);
  const HvPlacementBackend& be = hv_->backend(job.domain);
  const NodeId node = page.pfn == kInvalidPfn ? kInvalidNode : be.NodeOf(page.pfn);
  if (node == kInvalidNode) {
    return page;  // No pfn, or released and not yet retouched.
  }
  page.mapped = true;
  page.replicated = be.IsReplicated(page.pfn);
  page.node = page.replicated ? kInvalidNode : node;
  return page;
}

void PlacementTracker::Rescan(const Job& job, Region& region) const {
  region.counts.Init(job.threads, nodes_);
  for (int64_t idx = 0; idx < region.pages; ++idx) {
    region.page_cache[idx] = ReadPage(job, region.first_vpn + idx);
    region.counts.Apply(region.page_cache[idx], region.IsHot(idx),
                        region.SliceOf(idx, job.threads), +1);
  }
}

void PlacementTracker::ApplyPageDelta(Job& job, Vpn vpn) {
  const auto region = std::find_if(job.regions.begin(), job.regions.end(), [&](const Region& r) {
    return vpn >= r.first_vpn && vpn < r.first_vpn + r.pages;
  });
  if (region == job.regions.end()) {
    return;  // vpn outside any simulated region
  }
  const int64_t idx = vpn - region->first_vpn;
  const PagePlacement current = ReadPage(job, vpn);
  PagePlacement& cached = region->page_cache[idx];
  if (cached == current) {
    return;
  }
  const bool hot = region->IsHot(idx);
  const int64_t slice = region->SliceOf(idx, job.threads);
  region->counts.Apply(cached, hot, slice, -1);
  region->counts.Apply(current, hot, slice, +1);
  cached = current;
  job.masses_stale = true;
}

void PlacementTracker::QueueDirty(const GuestOs* guest, int pid, Vpn vpn) {
  for (Job& job : jobs_) {
    if (job.guest == guest && job.pid == pid && !job.finished && !job.needs_full_rescan) {
      job.pending_dirty.push_back(vpn);
    }
  }
}

void PlacementTracker::DrainEvents() {
  // Guest-side events name the affected vpage directly. Each job hears only
  // from its own guest and domain, so the drain order cannot reorder any
  // job's pending pages.
  for (const auto& [domain, guests] : guests_by_domain_) {
    for (GuestOs* guest : guests) {
      vpage_event_scratch_.clear();
      if (!guest->DrainDirtyVpages(&vpage_event_scratch_)) {
        for (Job& job : jobs_) {
          job.needs_full_rescan = job.needs_full_rescan || job.guest == guest;
        }
        continue;
      }
      for (const GuestOs::VpageEvent& ev : vpage_event_scratch_) {
        QueueDirty(guest, ev.pid, ev.vpn);
      }
    }
  }
  // Hypervisor-side events name a pfn (migration, replication, invalidation);
  // translate through the owning vpage. A pfn with no owner was released, and
  // the release already produced a guest-side event for its old vpage.
  for (const auto& [domain, guests] : guests_by_domain_) {
    pfn_event_scratch_.clear();
    if (!hv_->backend(domain).DrainDirtyPfns(&pfn_event_scratch_)) {
      for (Job& job : jobs_) {
        job.needs_full_rescan = job.needs_full_rescan || job.domain == domain;
      }
      continue;
    }
    for (GuestOs* guest : guests) {
      int pid = -1;
      Vpn vpn = 0;
      for (Pfn pfn : pfn_event_scratch_) {
        if (guest->VpageOfPfn(pfn, &pid, &vpn)) {
          QueueDirty(guest, pid, vpn);
        }
      }
    }
  }
}

void PlacementTracker::Refresh(int id) {
  Job& job = jobs_[id];
  if (job.needs_full_rescan) {
    for (Region& region : job.regions) {
      Rescan(job, region);
    }
    job.needs_full_rescan = false;
    job.masses_stale = true;
    if (full_rescans_ != nullptr) {
      full_rescans_->Increment();
    }
  } else {
    if (dirty_events_ != nullptr) {
      dirty_events_->Increment(static_cast<int64_t>(job.pending_dirty.size()));
    }
    for (Vpn vpn : job.pending_dirty) {
      ApplyPageDelta(job, vpn);
    }
  }
  job.pending_dirty.clear();
  if (job.masses_stale) {
    for (Region& region : job.regions) {
      DeriveMasses(region, job.threads, nodes_);
    }
    ++job.mass_generation;
    job.masses_stale = false;
  }
  ++job.refresh_count;
  if (verify_period_ > 0 && job.refresh_count % verify_period_ == 0) {
    XNUMA_CHECK(Verify(job));
  }
}

bool PlacementTracker::Verify(const Job& job) const {
  // A rescan into a copy: its page cache and counts must equal the kept
  // ones, and its derived masses exactly what the kept counts produced.
  return std::all_of(job.regions.begin(), job.regions.end(), [&](const Region& region) {
    Region fresh = region;
    Rescan(job, fresh);
    DeriveMasses(fresh, job.threads, nodes_);
    return fresh == region;
  });
}

bool PlacementTracker::RefreshAndVerifyAll() {
  DrainEvents();
  bool ok = true;
  for (size_t j = 0; j < jobs_.size(); ++j) {
    if (!jobs_[j].finished) {
      Refresh(static_cast<int>(j));
      ok = ok && Verify(jobs_[j]);
    }
  }
  return ok;
}

}  // namespace xnuma
