// Where each job's simulated pages live, kept incrementally (docs/MODEL.md
// §9): a per-page placement cache and per-region integer page counts and
// derived masses. A refresh re-reads only the pages the guests' and
// backends' dirty sets named, or every page after an overflow.

#ifndef XENNUMA_SRC_SIM_PLACEMENT_TRACKER_H_
#define XENNUMA_SRC_SIM_PLACEMENT_TRACKER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/workload/app_profile.h"

namespace xnuma {

// Simulated pages the engine lays out for a whole application, given the
// machine's frame size and the engine's fallback region minimum.
int64_t AppSimPages(const AppProfile& app, int64_t bytes_per_frame, int64_t fallback_min_pages);

// Cached placement of one simulated page. The epoch loop updates entries only
// for pages named in the drained dirty sets.
struct PagePlacement {
  Pfn pfn = kInvalidPfn;       // guest physical page backing the vpage
  NodeId node = kInvalidNode;  // node backing the pfn (unreplicated pages)
  bool mapped = false;         // P2M entry valid
  bool replicated = false;     // served locally on every node (§3.4)

  bool operator==(const PagePlacement&) const = default;
};

class PlacementTracker {
 public:
  // Placement mass of one region: per-node and per-slice-per-node weighted
  // page counts. Kept as exact integer page counts (every page of a region
  // weighs either w_hot or w_cold), so incremental add/subtract updates are
  // order-independent and bit-identical to a from-scratch rescan; the double
  // masses the solver consumes are derived from the counts on demand.
  struct Region {
    const RegionSpec* spec = nullptr;
    Vpn first_vpn = 0;
    int64_t pages = 0;
    int64_t hot_count = 0;
    int64_t hot_stride = 1;
    double w_hot = 0.0;
    double w_cold = 0.0;

    std::vector<double> node_mass;                // [nodes]
    double total_mass = 0.0;
    // Weight of replicated pages (optional §3.4 extension): served locally on
    // every node, so they contribute pure local accesses for every thread.
    double replicated_mass = 0.0;
    std::vector<std::vector<double>> slice_mass;  // [threads][nodes]
    std::vector<double> slice_total;              // [threads]

    // Integer page-count aggregates behind the derived masses above, each
    // split into cold [0] and hot [1] pages.
    struct Counts {
      std::array<std::vector<int64_t>, 2> by_node;                   // [nodes]
      std::array<std::vector<std::vector<int64_t>>, 2> slice_node;  // [threads][nodes]
      std::array<std::vector<int64_t>, 2> by_slice;                  // [threads]
      std::array<int64_t, 2> total = {};
      std::array<int64_t, 2> replicated = {};

      bool operator==(const Counts&) const = default;

      void Init(int threads, int nodes) {
        for (const int hot : {0, 1}) {
          by_node[hot].assign(nodes, 0);
          slice_node[hot].assign(threads, std::vector<int64_t>(nodes, 0));
          by_slice[hot].assign(threads, 0);
        }
        total = replicated = {};
      }

      void Apply(const PagePlacement& page, bool hot, int64_t slice, int64_t sign) {
        if (!page.mapped) {
          return;
        }
        if (page.replicated) {
          replicated[hot] += sign;
          return;
        }
        by_node[hot][page.node] += sign;
        total[hot] += sign;
        slice_node[hot][slice][page.node] += sign;
        by_slice[hot][slice] += sign;
      }
    };
    Counts counts;
    std::vector<PagePlacement> page_cache;  // [pages]

    bool operator==(const Region&) const = default;

    bool IsHot(int64_t idx) const {
      return idx % hot_stride == 0 && idx / hot_stride < hot_count;
    }
    int64_t SliceOf(int64_t idx, int threads) const {
      const int64_t len = std::max<int64_t>(1, pages / threads);
      return std::min<int64_t>(idx / len, threads - 1);
    }
    int64_t SliceBegin(int64_t t, int threads) const {
      const int64_t len = std::max<int64_t>(1, pages / threads);
      return std::min(t * len, pages);
    }
    int64_t SliceEnd(int64_t t, int threads) const {
      return t == threads - 1 ? pages : SliceBegin(t + 1, threads);
    }
  };

  // With XNUMA_VERIFY_PLACEMENT_CACHE's period N > 0, every Nth refresh of
  // a job cross-checks it against a rescan.
  PlacementTracker(Hypervisor& hv, Observability* obs, int verify_period);

  // Lays `app`'s regions out in a new process of `guest` and tracks them.
  // Jobs are numbered in the order they are added. Returns the pid.
  int AddJob(const AppProfile& app, GuestOs* guest, DomainId domain, int threads,
             int64_t min_region_pages);
  // A finished job queues no more events and is never refreshed again.
  void Finish(int job) { jobs_[job].finished = true; }

  // Queues the pages the guests' and backends' dirty sets name.
  void DrainEvents();
  // Brings the job's page cache, counts and masses up to date.
  void Refresh(int job);
  // Drains, refreshes and cross-checks every unfinished job; true if all match.
  bool RefreshAndVerifyAll();

  const std::vector<Region>& regions(int job) const { return jobs_[job].regions; }
  // Bumped whenever the job's derived masses are rewritten.
  uint64_t mass_generation(int job) const { return jobs_[job].mass_generation; }
  int64_t refreshes(int job) const { return jobs_[job].refresh_count; }

 private:
  struct Job {
    GuestOs* guest = nullptr;
    int pid = -1;
    DomainId domain = kInvalidDomain;
    int threads = 0;
    std::vector<Region> regions;
    bool finished = false;
    // Vpns drained from the guest/backend dirty sets, awaiting re-read.
    std::vector<Vpn> pending_dirty;
    // First refresh, or a dirty-set overflow: rescan every region page.
    bool needs_full_rescan = true;
    // Counts changed since the double masses were last derived from them.
    bool masses_stale = true;
    uint64_t mass_generation = 0;
    int64_t refresh_count = 0;
  };

  PagePlacement ReadPage(const Job& job, Vpn vpn) const;
  // Reads every page of `region` afresh into its page cache and counts.
  void Rescan(const Job& job, Region& region) const;
  void ApplyPageDelta(Job& job, Vpn vpn);
  // Queues vpn of (guest, pid)'s job for the next refresh.
  void QueueDirty(const GuestOs* guest, int pid, Vpn vpn);
  // Cross-checks the job's cache, counts and masses against a rescan.
  bool Verify(const Job& job) const;

  Hypervisor* hv_;
  int nodes_;
  int verify_period_;
  std::vector<Job> jobs_;
  // The distinct guests of each domain: each dirty set is drained once.
  std::map<DomainId, std::vector<GuestOs*>> guests_by_domain_;
  std::vector<GuestOs::VpageEvent> vpage_event_scratch_;
  std::vector<Pfn> pfn_event_scratch_;
  Counter* full_rescans_ = nullptr;
  Counter* dirty_events_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_PLACEMENT_TRACKER_H_
