// Hypervisor-side implementation of the internal interface (§4.1).
//
// A NUMA policy never touches the guest page table: it maps the *physical*
// pages of the domain to machine pages of chosen NUMA nodes through the
// hypervisor page table (P2M), and migrates them with the write-protect /
// copy / remap sequence.

#ifndef XENNUMA_SRC_HV_HV_BACKEND_H_
#define XENNUMA_SRC_HV_HV_BACKEND_H_

#include <vector>

#include "src/common/types.h"
#include "src/hv/domain.h"
#include "src/mm/frame_allocator.h"
#include "src/obs/obs.h"
#include "src/policy/numa_policy.h"
#include "src/policy/placement_backend.h"

namespace xnuma {

class HvPlacementBackend : public PlacementBackend {
 public:
  HvPlacementBackend(Domain& domain, FrameAllocator& frames);

  int64_t num_pages() const override;
  const std::vector<NodeId>& home_nodes() const override;
  bool IsMapped(Pfn pfn) const override;
  NodeId NodeOf(Pfn pfn) const override;

  // A maximal run of identically-placed pages containing `pfn`: the pages
  // [first, first+count) are either all unmapped (mapped == false,
  // node == kInvalidNode) or all backed by machine frames of `node`. One
  // P2M run lookup plus one node resolution covers the whole run — callers
  // iterating a region visit each run once instead of each page.
  // `vcpu` names the walking vCPU, whose node's P2M replica the lookup
  // re-stamps (docs/MODEL.md §18).
  struct PlacementRun {
    Pfn first = kInvalidPfn;
    int64_t count = 0;
    NodeId node = kInvalidNode;
    bool mapped = false;
  };
  PlacementRun NodeOfRange(Pfn pfn, int32_t vcpu = 0) const;
  bool MapOnNode(Pfn pfn, NodeId node) override;
  bool MapRangeOnNode(Pfn first, int64_t count, NodeId node) override;
  // Next-fit sweeps per home node (FrameAllocator::AllocManyOnNode), one
  // P2M pass and one full-rescan signal.
  int64_t MapRoundRobin(Pfn first, int64_t count, int cursor, Pfn* next) override;
  bool Migrate(Pfn pfn, NodeId node) override;
  void Invalidate(Pfn pfn) override;
  // Domain teardown: drops every mapping and returns its frames to the
  // allocator in bulk, with one full-rescan signal. Equivalent to
  // Invalidate() on every mapped page once no page is replicated (the
  // caller collapses replicas first). `chunk` carries one P2M chunk's
  // frames at a time; its contents are replaced, and it allocates nothing
  // once its capacity reaches P2mTable::kChunkPages. Returns the pages
  // released.
  int64_t ReleaseAll(std::vector<Mfn>* chunk);
  bool guest_hints_active() const override { return domain_->vnuma_hints_active(); }

  // Runs policy.Initialize on this backend. Its eager placement sends one
  // full-rescan signal, at its first mapping, instead of a dirty pfn per
  // page: a consumer rescans a domain placed in bulk anyway. Maps made
  // later (first-touch faults, migrations) keep their per-page marks.
  void InitializePolicy(NumaPolicy& policy);

  // ---- Read-only replication (optional §3.4 extension). ----
  // Creates one machine copy of `pfn` on every home node other than the one
  // currently backing it; all-or-nothing (rolls back on memory exhaustion).
  // Fails when the page is unmapped or already replicated.
  bool Replicate(Pfn pfn);
  // Drops every replica of `pfn` (taken on the first write, which traps via
  // the write-protected entries). No-op for unreplicated pages.
  void CollapseReplicas(Pfn pfn);
  bool IsReplicated(Pfn pfn) const;

  // Migration activity since the last call; the simulator drains this each
  // epoch to charge copy bandwidth and stalls.
  struct MigrationWindow {
    int64_t migrations = 0;
    int64_t bytes = 0;
  };
  MigrationWindow DrainMigrationWindow();

  // ---- Incremental placement tracking (simulator hot path). ----
  // Monotonically increasing counter, bumped on every placement mutation
  // (map, migrate, invalidate, replicate, collapse). A consumer that cached
  // placement state can compare generations to detect staleness cheaply.
  uint64_t placement_generation() const { return placement_generation_; }

  // Appends every pfn whose placement changed since the last drain and
  // clears the set. Returns false when the tracker overflowed (a bulk
  // change such as an eager-policy re-initialization): the set is empty in
  // that case and the caller must rescan the whole address space.
  bool DrainDirtyPfns(std::vector<Pfn>* out);

  // Metric handles for every placement mutation (hv.backend.*) plus the
  // per-page migrate wall-clock histogram, and the context whose clock
  // times migrations. Registration looks each name up in the registry, so
  // the hypervisor registers once per context and copies the handles into
  // every backend. Default-constructed: detached.
  struct Metrics {
    Metrics() = default;
    explicit Metrics(Observability* obs);
    Observability* obs = nullptr;
    Counter* maps = nullptr;
    Counter* map_ranges = nullptr;
    Counter* migrations = nullptr;
    Counter* failed_migrations = nullptr;
    Counter* migrated_bytes = nullptr;
    Counter* replications = nullptr;
    Counter* collapses = nullptr;
    Counter* invalidations = nullptr;
    Counter* vnuma_drift = nullptr;
    Histogram* migrate_seconds = nullptr;
  };
  void set_metrics(const Metrics& metrics) { metrics_ = metrics; }

 private:
  void MarkDirty(Pfn pfn);
  void MarkAllDirty();
  int64_t DirtyLimit() const;

  Domain* domain_;
  FrameAllocator* frames_;
  MigrationWindow window_;

  uint64_t placement_generation_ = 0;
  std::vector<Pfn> dirty_pfns_;
  std::vector<uint8_t> dirty_flag_;  // [num_pages] dedup bitmap, sized on first use
  bool dirty_overflow_ = false;
  bool initializing_ = false;  // inside InitializePolicy

  Metrics metrics_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_HV_BACKEND_H_
