// The hypervisor page table (P2M): maps the physical pages of a virtual
// machine to machine pages (§2.1). In other hypervisors this is the EPT/NPT
// second-stage table; Xen calls the levels "physical" and "machine" and so
// do we.
//
// An *invalid* entry makes any guest access trap into the hypervisor — the
// mechanism behind the first-touch policy (§4.2). A *write-protected* entry
// traps stores only — the mechanism behind safe page migration (§4.1).
//
// Representation (docs/MODEL.md §13): one flat array with one 8-byte entry
// per page, (mfn << 2) | (writable << 1) | valid, 0 == invalid, plus one
// generation counter per 512-page chunk that every mutation of the chunk
// bumps. Per-node replicas (§18) stamp those generations. Range operations
// (MapRange/UnmapRange/...) and the run lookup (LookupRun) work on whole
// spans of entries.

#ifndef XENNUMA_SRC_HV_P2M_H_
#define XENNUMA_SRC_HV_P2M_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/obs/obs.h"

namespace xnuma {

class P2mTable {
 public:
  // A maximal run of pages sharing one validity/writability state. For a
  // valid run, page `first + i` maps to `mfn + i`; for an invalid run, the
  // whole run is unmapped and `mfn` is kInvalidMfn. Runs never cross a
  // 512-page chunk boundary. Callers iterate:
  //   for (Pfn p = lo; p < hi; p += run.count) { run = LookupRun(p); ... }
  struct Run {
    Pfn first = kInvalidPfn;
    int64_t count = 0;
    Mfn mfn = kInvalidMfn;  // machine frame backing `first` when valid
    bool valid = false;
    bool writable = false;
  };

  explicit P2mTable(int64_t num_pages);

  int64_t num_pages() const { return static_cast<int64_t>(entries_.size()); }

  bool IsValid(Pfn pfn) const { return (EntryAt(pfn) & 1) != 0; }
  bool IsWritable(Pfn pfn) const { return (EntryAt(pfn) & 3) == 3; }
  Mfn Lookup(Pfn pfn) const {
    const uint64_t e = EntryAt(pfn);
    return (e & 1) != 0 ? static_cast<Mfn>(e >> 2) : kInvalidMfn;
  }

  // Resolves the maximal run containing `pfn` (see Run), for callers that
  // walk runs; a caller that needs one page's state reads its entry
  // (IsValid/Lookup). `vcpu` names the walking vCPU: the lookup re-stamps
  // its node's replica (RestampReplica). The returned run is a snapshot:
  // any mutation of its chunk invalidates it.
  Run LookupRun(Pfn pfn, int32_t vcpu = 0) const;

  // The replica side of a walk resolving `pfn`: under replication, a walk
  // from a node other than the home node re-copies the page's chunk into
  // that node's replica. `vcpu` names the walking vCPU (ids fold modulo the
  // vCPU count given to EnableReplication; negative ids fold to 0). A point
  // reader standing in for a walk (a first-touch trap, a hot-page sample)
  // calls it next to its entry read. No-op while replication is off.
  void RestampReplica(Pfn pfn, int32_t vcpu = 0) const;

  // Number of invalid entries in [pfn, pfn+count).
  int64_t CountInvalid(Pfn pfn, int64_t count) const;

  // Installs a mapping; the entry must currently be invalid.
  void Map(Pfn pfn, Mfn mfn);

  // Maps `count` pages [pfn, pfn+count) to the contiguous machine frames
  // [mfn, mfn+count); every entry must currently be invalid. Equivalent to
  // count Map() calls.
  void MapRange(Pfn pfn, int64_t count, Mfn mfn);

  // Maps the invalid entries from `pfn` on, in ascending order, to the
  // frames of `mfns`, one each, skipping valid entries; that many must
  // exist. Returns the pfn after the last one mapped (`pfn` when `mfns` is
  // empty). Equivalent to one Map() per frame, but bumps each touched
  // chunk's generation once.
  Pfn MapInvalid(Pfn pfn, std::span<const Mfn> mfns);

  // Drops every valid mapping in [pfn, pfn+count), appending the frames
  // that backed them to *out in ascending pfn order (domain teardown).
  // Equivalent to Unmap() on each valid entry, but bumps each touched
  // chunk's generation once.
  void UnmapValid(Pfn pfn, int64_t count, std::vector<Mfn>* out);

  // Atomically replaces the target of a valid entry (migration commit).
  void Remap(Pfn pfn, Mfn new_mfn);

  // Metric handles (p2m.remaps, p2m.repl.{replicas,invalidations,
  // local_walks,remote_walks}). The hypervisor registers them once per
  // observability context and copies them into every table;
  // default-constructed: detached. set_metrics moves this table's live
  // replicas from the old replica gauge to the new one.
  struct Metrics {
    Metrics() = default;
    explicit Metrics(Observability* obs);
    Counter* remaps = nullptr;
    Gauge* replicas = nullptr;
    Counter* invalidations = nullptr;
    Counter* local_walks = nullptr;
    Counter* remote_walks = nullptr;
  };
  void set_metrics(const Metrics& metrics);

  // Drops a valid mapping; returns the machine frame that backed it.
  Mfn Unmap(Pfn pfn);

  // Drops `count` valid mappings [pfn, pfn+count); every entry must
  // currently be valid. Does not return the backing frames — rollback
  // callers know the base from the matching MapRange.
  void UnmapRange(Pfn pfn, int64_t count);

  void WriteProtect(Pfn pfn);
  void WriteUnprotect(Pfn pfn);

  // Range forms of the protection flips; every entry must be valid.
  void WriteProtectRange(Pfn pfn, int64_t count);
  void WriteUnprotectRange(Pfn pfn, int64_t count);

  int64_t valid_count() const { return valid_count_; }

  // ---- Per-node replication (docs/MODEL.md §18) ------------------------
  //
  // Mitosis-style replication of the translation structure itself: each
  // node may hold a lazily instantiated replica of the table, so a vCPU
  // walking from its own node walks locally. A replica is a per-chunk
  // array of generation stamps — stamp == the chunk's current generation
  // means the replica holds a current copy of that chunk's translations.
  // Every master mutator invalidates the touched chunks' copies on every
  // replica (write-fault-driven copy invalidation); every walk from a node
  // re-copies the chunk it resolved. With replication disabled every query
  // below degenerates to the single-home answer.

  // Declares which node holds the master table. Called at domain creation
  // regardless of replication so ReplicaCoverage() prices walks correctly
  // even for unreplicated domains. Default: node 0.
  void SetHomeNode(int node) { home_node_ = node; }
  int home_node() const { return home_node_; }

  // Turns replication on for a machine with `num_nodes` nodes and a domain
  // with `num_vcpus` vCPUs, all walking from the home node until
  // SetVcpuNode moves them. Replicas are not allocated here —
  // SetVcpuNode/FillReplica instantiate a node's replica the first time a
  // vCPU actually walks from it.
  void EnableReplication(int num_nodes, int home_node, int num_vcpus);
  // Drops every replica and all replication state (domain teardown).
  void DisableReplication();
  bool replication_enabled() const { return repl_enabled_; }

  // Records that `vcpu` (folded as in LookupRun) now walks from `node`,
  // instantiating the node's replica if it does not exist yet. No-op while
  // replication is off.
  void SetVcpuNode(int32_t vcpu, int node);

  // Copies the whole master table into `node`'s replica (instantiating it
  // if needed): every chunk stamp becomes current. Models the walk-driven
  // fill converging; the engine calls it once a thread has walked from a
  // node for a full epoch. No-op for the home node or when replication is
  // off.
  void FillReplica(int node);

  // Invalidates `node`'s replica wholesale. Safe against concurrent walks
  // from that node (docs/MODEL.md §18).
  void InvalidateReplicas(int node);

  // Fraction of the translation structure a walk from `node` finds
  // locally: 1.0 on the home node, 0.0 when the node holds no replica,
  // else the share of chunk copies that are current.
  double ReplicaCoverage(int node) const;

  // Accounts `local` always-local and `remote` cross-node page-walks
  // (engine epoch accounting; feeds p2m.repl.{local,remote}_walks).
  void NoteWalks(int64_t local, int64_t remote);

  // Live replicas (home node excluded — the master is not a replica).
  int64_t replica_count() const;
  // Replica copy invalidations: per-chunk copies dropped by a master
  // mutation, and wholesale InvalidateReplicas.
  int64_t replica_invalidations() const { return repl_invalidations_; }
  int64_t local_walks() const { return repl_local_walks_; }
  int64_t remote_walks() const { return repl_remote_walks_; }

  // Recounts the valid entries and each replica's current chunk stamps and
  // XNUMA_CHECKs them against the incrementally maintained counters.
  // O(table); tests call it.
  void AuditCounters() const;

  static constexpr int kChunkShift = 9;
  static constexpr int64_t kChunkPages = int64_t{1} << kChunkShift;

 private:
  // Per-node copy of the translation structure. `stamps[ci]` equal to
  // chunk ci's current generation means this node holds a current copy of
  // that chunk (kStampEmpty = never copied / invalidated). The counters are
  // atomic because walks re-stamp their node's replica from a const lookup
  // while InvalidateReplicas may run concurrently (the repl-tsan race
  // test); the engine itself is single-threaded per table.
  struct Replica {
    explicit Replica(int64_t num_chunks) : stamps(num_chunks) {}
    std::vector<std::atomic<uint32_t>> stamps;
    std::atomic<int64_t> valid_chunks{0};
  };
  static constexpr uint32_t kStampEmpty = 0xFFFFFFFFu;

  static uint64_t PackEntry(Mfn mfn, bool writable) {
    return (static_cast<uint64_t>(mfn) << 2) | (writable ? 2u : 0u) | 1u;
  }

  void CheckRange(Pfn pfn, int64_t count) const;
  uint64_t EntryAt(Pfn pfn) const {
    CheckRange(pfn, 1);
    return entries_[pfn];
  }
  // Makes every entry in [pfn, pfn+count) writable or read-only; each must
  // be valid.
  void SetWritable(Pfn pfn, int64_t count, bool writable);
  // Bumps the generation of every chunk [pfn, pfn+count) overlaps and drops
  // those chunks' copies from every replica holding a current one.
  void TouchChunks(Pfn pfn, int64_t count);
  void TouchChunk(int64_t ci);
  int64_t num_chunks() const { return static_cast<int64_t>(gens_.size()); }
  // Folds a vCPU id onto vcpu_nodes_ (see LookupRun).
  int VcpuSlot(int32_t vcpu) const {
    return vcpu >= 0 ? static_cast<int>(vcpu % static_cast<int32_t>(vcpu_nodes_.size())) : 0;
  }
  // Instantiates `node`'s replica (stamps all-empty) if absent.
  Replica& EnsureReplica(int node);
  // Adds `delta` live replicas to the machine-wide p2m.repl.replicas gauge.
  void AddToReplicaGauge(int64_t delta);

  std::vector<uint64_t> entries_;
  std::vector<uint32_t> gens_;  // one per chunk
  int64_t valid_count_ = 0;

  // Replication state (all inert while repl_enabled_ is false). replicas_
  // is mutable because a const walk re-stamps the walking node's replica.
  bool repl_enabled_ = false;
  int home_node_ = 0;
  int repl_nodes_ = 0;
  mutable std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<int> vcpu_nodes_;
  int64_t repl_invalidations_ = 0;
  int64_t repl_local_walks_ = 0;
  int64_t repl_remote_walks_ = 0;

  Metrics metrics_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_P2M_H_
