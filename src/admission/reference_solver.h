// Brute-force reference admission solver: the specification the fast
// solver is differentially tested against (tests/admission_differential_
// test.cc, docs/MODEL.md §17).
//
// It shares nothing with the fast path except ScoreCandidate (the scoring
// contract itself): node availability comes from per-frame recounts
// (RecountNodeSpace, not the extent cursor), and every one of the 2^n - 1
// node subsets is enumerated and compared — no minimal-cardinality
// shortcut, no bound. The score's lexicographic order makes the two
// searches provably land on the same answer; the differential battery
// checks it empirically across random machine states.

#ifndef XENNUMA_SRC_ADMISSION_REFERENCE_SOLVER_H_
#define XENNUMA_SRC_ADMISSION_REFERENCE_SOLVER_H_

#include <vector>

#include "src/admission/solver.h"

namespace xnuma {

// O(2^n * frames) — test-only. Aborts on machines wider than 16 nodes.
AdmissionResult ReferenceSolve(const Topology& topo, const FrameAllocator& frames,
                               const AdmissionRequest& request,
                               const std::vector<int>& free_cpus_per_node);

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_REFERENCE_SOLVER_H_
