// Deterministic parallel fan-out for independent experiment runs.
//
// The evaluation pipeline is a large matrix of *independent* runs
// (app x stack x policy x seed); each run assembles its own machine and
// never touches another run's state. ParallelFor executes such a matrix
// across a fixed set of worker threads while keeping the results
// bit-identical to the serial loop: every index writes only into its own
// pre-sized slot, so scheduling order cannot leak into output ordering or
// content. There is no work stealing — workers pull the next index from a
// single atomic cursor and otherwise share nothing.
//
// Isolation contract (docs/MODEL.md §12): the body invoked for index i may
// only read shared immutable inputs (app profiles, stack configs, candidate
// lists) and write state owned exclusively by index i. Anything stateful a
// run needs — topology, hypervisor, guests, engine, Rng, Observability —
// must be constructed inside the body.

#ifndef XENNUMA_SRC_EXEC_PARALLEL_FOR_H_
#define XENNUMA_SRC_EXEC_PARALLEL_FOR_H_

#include <functional>

namespace xnuma {

inline constexpr int kMaxParallelJobs = 256;

// Executes body(i) for every i in [0, count), fanned across `jobs` worker
// threads. jobs <= 1 executes inline on the calling thread (the exact
// serial loop, no thread is spawned); jobs is clamped to kMaxParallelJobs
// and to count. All indices execute even if some throw; the exception for
// the lowest failing index is rethrown after every worker has drained
// (deterministic regardless of scheduling).
void ParallelFor(int count, const std::function<void(int)>& body, int jobs);

}  // namespace xnuma

#endif  // XENNUMA_SRC_EXEC_PARALLEL_FOR_H_
