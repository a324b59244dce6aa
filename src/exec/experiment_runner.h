// ParallelRunner: fans a matrix of independent experiment runs
// (app x stack x policy x seed) across worker threads.
//
// Each RunSpec is executed with RunSingleApp, which assembles a complete
// private machine — topology, hypervisor, frame allocator, guests, engine,
// seeded Rng — for that run alone, so runs share nothing
// mutable (docs/MODEL.md §12). Outcomes are committed into a slot array
// pre-sized to the spec list: outcome[i] always corresponds to specs[i],
// and both ordering and content are bit-identical to the serial loop for
// every jobs value.
//
// Failures do not tear down the matrix: a spec that is invalid, or whose
// run throws, yields an outcome with ok == false and the error text, and
// every other spec still runs. (XNUMA_CHECK violations abort the process,
// as everywhere else — the runner only converts *exceptions*.)

#ifndef XENNUMA_SRC_EXEC_EXPERIMENT_RUNNER_H_
#define XENNUMA_SRC_EXEC_EXPERIMENT_RUNNER_H_

#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/exec/parallel_for.h"
#include "src/obs/obs.h"
#include "src/workload/app_profile.h"

namespace xnuma {

// One cell of the evaluation matrix. `options.trace` and `options.obs`
// must be null: those attach per-machine state, and sharing one recorder
// or registry across concurrent runs would violate the isolation contract
// (such a spec fails with an error outcome instead of running).
struct RunSpec {
  std::string label;  // free-form; copied into the outcome
  AppProfile app;
  StackConfig stack;
  RunOptions options;
};

struct RunOutcome {
  std::string label;
  bool ok = false;
  std::string error;  // set when !ok; empty otherwise
  JobResult result;   // valid when ok
};

// The function a runner executes per spec. Null means RunSingleApp; tests
// substitute hostile bodies (throwing non-std values, etc.) to pin the
// degrade-to-outcome contract without building hostile machines.
using RunSpecFn = JobResult (*)(const AppProfile&, const StackConfig&, const RunOptions&);

class ParallelRunner {
 public:
  struct Options {
    // Worker threads; 1 (the default) reproduces the serial loop exactly,
    // on the calling thread.
    int jobs = 1;
    // Runner-level observability (exec.* metrics). Only ever touched from
    // the calling thread, never from workers.
    Observability* obs = nullptr;
    // Test seam: body executed per spec (null = RunSingleApp).
    RunSpecFn run = nullptr;
  };

  ParallelRunner() = default;
  explicit ParallelRunner(Options options) : options_(options) {}

  // Runs every spec; outcome[i] belongs to specs[i] for any jobs value.
  std::vector<RunOutcome> RunAll(const std::vector<RunSpec>& specs) const;

  int jobs() const { return options_.jobs; }

 private:
  Options options_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_EXEC_EXPERIMENT_RUNNER_H_
