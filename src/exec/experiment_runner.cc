#include "src/exec/experiment_runner.h"

#include <exception>

namespace xnuma {

namespace {

// Non-empty = human-readable reason the spec must not run (bad thread
// count, empty app, shared per-run state attached — the isolation contract
// of docs/MODEL.md §12).
std::string ValidateRunSpec(const RunSpec& spec) {
  if (spec.options.threads < 1 || spec.options.threads > 48) {
    return "threads must be in [1, 48] (AMD48 testbed), got " +
           std::to_string(spec.options.threads);
  }
  if (spec.app.regions.empty()) {
    return "app '" + spec.app.name + "' has no memory regions";
  }
  if (spec.options.trace != nullptr) {
    return "spec attaches a shared TraceRecorder; per-run state must be "
           "constructed inside the run (isolation contract, MODEL.md §12)";
  }
  if (spec.options.obs != nullptr) {
    return "spec attaches a shared Observability; per-run state must be "
           "constructed inside the run (isolation contract, MODEL.md §12)";
  }
  return "";
}

// Executes one spec via `run` (null = RunSingleApp). Never throws: an
// invalid spec, or a run that throws *anything*, becomes an ok == false
// outcome with the error text. Catching (...) is what keeps a cell that
// throws a non-std::exception value from escaping into ParallelFor, whose
// lowest-index rethrow would discard every other drained outcome
// (tests/parallel_runner_test.cc pins this).
RunOutcome ExecuteSpec(const RunSpec& spec, RunSpecFn run) {
  RunOutcome out;
  out.label = spec.label;
  out.error = ValidateRunSpec(spec);
  if (!out.error.empty()) {
    return out;
  }
  try {
    out.result = run != nullptr ? run(spec.app, spec.stack, spec.options)
                                : RunSingleApp(spec.app, spec.stack, spec.options);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "run threw a non-std::exception value";
  }
  return out;
}

}  // namespace

std::vector<RunOutcome> ParallelRunner::RunAll(const std::vector<RunSpec>& specs) const {
  std::vector<RunOutcome> outcomes(specs.size());

  ParallelForOptions pf;
  pf.jobs = options_.jobs;
  pf.obs = options_.obs;
  // ExecuteSpec validates and catches *everything* (including non-std
  // throws), so no body ever reaches ParallelFor's lowest-index rethrow —
  // one poisoned cell can never discard the rest of the drained matrix.
  ParallelFor(static_cast<int>(specs.size()),
              [&](int i) {
                outcomes[static_cast<size_t>(i)] =
                    ExecuteSpec(specs[static_cast<size_t>(i)], options_.run);
              },
              pf);

  // exec.runs_failed also counts invalid/thrown specs that ParallelFor's
  // own tally cannot see (their bodies return normally). Committed after
  // the join, single-threaded, like every other registry touch.
  if (options_.obs != nullptr) {
    int64_t failed = 0;
    for (const RunOutcome& out : outcomes) {
      if (!out.ok) {
        ++failed;
      }
    }
    if (failed > 0) {
      options_.obs->metrics()
          .RegisterCounter("exec.runs_failed", "runs",
                           "Matrix runs that failed (body threw or spec rejected)")
          ->Increment(failed);
    }
  }
  return outcomes;
}

}  // namespace xnuma
