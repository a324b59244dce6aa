// Shared helpers for the figure/table reproduction binaries.

#ifndef XENNUMA_BENCH_BENCH_UTIL_H_
#define XENNUMA_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/workload/app_profile.h"

namespace xnuma {

// Prints the standard header line for one reproduced experiment.
void PrintBanner(const std::string& id, const std::string& title);

// Apps in Table 1/2 order, optionally with runtimes scaled down so a whole
// 29-app figure regenerates in minutes. Scaling shrinks nominal_seconds and
// disk volume together, leaving all ratios intact.
std::vector<AppProfile> ScaledApps(double seconds_per_app);

// "+12.3%" / "-4.5%" improvement of `candidate` relative to `baseline`
// completion time (higher is better, as in Figures 2 and 7).
double ImprovementPct(double baseline_seconds, double candidate_seconds);

// Overhead of `candidate` relative to `baseline` in percent (lower is
// better, as in Figures 1, 6 and 10).
double OverheadPct(double baseline_seconds, double candidate_seconds);

// Default run options for bench binaries (bounded sim time).
RunOptions BenchOptions();

// Parses the shared bench command line — call first in every bench main().
// Flags: `--jobs N` fans each binary's independent-run matrix across N
// worker threads. Output is bit-identical for every value: bodies commit
// into per-index slots and all printing happens after the fan-out. N must
// be an integer in [1, kMaxParallelJobs]; any other value is refused with
// exit status 2 (ReadInt in src/common/flags.h).
void InitBench(int argc, char** argv);

// Worker threads selected by InitBench (1 when never called).
int BenchJobs();

// Runs body(i) for i in [0, count) across BenchJobs() workers on the
// deterministic src/exec runner. Each body must only construct private
// machines (RunSingleApp & friends) and write slots owned by index i.
void BenchFor(int count, const std::function<void(int)>& body);

}  // namespace xnuma

#endif  // XENNUMA_BENCH_BENCH_UTIL_H_
