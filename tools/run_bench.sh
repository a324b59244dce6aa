#!/usr/bin/env bash
# Builds and runs the engine epoch-loop microbenchmark, recording the JSON
# result (epochs/sec of the incremental placement cache, without and with
# observability) into BENCH_engine.json at the repo root, plus a metrics
# snapshot from a representative CLI run into BENCH_metrics.json.
#
# Usage: tools/run_bench.sh [build-dir]   (default: ./build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j --target micro_engine_epoch extra_churn extra_replication xnuma >/dev/null

"$BUILD/bench/micro_engine_epoch" | tee "$ROOT/BENCH_engine.json"

# Multi-tenant admission soak (docs/MODEL.md §17): splice the churn object
# into BENCH_engine.json so one file carries the whole perf record.
CHURN_JSON="$(mktemp)"
REPL_JSON="$(mktemp)"
trap 'rm -f "$CHURN_JSON" "$REPL_JSON"' EXIT
"$BUILD/bench/extra_churn" | tee "$CHURN_JSON"
{ head -n -1 "$ROOT/BENCH_engine.json"
  printf '  ,"churn": '
  cat "$CHURN_JSON"
  printf '}\n'
} > "$ROOT/BENCH_engine.json.tmp"
mv "$ROOT/BENCH_engine.json.tmp" "$ROOT/BENCH_engine.json"

# Walk-locality ladder (docs/MODEL.md §18): per-node P2M replication
# versus the best static placement, spliced into the same record. The
# ratios are deterministic, so the extra_replication_ladder ctest pins them
# exactly.
"$BUILD/bench/extra_replication" --json | tee "$REPL_JSON"
{ head -n -1 "$ROOT/BENCH_engine.json"
  printf '  ,"replication": '
  cat "$REPL_JSON"
  printf '}\n'
} > "$ROOT/BENCH_engine.json.tmp"
mv "$ROOT/BENCH_engine.json.tmp" "$ROOT/BENCH_engine.json"

# Archive a metrics snapshot next to the bench result so a perf regression
# can be cross-read against what the machine was actually doing.
"$BUILD/tools/xnuma" run --app cg.C --stack xen+ --policy first-touch --carrefour \
  --seconds 10 --metrics-json "$ROOT/BENCH_metrics.json" >/dev/null

# Full observability (metrics registry + event tracer) attached must cost
# < 3% epochs/sec (mean over configs): instrument handles are plain pointer
# increments and spans only read the clock when attached.
awk -F': ' '/"obs_mean_overhead_pct"/ {
  gsub(/[,}]/, "", $2); overhead = $2 + 0
  if (overhead >= 3.0) {
    printf "FAIL: observability costs %.2f%% epochs/sec (budget: 3%%)\n", overhead
    exit 1
  }
  printf "OK: observability costs %.2f%% epochs/sec (budget: 3%%)\n", overhead
  found = 1
}
END { if (!found) { print "FAIL: obs_mean_overhead_pct missing from bench output"; exit 1 } }
' "$ROOT/BENCH_engine.json"

# Perf ratchet: every config's incremental epochs/sec must stay within 10%
# of the best rate this machine has archived (tools/bench_ratchet.json).
# When an optimization lands, re-run the bench and raise the ratchet in the
# same commit — the floor only moves up.
awk -F'"' '
FNR == NR {
  if ($2 ~ /_per_job$/) { v = $3; gsub(/[:, ]/, "", v); base[$2] = v + 0 }
  next
}
$2 == "name" { name = $4 }
$2 == "incremental_epochs_per_s" && (name in base) {
  v = $3; gsub(/[:, ]/, "", v); rate = v + 0
  floor = base[name] * 0.9
  if (rate < floor) {
    printf "FAIL: %s at %.2f incremental epochs/s regressed >10%% below ratchet %.2f\n", \
           name, rate, base[name]
    bad = 1
  } else {
    printf "OK: %s at %.2f incremental epochs/s (ratchet %.2f, floor %.2f)\n", \
           name, rate, base[name], floor
  }
  checked++
  delete base[name]
}
END {
  if (bad) { exit 1 }
  if (checked < 3) { print "FAIL: ratchet check matched fewer configs than expected"; exit 1 }
}
' "$ROOT/tools/bench_ratchet.json" "$ROOT/BENCH_engine.json"

# Admission solver latency under churn (docs/MODEL.md §17): the 20k-event
# AMD48 soak's p99 solve latency is a *ceiling* ratchet — the archived best
# in tools/bench_ratchet.json only moves down. Wall-clock percentiles are
# noisy across machines, so the gate is 3x the archived best (versus the
# 10% band of the epochs/s ratchet) plus an absolute 1 ms bound; tighten
# the archive when the solver gets faster.
awk -F': ' '
FNR == NR {
  if ($1 ~ /"churn_solver_p99_us"/) { gsub(/[,} ]/, "", $2); base = $2 + 0 }
  next
}
/"churn_solver_p99_us"/ { gsub(/[,}]/, "", $2); p99 = $2 + 0; found = 1 }
END {
  if (!found) { print "FAIL: churn_solver_p99_us missing from bench output"; exit 1 }
  if (!base)  { print "FAIL: churn_solver_p99_us missing from tools/bench_ratchet.json"; exit 1 }
  ceiling = base * 3.0
  if (p99 > ceiling || p99 > 1000.0) {
    printf "FAIL: churn solver p99 %.2fus exceeds ceiling %.2fus (ratchet %.2fus x3, abs 1000us)\n", \
           p99, ceiling, base
    exit 1
  }
  printf "OK: churn solver p99 %.2fus (ratchet %.2fus, ceiling %.2fus)\n", p99, base, ceiling
}
' "$ROOT/tools/bench_ratchet.json" "$ROOT/BENCH_engine.json"

# Parallel experiment matrix (threads): results at --jobs 4 must be
# bit-identical to the serial loop (always), and >= 2x the serial baseline
# on hosts with at least 4 cores. On smaller hosts the speedup is recorded
# but not gated — there is nothing to parallelize onto.
awk -F': ' '
/"host_cores"/        { gsub(/[,}]/, "", $2); cores = $2 + 0 }
/"speedup_jobs4"/     { gsub(/[,}]/, "", $2); jobs_speedup = $2 + 0; have_jobs = 1 }
/"results_identical"/ { gsub(/[,} ]/, "", $2); jobs_identical = $2 }
END {
  if (!have_jobs) { print "FAIL: parallel_matrix missing from bench output"; exit 1 }
  if (jobs_identical != "true") {
    print "FAIL: parallel matrix results differ between --jobs 1 and --jobs 4"
    exit 1
  }
  if (cores >= 4) {
    if (jobs_speedup < 2.0) {
      printf "FAIL: parallel matrix speedup %.2fx at --jobs 4 (gate: >= 2x on %d cores)\n", jobs_speedup, cores
      exit 1
    }
    printf "OK: parallel matrix speedup %.2fx at --jobs 4 (gate: >= 2x on %d cores)\n", jobs_speedup, cores
  } else {
    printf "OK: parallel matrix identical; speedup %.2fx recorded ungated (%d cores < 4)\n", jobs_speedup, cores
  }
}
' "$ROOT/BENCH_engine.json"
