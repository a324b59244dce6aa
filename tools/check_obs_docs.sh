#!/usr/bin/env bash
# Doc-lint for the observability layer, in both directions:
#  * every metric name registered in the source tree must be documented in
#    docs/OBSERVABILITY.md;
#  * every name in the first column of that file's tables (metrics, spans,
#    counter tracks) must still exist in the source: registered as a metric,
#    or emitted by `XNUMA_TRACE_SCOPE(obs, "name", ...)` or
#    `EmitCounter("name", ...)`.
#
# Registration and emission sites are required to pass the name as a string
# literal (`RegisterCounter("pv.queue.pushes", ...)`), which is what makes
# this lint — and grep-ability in general — work. Runs as ctest
# `obs_doc_lint`.
#
# Usage: tools/check_obs_docs.sh [repo-root]   (default: script's parent)
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
DOC="$ROOT/docs/OBSERVABILITY.md"

if [[ ! -f "$DOC" ]]; then
  echo "FAIL: $DOC does not exist"
  exit 1
fi

# Registrations are often line-wrapped by clang-format
# (`RegisterCounter(\n    "name", ...`), so collapse the sources to one line
# before matching.
source_text=$(find "$ROOT/src" "$ROOT/bench" "$ROOT/tools" \
                \( -name '*.cc' -o -name '*.h' \) -print0 2>/dev/null |
              xargs -0 cat | tr '\n' ' ')

names=$(grep -oE 'Register(Counter|Gauge|Histogram)\( *"[^"]+"' <<< "$source_text" |
        sed -E 's/.*"([^"]+)"/\1/' | sort -u || true)
spans=$(grep -oE 'XNUMA_TRACE_SCOPE\([^,"]*, *"[^"]+"' <<< "$source_text" |
        sed -E 's/.*"([^"]+)"/\1/' | sort -u || true)
tracks=$(grep -oE 'EmitCounter\( *"[^"]+"' <<< "$source_text" |
         sed -E 's/.*"([^"]+)"/\1/' | sort -u || true)

if [[ -z "$names" || -z "$spans" || -z "$tracks" ]]; then
  echo "FAIL: found no metric registrations, spans or counter tracks under src/ (lint is miswired?)"
  exit 1
fi

missing=0
total=0
while IFS= read -r name; do
  total=$((total + 1))
  if ! grep -qF "\`$name\`" "$DOC"; then
    echo "FAIL: metric '$name' is registered in the source but not documented in docs/OBSERVABILITY.md"
    missing=$((missing + 1))
  fi
done <<< "$names"

# First-column names of the doc's tables: rows shaped "| `name` | ...".
documented=$(grep -oE '^\| `[^`]+` \|' "$DOC" | sed -E 's/^\| `([^`]+)` \|/\1/' | sort -u)
if [[ -z "$documented" ]]; then
  echo "FAIL: docs/OBSERVABILITY.md has no table rows (lint is miswired?)"
  exit 1
fi

stale=0
resolved=0
n_metrics=0
n_spans=0
n_tracks=0
while IFS= read -r name; do
  if grep -qxF "$name" <<< "$names"; then
    n_metrics=$((n_metrics + 1))
  elif grep -qxF "$name" <<< "$spans"; then
    n_spans=$((n_spans + 1))
  elif grep -qxF "$name" <<< "$tracks"; then
    n_tracks=$((n_tracks + 1))
  else
    echo "FAIL: docs/OBSERVABILITY.md documents '$name', which the source neither registers nor emits"
    stale=$((stale + 1))
    continue
  fi
  resolved=$((resolved + 1))
done <<< "$documented"

if [[ "$missing" -gt 0 || "$stale" -gt 0 ]]; then
  echo "FAIL: $missing of $total registered metric names undocumented; $stale documented names no longer in the source"
  exit 1
fi
echo "OK: all $total registered metric names documented in docs/OBSERVABILITY.md;" \
     "all $resolved documented names resolve ($n_metrics metrics, $n_spans spans, $n_tracks tracks)"
