#!/usr/bin/env bash
# Doc-lint for the vNUMA interface spec (docs/VNUMA.md), in both
# directions:
#  * every piece of the interface that exists in code — hypercall surface
#    names, VnumaInfo / VnumaMemrange table fields, kVnuma* constants, the
#    CLI modes, and every vnuma metric — must be documented in the spec;
#  * every kVnuma* constant, *VnumaInfo function and Hypercall*Vnuma* call
#    the spec names must still be declared in a src/ header.
# Runs as ctest `vnuma_doc_lint` (label `vnuma`); style of
# tools/check_obs_docs.sh.
#
# Usage: tools/check_vnuma_docs.sh [repo-root]   (default: script's parent)
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
DOC="$ROOT/docs/VNUMA.md"

if [[ ! -f "$DOC" ]]; then
  echo "FAIL: $DOC does not exist"
  exit 1
fi

missing=0
total=0

# require <name> <where-it-came-from>: the exact token must appear
# somewhere in the spec (word-boundary match, so `generation` is not
# satisfied by `regeneration`).
require() {
  local name="$1" origin="$2"
  total=$((total + 1))
  if ! grep -qE -e "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|$)" "$DOC"; then
    echo "FAIL: '$name' ($origin) is not documented in docs/VNUMA.md"
    missing=$((missing + 1))
  fi
}

# ---- Hypercall surface: every Vnuma-named method, status, and config knob
# of the hypervisor header.
while IFS= read -r name; do
  require "$name" "src/hv/hypervisor.h"
done < <(grep -oE 'Hypercall[A-Za-z]*Vnuma[A-Za-z]*|kVnuma[A-Za-z]+|NoteVcpuMoved' \
           "$ROOT/src/hv/hypervisor.h" | sort -u)

# ---- Table layout: every field of the VnumaMemrange and VnumaInfo structs.
while IFS= read -r name; do
  require "$name" "src/hv/vnuma.h struct field"
done < <(awk '/^struct (VnumaMemrange|VnumaInfo) \{/,/^\};/' "$ROOT/src/hv/vnuma.h" |
         sed -E 's#//.*##' |
         grep -vE 'operator|struct' |
         grep -oE '[a-z_][a-z_0-9]*( = [^;]*)?;' |
         sed -E 's/( = [^;]*)?;//' | sort -u)

# ---- Constants.
while IFS= read -r name; do
  require "$name" "src/hv/vnuma.h constant"
done < <(grep -oE 'kVnuma[A-Za-z]+' "$ROOT/src/hv/vnuma.h" | sort -u)

# ---- CLI: the flag and each mode it parses.
if grep -q 'GetString("vnuma"' "$ROOT/tools/xnuma_cli.cc"; then
  require "--vnuma" "tools/xnuma_cli.cc flag"
  while IFS= read -r mode; do
    require "$mode" "CLI vnuma mode"
  done < <(grep -oE 'mode == "[a-z]+"' "$ROOT/tools/xnuma_cli.cc" |
           sed -E 's/mode == "([a-z]+)"/\1/' | sort -u)
fi

# ---- Metrics: every registered instrument with vnuma in its name.
# Registrations may be line-wrapped, so collapse files first.
while IFS= read -r name; do
  require "$name" "metric registration"
done < <(find "$ROOT/src" "$ROOT/bench" "$ROOT/tools" \
           \( -name '*.cc' -o -name '*.h' \) -print0 2>/dev/null |
         xargs -0 cat | tr '\n' ' ' |
         grep -oE 'Register(Counter|Gauge|Histogram)\( *"[^"]*vnuma[^"]*"' |
         sed -E 's/.*"([^"]+)"/\1/' | sort -u)

# ---- Stale names: a constant must still be defined (`kVnumaX =`, or an
# enumerator `kVnumaX,`) and a function still declared (`Name(`) in a
# src/ header.
headers=$(find "$ROOT/src" -name '*.h' -print0 | xargs -0 cat)
stale=0
named=0
while IFS= read -r name; do
  named=$((named + 1))
  case "$name" in
    kVnuma*) pattern="(^|[^A-Za-z0-9_])$name *(=|,)" ;;
    *) pattern="(^|[^A-Za-z0-9_])$name\\(" ;;
  esac
  if ! grep -qE -e "$pattern" <<< "$headers"; then
    echo "FAIL: docs/VNUMA.md names '$name', which src/ does not define"
    stale=$((stale + 1))
  fi
done < <(grep -oE 'kVnuma[A-Za-z]+|[A-Za-z]+VnumaInfo|Hypercall[A-Za-z]*Vnuma[A-Za-z]*' "$DOC" |
         sort -u)

if [[ "$total" -eq 0 || "$named" -eq 0 ]]; then
  echo "FAIL: found no vNUMA surface to check (lint is miswired?)"
  exit 1
fi
if [[ "$missing" -gt 0 || "$stale" -gt 0 ]]; then
  echo "FAIL: $missing of $total vNUMA interface names undocumented;" \
       "$stale of $named names in docs/VNUMA.md no longer defined in src/"
  exit 1
fi
echo "OK: all $total vNUMA interface names documented in docs/VNUMA.md;" \
     "all $named constants and calls it names are defined in src/"
