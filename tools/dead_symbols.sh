#!/bin/sh
# Usage: tools/dead_symbols.sh [BUILD_DIR]   (default: build-deadsym)
#
# Fails when a src/ library defines an out-of-line function that no
# shipped binary links: the semtag and semtag_serve CLIs, the benches,
# the tools and the examples. Tests do not count as callers, so library
# code that only tests reach shows up here and should be deleted (or its
# fixture moved into the test that needs it).
#
# The script configures BUILD_DIR with per-function sections and
# --gc-sections, so the linker drops every function no binary reaches,
# and -fno-inline, so a function the optimizer inlined everywhere is still
# emitted out of line and seen. It builds the libraries and the shipped
# binaries, then compares the global text (T) symbols of every
# src/*/lib*.a with the symbols defined in those binaries.
#
# A few test-only functions stay on purpose; ALLOWLIST names each one
# with its reason. An allowlisted name that no longer exists, or that a
# shipped binary now links, is a finding too, so the list cannot go stale.
# Header-only code is not covered: nm cannot tell an unused inline
# function from a used one.
#
# Exit status: 0 when nothing is dead, 1 with findings (one per line,
# demangled, with its library), 2 when the build fails.
set -eu

build="${1:-build-deadsym}"
root=$(cd "$(dirname "$0")/.." && pwd)

# Demangled name without its parameter list (and ABI tags), then the reason.
ALLOWLIST='
semtag::nn::RowSoftmax                 reference chain AutogradTest checks fused attention against
semtag::nn::ScalarMul                  reference chain AutogradTest checks fused attention against
semtag::nn::AddConst                   reference chain AutogradTest checks fused attention against
semtag::eval::BootstrapF1Interval      upper bound the planned budget calibration is to use (ROADMAP)
semtag::ShutdownSignal::ResetForTest   test reset of process-wide state
semtag::obs::ResetMetricsForTest       test reset of process-wide state
semtag::obs::ResetTraceForTest         test reset of process-wide state
semtag::ScopedRuntimeOverride::ScopedRuntimeOverride   how tests set a knob without setenv
semtag::ScopedRuntimeOverride::~ScopedRuntimeOverride  how tests set a knob without setenv
semtag::RuntimeKnobNames               README env-table check lists every knob
semtag::SetFaultsFromSpec              tests arm faults without the environment
semtag::ClearFaults                    tests disarm faults between cases
semtag::FaultTriggerCount              tests check how often a fault fired
semtag::obs::GetTraceStats             trace tests check dropped and recorded spans
semtag::serve::TrafficStats::AdvanceEpoch  tests seal an epoch without serving traffic
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! { cmake -B "$build" -S "$root" -G Ninja \
         -DCMAKE_CXX_FLAGS="-fno-inline -ffunction-sections -fdata-sections" \
         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections &&
       cmake --build "$build" --target src/all bench_build/all tools/all \
         examples/all; } >"$tmp/build.log" 2>&1; then
  tail -n 40 "$tmp/build.log" >&2
  exit 2
fi

# "mangled library" for every global text symbol of the libraries.
find "$build/src" -name 'lib*.a' | sort | while read -r lib; do
  nm --defined-only "$lib" 2>/dev/null |
    awk -v lib="$(basename "$lib")" '$2 == "T" { print $3, lib }'
done | sort -u >"$tmp/defined"

# Every symbol any shipped binary defines.
for dir in src/cli bench tools examples; do
  find "$build/$dir" -maxdepth 1 -type f -perm -u+x
done >"$tmp/binaries"
test -s "$tmp/binaries" || { echo "no shipped binaries in $build" >&2; exit 2; }
while read -r bin; do
  nm --defined-only "$bin" | awk '{ print $3 }'
done <"$tmp/binaries" | sort -u >"$tmp/linked"

# "library<TAB>demangled<TAB>name" for each defined symbol no binary links.
awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' \
  "$tmp/linked" "$tmp/defined" >"$tmp/dead_mangled"
cut -d' ' -f1 "$tmp/dead_mangled" | c++filt >"$tmp/dead_demangled"
sed 's/\[abi:[^]]*\]//g; s/(.*$//' "$tmp/dead_demangled" >"$tmp/dead_names"
cut -d' ' -f2 "$tmp/dead_mangled" |
  paste - "$tmp/dead_demangled" "$tmp/dead_names" | sort -u >"$tmp/dead"

cut -d' ' -f1 "$tmp/defined" | c++filt |
  sed 's/\[abi:[^]]*\]//g; s/(.*$//' | sort -u >"$tmp/defined_names"
echo "$ALLOWLIST" | awk 'NF { print $1 }' | sort -u >"$tmp/allowed"

# Dead and not allowlisted.
awk -F'\t' 'NR == FNR { allowed[$1] = 1; next }
            !($3 in allowed) { print "dead: " $1 ": " $2 }' \
  "$tmp/allowed" "$tmp/dead" >"$tmp/findings"
# Allowlisted but gone, or no longer dead.
while read -r name; do
  if ! grep -qxF "$name" "$tmp/defined_names"; then
    echo "stale allowlist entry: $name is not defined in any library"
  elif ! cut -f3 "$tmp/dead" | grep -qxF "$name"; then
    echo "stale allowlist entry: $name is linked by a shipped binary"
  fi
done <"$tmp/allowed" >>"$tmp/findings"

if [ -s "$tmp/findings" ]; then
  cat "$tmp/findings"
  echo "$(wc -l <"$tmp/findings") finding(s): delete the code no shipped" \
    "binary links, or allowlist it in tools/dead_symbols.sh with a reason" >&2
  exit 1
fi
echo "dead_symbols: no unlinked library functions" \
  "($(wc -l <"$tmp/binaries") binaries, $(wc -l <"$tmp/allowed") allowlisted)"
