#!/bin/sh
# Ambient time and entropy must not reach a simulation: simulated state
# comes from Simulator::now() and the seeded Rng. This greps the C++ in
# src/, bench/ and tools/ for clocks and entropy sources and requires
# exactly one hit, the sanctioned profiling clock in sweep::monotonicMs,
# which feeds only stderr summaries and perfbench's host timings.
# grep, not git grep, so it also runs on an exported tree.
#
# Usage: tools/test_ambient_sources.sh [source-root]
set -eu

cd "${1:-$(dirname -- "$0")/..}"
banned='steady_clock|system_clock|high_resolution_clock|random_device'
banned="$banned"'|(^|[^.>:_[:alnum:]]|std::)(time|clock|rand|srand|gettimeofday|timespec_get|getentropy|clock_gettime)\('
hits=$(grep -rnE --include='*.cc' --include='*.hh' "$banned" \
    src bench tools || true)
sanctioned='^src/isolbench/sweep\.cc:[0-9]*: *auto now = std::chrono::steady_clock::now();$'
if [ "$(printf '%s\n' "$hits" | wc -l)" -eq 1 ] &&
    printf '%s\n' "$hits" | grep -q "$sanctioned"; then
    exit 0
fi
printf 'ambient clock or entropy source outside sweep::monotonicMs:\n%s\n' \
    "$hits" >&2
exit 1
