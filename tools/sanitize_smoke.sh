#!/bin/sh
# Sanitizer smoke for the simulator:
#   1. ASan+UBSan build, with detect_stack_use_after_return=1 appended
#      to ASAN_OPTIONS (ASan's default mode lets a deferred callback
#      that captured a local by reference read the dead frame
#      silently): quickstart example + io.cost CLI scenario (the
#      `smoke` target), an isol_lint pass over the tree (so the lint
#      tool itself runs sanitized), the 64-seed isol_fuzz campaign with
#      runtime invariants on plus its planted-bug mutation run —
#      adversaries, every knob and the invariant hooks all under the
#      sanitizer — the quick q10_burst_response bench (the burst runner
#      is on no fuzz path), the hierarchy property tests, the SSD/FTL
#      unit and property tests (gcCommitMove's move run is a fixed
#      stack array indexed by page, so an overrun shows only here), the
#      event-queue and SmallCallback unit tests (callbacks are built by
#      placement new in arena slots and relocated by memcpy, so a
#      lifetime or alignment slip shows only here), and a 256-tenant
#      fleet_scale run with invariants on, then diffed across
#      --jobs 1/2/8.
#   2. TSan build: the event-queue and simulator unit tests, then the
#      sweep-engine determinism tests and every sweep::map caller (the
#      quick fig5, fig7, table1 and calibration benches, a small fleet
#      and a short isol_fuzz campaign) with 4 worker threads, the
#      configuration that exercises the shared-nothing worker pool
#      hardest. A float accumulated across workers shows up here as a
#      data race; no lint rule checks for it.
#
# Usage: tools/sanitize_smoke.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-asan build-tsan)
set -eu

ASAN_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

echo "== ASan/UBSan =="
ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}detect_stack_use_after_return=1"
export ASAN_OPTIONS
cmake -S "$SRC_DIR" -B "$ASAN_DIR" -DISOL_SANITIZE=address
cmake --build "$ASAN_DIR" -j
cmake --build "$ASAN_DIR" --target smoke
if ! "$ASAN_DIR/tools/isol_lint/isol_lint" --root "$SRC_DIR"; then
    echo "sanitize_smoke: isol_lint found violations; failing the" \
        "smoke" >&2
    exit 1
fi
"$ASAN_DIR/tools/isol_fuzz/isol_fuzz" --seeds 64 --jobs 8 \
    --check-invariants
"$ASAN_DIR/tools/isol_fuzz/isol_fuzz" --seeds 4 --jobs 1 \
    --mutate bucket --check-invariants --expect-violations
(cd "$ASAN_DIR" && ISOL_BENCH_QUICK=1 ./bench/q10_burst_response >/dev/null)
"$ASAN_DIR/tests/test_hierarchy"
"$ASAN_DIR/tests/test_sim"
"$ASAN_DIR/tests/test_small_function"
"$ASAN_DIR/tests/test_ssd"
"$ASAN_DIR/tests/test_properties"
(cd "$ASAN_DIR" && ISOL_FLEET_TENANTS=256 ISOL_CHECK_INVARIANTS=1 \
    ./bench/fleet_scale --jobs 2 >/dev/null)
for j in 1 2 8; do
    (cd "$ASAN_DIR" && ISOL_FLEET_TENANTS=256 ./bench/fleet_scale \
        --jobs "$j" > "fleet_j$j.out")
done
diff "$ASAN_DIR/fleet_j1.out" "$ASAN_DIR/fleet_j2.out"
diff "$ASAN_DIR/fleet_j1.out" "$ASAN_DIR/fleet_j8.out"

echo "== TSan =="
cmake -S "$SRC_DIR" -B "$TSAN_DIR" -DISOL_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target test_sim test_sweep fig5_fairness \
    fig7_tradeoffs table1_summary calibration_probe fleet_scale isol_fuzz
"$TSAN_DIR/tests/test_sim"
ISOL_JOBS=4 "$TSAN_DIR/tests/test_sweep"
for b in fig5_fairness fig7_tradeoffs table1_summary calibration_probe; do
    (cd "$TSAN_DIR" && ISOL_BENCH_QUICK=1 "./bench/$b" --jobs 4 >/dev/null)
done
(cd "$TSAN_DIR" && ISOL_FLEET_TENANTS=64 ./bench/fleet_scale --jobs 4 \
    >/dev/null)
"$TSAN_DIR/tools/isol_fuzz/isol_fuzz" --seeds 8 --jobs 4

echo "sanitize_smoke: OK"
