#!/usr/bin/env bash
# CI gate, in lane order:
#
#   1. dcache_lint — the invariant checker (INVARIANTS.md) runs first and
#      blocks everything else: a determinism / charge-funnel /
#      counter-registration / bench-hygiene violation fails the build
#      before a single sanitized test runs.
#   2. ASan+UBSan build of everything, full ctest, parallel benches, and a
#      byte-identical --jobs 1 vs --jobs 8 diff of every deterministic
#      bench (micro_* are wall-clock and carry lint allows instead).
#   3. ThreadSanitizer build running the `tsan`-labeled tests and a traced
#      parallel bench.
#   4. (opt-in) clang-tidy over src/ when RUN_CLANG_TIDY=1; skipped
#      gracefully when clang-tidy is not installed.
#
# Usage: tools/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"

# Lint lane: build only the linter and run it before anything else. The
# run also writes two artifacts: the full findings report (build tree,
# transient) and the per-rule trend file that lives next to the perf
# baselines in perf/ — committing it makes findings-count drift reviewable
# the same way bench wall-clock drift is.
cmake --build "$BUILD_DIR" --target dcache_lint -j "$(nproc)"
if ! "$BUILD_DIR/tools/lint/dcache_lint" --root . \
       --json "$BUILD_DIR/lint_report.json" --trend perf/LINT_TREND.json; then
  echo "check.sh: dcache_lint found invariant violations (see INVARIANTS.md); fix or suppress with a reason" >&2
  exit 1
fi
if ! git diff --quiet -- perf/LINT_TREND.json 2>/dev/null; then
  echo "check.sh: perf/LINT_TREND.json changed — review the per-rule counts and commit it with this change" >&2
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# One parallel bench end-to-end under the sanitizers: worker threads,
# per-cell deployments, ordered result collection.
"$BUILD_DIR/bench/fig4_synthetic" --jobs 8 > /dev/null

# Disaggregated lane: the fifth architecture's one-sided read path, hot
# caches and invalidation fan-out run under ASan explicitly (fig2's
# analytic panel + fig4's experiment cells).
"$BUILD_DIR/bench/fig2_model" > /dev/null
DCACHE_GOLDEN_OPS="${DCACHE_GOLDEN_OPS:-2000}" \
  "$BUILD_DIR/bench/fig4_synthetic" --jobs 8 > /dev/null

# Determinism diff: every deterministic bench must emit byte-identical
# stdout for --jobs 1 and --jobs 8. The golden-op cap keeps the sanitized
# runs fast while still driving the full matrix (same cells, same seeds).
# The timeline benches (fig9-12) run at full scale below instead.
DET_BENCHES=(fig2_model fig3_uc_trace fig4_synthetic fig5_kv_workloads
             fig6_breakdown fig7_rich_objects fig8_delayed_writes
             ablation_cache_alloc ablation_consistency ext_workloads)
for bench in "${DET_BENCHES[@]}"; do
  DCACHE_GOLDEN_OPS="${DCACHE_GOLDEN_OPS:-2000}" \
    "$BUILD_DIR/bench/$bench" --jobs 1 > "$BUILD_DIR/${bench}_j1.txt"
  DCACHE_GOLDEN_OPS="${DCACHE_GOLDEN_OPS:-2000}" \
    "$BUILD_DIR/bench/$bench" --jobs 8 > "$BUILD_DIR/${bench}_j8.txt"
  if ! diff -q "$BUILD_DIR/${bench}_j1.txt" "$BUILD_DIR/${bench}_j8.txt" > /dev/null; then
    echo "check.sh: $bench output differs between --jobs 1 and --jobs 8" >&2
    diff "$BUILD_DIR/${bench}_j1.txt" "$BUILD_DIR/${bench}_j8.txt" >&2 || true
    exit 1
  fi
done

# The timeline benches run at full scale under the sanitizers, because
# their dynamics only appear over the complete timeline: fig9's crashes,
# resharding, RPC retries and single-flight coalescing; fig10's queueing
# model, load shedding, circuit breakers, hedged requests and deadline
# budgets; fig11's slow-node / partial-partition / flaky injection, health
# monitor ejection + probing and replica fallback; fig12's planned
# join/leave with the warm-handoff pump, dual-read fallback and epoch
# fencing across the whole rolling-restart wave. Each must also be
# byte-identical across worker counts.
for bench in fig9_failure_timeline fig10_overload fig11_gray_failures \
             fig12_churn; do
  "$BUILD_DIR/bench/$bench" --jobs 1 > "$BUILD_DIR/${bench}_j1.txt"
  "$BUILD_DIR/bench/$bench" --jobs 8 > "$BUILD_DIR/${bench}_j8.txt"
  if ! diff -q "$BUILD_DIR/${bench}_j1.txt" "$BUILD_DIR/${bench}_j8.txt" > /dev/null; then
    echo "check.sh: $bench output differs between --jobs 1 and --jobs 8" >&2
    diff "$BUILD_DIR/${bench}_j1.txt" "$BUILD_DIR/${bench}_j8.txt" >&2 || true
    exit 1
  fi
done

echo "check.sh: lint, all tests, the parallel benches, and the determinism gates passed under ASan/UBSan"

# ThreadSanitizer lane: TSan cannot be combined with ASan, so it gets its
# own build tree and runs only the tests labeled `tsan` — the ones that
# actually spin up worker threads.
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"
(cd "$TSAN_BUILD_DIR" && ctest -L tsan --output-on-failure -j "$(nproc)")

# Traced parallel bench under TSan: the trace sink is thread-local and each
# deployment owns its tracer, so sampling with 8 workers must be race-free.
"$TSAN_BUILD_DIR/bench/fig6_breakdown" --jobs 8 --trace-sample 500 > /dev/null

echo "check.sh: tsan-labeled tests and the traced parallel bench passed under TSan"

# Perf lane (RUN_PERF=1, needs a plain RelWithDebInfo tree — sanitizer
# timing is meaningless): re-runs the deterministic benches and fails on a
# >20% wall-clock regression vs the committed perf/BENCH_*.json baselines.
# Opt-in because wall-clock gates on shared CI machines need a deliberate
# quiet-machine run; tools/perf.sh takes best-of-3 to filter scheduler
# noise either way.
if [[ "${RUN_PERF:-0}" == "1" ]]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build}"
  cmake -B "$PERF_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$PERF_BUILD_DIR" -j "$(nproc)"
  tools/perf.sh check "$PERF_BUILD_DIR"
  echo "check.sh: perf lane passed (no bench regressed >20% vs perf/ baselines)"
else
  echo "check.sh: perf lane skipped (opt in with RUN_PERF=1)"
fi

# Opt-in clang thread-safety lane (RUN_WTHREAD_SAFETY=1): -Wthread-safety
# statically checks the GUARDED_BY/REQUIRES annotations on ThreadPool and
# MetricsRegistry (src/util/thread_annotations.hpp). Syntax-only over the
# annotated translation units, promoted to errors so a lock-discipline
# break fails the lane. Skipped gracefully when clang++ is not installed —
# the annotations compile to nothing under gcc.
if [[ "${RUN_WTHREAD_SAFETY:-0}" == "1" ]]; then
  if command -v clang++ > /dev/null 2>&1; then
    echo "check.sh: running clang -Wthread-safety over the annotated units"
    clang++ -fsyntax-only -std=c++20 -I src \
      -Wthread-safety -Werror=thread-safety-analysis \
      src/util/thread_pool.cpp src/obs/metrics.cpp
    echo "check.sh: thread-safety lane passed"
  else
    echo "check.sh: clang++ not found — skipping the opt-in thread-safety lane"
  fi
fi

# Opt-in clang-tidy lane (RUN_CLANG_TIDY=1): uses the compile database the
# ASan tree exported. Skipped gracefully when clang-tidy is not installed,
# so the gate never depends on optional tooling.
if [[ "${RUN_CLANG_TIDY:-0}" == "1" ]]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "check.sh: running clang-tidy (config: .clang-tidy)"
    find src -name '*.cpp' -print0 \
      | xargs -0 clang-tidy -p "$BUILD_DIR" --quiet
    echo "check.sh: clang-tidy lane passed"
  else
    echo "check.sh: clang-tidy not found — skipping the opt-in tidy lane"
  fi
fi
