#!/usr/bin/env bash
# Perf-trajectory harness over the deterministic benches.
#
#   tools/perf.sh record [build-dir]   run every deterministic bench with
#                                      --bench-json and store the records
#                                      as perf/BENCH_<name>.json (the
#                                      committed baseline for this machine
#                                      generation)
#   tools/perf.sh check  [build-dir]   re-run the benches and fail if any
#                                      wall-clock regresses more than
#                                      PERF_TOLERANCE_PCT (default 20) vs
#                                      the committed baseline
#   tools/perf.sh micro  [build-dir]   run the layer micro benches and store
#                                      Google Benchmark's JSON report
#                                      (PERF_RUNS repetitions, aggregates
#                                      only) as perf/MICRO_<layer>.json;
#                                      recorded, not gated
#
# The records use schema dcache.bench.v1 (see bench_common.hpp): wall_ms,
# ops/sec of simulated requests, peak RSS. Timing goes only to these JSON
# sidecars — bench stdout stays byte-deterministic and golden-diffed.
#
# Wall-clock on shared machines is noisy; `check` takes the best of
# PERF_RUNS (default 3) runs per bench before comparing, which filters
# scheduler hiccups while still catching real regressions.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-check}"
BUILD_DIR="${2:-build}"
PERF_DIR="perf"
TOLERANCE_PCT="${PERF_TOLERANCE_PCT:-20}"
RUNS="${PERF_RUNS:-3}"

BENCHES=(fig2_model fig3_uc_trace fig4_synthetic fig5_kv_workloads
         fig6_breakdown fig7_rich_objects fig8_delayed_writes
         fig9_failure_timeline fig10_overload fig11_gray_failures
         fig12_churn ablation_cache_alloc ablation_consistency ext_workloads)
MICRO_LAYERS=(storage)

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "perf.sh: build dir '$BUILD_DIR' has no bench/ — build first" >&2
  exit 1
fi

wall_ms() { # file -> wall_ms value
  sed -n 's/.*"wall_ms": \([0-9.]*\).*/\1/p' "$1"
}

best_run() { # bench -> writes best-of-$RUNS record to $2
  local bench="$1" out="$2" tmp best_ms="" r
  for ((r = 0; r < RUNS; ++r)); do
    tmp="$(mktemp)"
    "$BUILD_DIR/bench/$bench" --bench-json "$tmp" > /dev/null
    local ms
    ms="$(wall_ms "$tmp")"
    if [[ -z "$best_ms" ]] || awk -v a="$ms" -v b="$best_ms" \
        'BEGIN { exit !(a < b) }'; then
      best_ms="$ms"
      cp "$tmp" "$out"
    fi
    rm -f "$tmp"
  done
}

case "$MODE" in
  record)
    mkdir -p "$PERF_DIR"
    for bench in "${BENCHES[@]}"; do
      best_run "$bench" "$PERF_DIR/BENCH_${bench}.json"
      echo "perf.sh: recorded $PERF_DIR/BENCH_${bench}.json" \
           "($(wall_ms "$PERF_DIR/BENCH_${bench}.json") ms)"
    done
    ;;
  check)
    failed=0
    for bench in "${BENCHES[@]}"; do
      baseline="$PERF_DIR/BENCH_${bench}.json"
      if [[ ! -f "$baseline" ]]; then
        echo "perf.sh: no baseline for $bench — run 'tools/perf.sh record'" >&2
        failed=1
        continue
      fi
      current="$(mktemp)"
      best_run "$bench" "$current"
      base_ms="$(wall_ms "$baseline")"
      cur_ms="$(wall_ms "$current")"
      limit="$(awk -v b="$base_ms" -v t="$TOLERANCE_PCT" \
               'BEGIN { printf "%.1f", b * (1 + t / 100) }')"
      if awk -v c="$cur_ms" -v l="$limit" 'BEGIN { exit !(c > l) }'; then
        echo "perf.sh: REGRESSION $bench: ${cur_ms} ms vs baseline" \
             "${base_ms} ms (limit ${limit} ms at +${TOLERANCE_PCT}%)" >&2
        failed=1
      else
        echo "perf.sh: ok $bench: ${cur_ms} ms (baseline ${base_ms} ms)"
      fi
      rm -f "$current"
    done
    exit "$failed"
    ;;
  micro)
    mkdir -p "$PERF_DIR"
    for layer in "${MICRO_LAYERS[@]}"; do
      out="$PERF_DIR/MICRO_${layer}.json"
      tmp="$(mktemp)"
      "$BUILD_DIR/bench/micro_${layer}" --benchmark_out="$tmp" \
        --benchmark_out_format=json --benchmark_repetitions="$RUNS" \
        --benchmark_report_aggregates_only=true > /dev/null
      # The host name says nothing about the code; keep it out of the repo.
      grep -v '"host_name":' "$tmp" > "$out"
      rm -f "$tmp"
      echo "perf.sh: recorded $out"
    done
    ;;
  *)
    echo "usage: tools/perf.sh {record|check|micro} [build-dir]" >&2
    exit 2
    ;;
esac
