#!/usr/bin/env bash
# Records the simulation-core perf trajectory (ISSUE 5) and the campaign
# cohort-scaling sweep (ISSUE 6).
#
#   scripts/bench_baseline.sh [label]     # label defaults to "run"
#
# Default suite (core_hotpath): runs the three micro benches plus one
# small campaign bench and appends their machine-readable results to
# BENCH_core_hotpath.json as JSON lines:
#
#   {"bench_series":...,"label":...,"benchmark":...,"real_ns_per_op":...}
#     one line per google-benchmark case (normalized to ns/op), and
#   {"bench_record":...}  the bench's own one-line run record (see
#     bench/bench_common.h), annotated with the label.
#
# CURTAIN_BENCH_SUITE=cohort_scaling instead runs the micro_shards
# worker/cohort sweep into BENCH_cohort_scaling.json; its series field
# distinguishes the carrier-capped "before" partition from the cohort
# "after" partition at every worker count.
#
# Run it once before a perf change ("before") and once after ("after");
# the paired series lines are the repo's recorded perf trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-run}"
SUITE="${CURTAIN_BENCH_SUITE:-core_hotpath}"
# Every line records the host's core count: a perf pair compares only
# when both halves ran on the same host.
HOST_CORES="$(nproc)"
BUILD="${CURTAIN_BENCH_BUILD:-build}"
# Small but stable campaign: fixed scale/seed/shards so labels compare.
CAMPAIGN_SCALE="${CURTAIN_BENCH_SCALE:-0.02}"

# Normalizes one google-benchmark console line to a JSON series line.
#   BM_CacheLookupHit        123 ns        123 ns   5673126
emit_series() {  # $1 = bench name, reads console output on stdin
  awk -v bench="$1" -v label="$LABEL" -v cores="$HOST_CORES" '
    $1 ~ /^BM_/ && ($3 == "ns" || $3 == "us" || $3 == "ms" || $3 == "s") {
      ns = $2
      if ($3 == "us") ns = $2 * 1000
      if ($3 == "ms") ns = $2 * 1000000
      if ($3 == "s")  ns = $2 * 1000000000
      # A case that counts heap allocations labels itself
      # "<n> allocations/experiment" (BM_FullExperiment).
      allocs = ""
      for (i = 5; i <= NF; ++i) {
        if ($i ~ /^allocations\/experiment/) allocs = $(i - 1)
      }
      printf("{\"bench_series\":\"%s\",\"label\":\"%s\",\"benchmark\":\"%s\",\"real_ns_per_op\":%.1f,", bench, label, $1, ns)
      if (allocs != "") printf("\"allocations_per_op\":%d,", allocs)
      printf("\"host_cores\":%d}\n", cores)
    }'
}

annotate_records() {  # reads bench stdout, re-emits bench_record lines + label
  grep '^{"bench_record"' |
    sed "s/^{\"bench_record\":/{\"label\":\"$LABEL\",\"host_cores\":$HOST_CORES,\"bench_record\":/"
}

if [ "$SUITE" = "cohort_scaling" ]; then
  OUT="${CURTAIN_BENCH_OUT:-BENCH_cohort_scaling.json}"
  # Fixed scale so labels compare; the sweep sets workers/cohorts itself.
  SWEEP_SCALE="${CURTAIN_BENCH_SCALE:-0.1}"
  cmake --build "$BUILD" -j "$(nproc)" --target micro_shards >/dev/null
  echo "[bench_baseline] label=$LABEL suite=cohort_scaling scale=$SWEEP_SCALE -> $OUT" >&2
  CURTAIN_SCALE="$SWEEP_SCALE" "./$BUILD/bench/micro_shards" \
    | tee /dev/stderr | annotate_records >>"$OUT"
  echo "[bench_baseline] appended $(grep -c . "$OUT") total lines in $OUT" >&2
  exit 0
fi

OUT="${CURTAIN_BENCH_OUT:-BENCH_core_hotpath.json}"
cmake --build "$BUILD" -j "$(nproc)" \
  --target micro_net micro_dns micro_study table1_clients >/dev/null

echo "[bench_baseline] label=$LABEL -> $OUT" >&2
for bench in micro_net micro_dns micro_study; do
  echo "[bench_baseline] running $bench ..." >&2
  raw="$("./$BUILD/bench/$bench" 2>/dev/null)"
  {
    emit_series "$bench" <<<"$raw"
    annotate_records <<<"$raw"
  } >>"$OUT"
done

echo "[bench_baseline] running campaign (table1_clients, scale=$CAMPAIGN_SCALE) ..." >&2
CURTAIN_SCALE="$CAMPAIGN_SCALE" CURTAIN_SHARDS="${CURTAIN_SHARDS:-1}" \
  "./$BUILD/bench/table1_clients" 2>/dev/null | annotate_records >>"$OUT"

echo "[bench_baseline] appended $(grep -c . "$OUT") total lines in $OUT" >&2
