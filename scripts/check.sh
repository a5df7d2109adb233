#!/usr/bin/env bash
# One-command CI matrix for the curtain tree.
#
#   scripts/check.sh          # full matrix (plain, release-build,
#                             # asan+ubsan, tsan, lint, bench-smoke,
#                             # profile-smoke, rss-smoke, run-smoke,
#                             # campaign-smoke, experiments-current)
#   scripts/check.sh plain    # just one leg: plain | release-build
#                             #   | sanitize | tsan | lint | bench-smoke
#                             #   | profile-smoke | rss-smoke | run-smoke
#                             #   | campaign-smoke | experiments-current
#
# Legs:
#   plain     default build (all warnings + -Werror) and the full ctest
#             suite — the tier-1 gate.
#   release-build
#             compiles every target with -DCMAKE_BUILD_TYPE=Release (-O3,
#             build-release/) under -Werror and runs nothing: GCC's -O3
#             inlining reports warnings the default RelWithDebInfo (-O2)
#             build never sees, e.g. -Wrestrict on a `"x" + std::string`
#             temporary, so a tree that builds at -O2 can fail at -O3.
#   sanitize  ASan+UBSan build tree (build-asan/) and the full ctest suite.
#   tsan      TSan build tree (build-tsan/) running shard_determinism_test,
#             which drives real worker thread pools against the shared
#             World — including the 16-cohort × 16-worker stress case
#             (96 shards, more cohorts than any carrier has devices) —
#             TopologyTest.ThreadsShareOneTreePerSource, four threads
#             racing to build one topology's route trees,
#             PublicDnsTest.IngressMemoMatchesFreshRanking, two threads
#             racing to rank one public-DNS service's empty ingress slots,
#             and CdnTest.NearestClusterMemoMatchesFreshScan, two threads
#             filling one CDN provider's per-/24 cluster memos. Workers
#             share exactly those world-derived values: each tree is built
#             once under std::call_once, and each ingress slot and cluster
#             memo is one relaxed atomic word that racing workers fill with
#             the same bits. All other mutable state is per device
#             (DESIGN.md §18), so any report here is a real unsafe share.
#   lint      curtain_lint over src/ bench/ examples/ tools/ plus the
#             waiver-inventory diff: `curtain_lint --waivers` must match
#             the committed tools/lint/WAIVERS.txt exactly, so every new
#             `// lint:` waiver shows up in review (also runs inside every
#             ctest leg as LintTree/LintWaiversSynced; kept separate so a
#             lint check doesn't need a test run).
#   bench-smoke
#             runs each micro bench for a fraction of a second per case and
#             fails unless every binary emits a well-formed one-line
#             bench_record JSON — catches bit-rot in the perf evidence
#             pipeline (scripts/bench_baseline.sh) without a full bench run.
#   profile-smoke
#             runs a small campaign with CURTAIN_PROFILE_OUT set and fails
#             unless the chrome trace parses as JSON and every worker lane
#             carries at least one shard span — catches bit-rot in the
#             flight-recorder pipeline (obs/flight_recorder.h).
#   rss-smoke
#             runs bench/micro_fleet on a scaled-down fleet (CURTAIN_SCALE,
#             default 0.1 = 100k devices) under CURTAIN_RSS_CEILING_MB; the
#             bench exits nonzero if peak RSS breaches the ceiling or if
#             RSS after the 1-day point exceeds 1.5x that after the
#             0.25-day point plus 128 MB — the bounded-memory gate for
#             streamed records and per-device state.
#   run-smoke
#             runs every binary under build/examples/ and every non-micro_*
#             binary under build/bench/ at CURTAIN_SCALE=0.005, in a
#             throwaway working directory, and fails on any nonzero exit —
#             ctest runs none of them, so an API precondition they break
#             (say, a device state reused across two worlds) shows up here
#             (~10 s on 4 cores after the build).
#   campaign-smoke
#             runs campaignbench/smoke_test.py, which builds the campaign
#             benchmark from src/ in its own directory (.bench_build/) and
#             checks both workloads at smoke size: result shape, every
#             declared metric, traced/untraced export digests equal, and
#             per-layer counts repeatable — so a src/ API change that
#             breaks the benchmark's build or its checks fails here
#             (~75 s on 4 cores, build included).
#   experiments-current
#             rebuilds examples/full_report, regenerates EXPERIMENTS.md at
#             its recorded settings (seed 20141105, CURTAIN_SCALE=0.1,
#             CURTAIN_SHARDS=4) and fails on any diff, so a change that
#             moves a reported number or a claim-ledger verdict must carry
#             the regenerated record (~6 s on 4 cores after the build).
#
# Every leg uses its own build directory, so re-runs are incremental.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
LEG="${1:-all}"

run_leg() {
  echo
  echo "=== check.sh: $1 ==="
}

plain_leg() {
  run_leg "plain build + full ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

release_build_leg() {
  run_leg "Release (-O3) build, compile only"
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$JOBS"
}

sanitize_leg() {
  run_leg "ASan+UBSan build + full ctest"
  cmake -B build-asan -S . -DCURTAIN_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

tsan_leg() {
  run_leg "TSan build + shard determinism (16x16 stress) + shared route trees, ingress slots and cluster memos"
  cmake -B build-tsan -S . -DCURTAIN_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target shard_determinism_test topology_test publicdns_test cdn_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ShardDeterminism|TopologyTest\.ThreadsShareOneTreePerSource|PublicDnsTest\.IngressMemoMatchesFreshRanking|CdnTest\.NearestClusterMemoMatchesFreshScan'
  # The stress case must have actually run: it is the leg's reason to exist.
  ./build-tsan/tests/shard_determinism_test \
    --gtest_filter='ShardDeterminism.StressManyCohortsManyWorkers' \
    --gtest_brief=1
}

lint_leg() {
  run_leg "curtain_lint + waiver inventory"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target curtain_lint
  ./build/tools/curtain_lint src bench examples tools
  # Waiver growth is reviewed, not silent: the committed inventory must
  # match the tree. Regenerate with
  #   ./build/tools/curtain_lint --waivers src bench examples tools \
  #       > tools/lint/WAIVERS.txt
  if ! diff -u tools/lint/WAIVERS.txt \
      <(./build/tools/curtain_lint --waivers src bench examples tools); then
    echo "lint: tools/lint/WAIVERS.txt is out of date (see diff above)" >&2
    exit 1
  fi
}

bench_smoke_leg() {
  run_leg "bench smoke (tiny micro benches + bench_record shape)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target micro_net micro_dns micro_study
  local bench out
  for bench in micro_net micro_dns micro_study; do
    out="$("./build/bench/$bench" --benchmark_min_time=0.01 2>/dev/null)"
    # Every bench must emit exactly one bench_record line carrying the
    # wall-clock field plus at least one curtain_* metric (bench_common.h).
    if ! grep -c '^{"bench_record":"' <<<"$out" | grep -qx 1; then
      echo "bench-smoke: $bench emitted no (or multiple) bench_record lines" >&2
      exit 1
    fi
    if ! grep '^{"bench_record":"' <<<"$out" |
        grep -q '"wall_ms":[0-9.]*,"peak_rss_mb":[0-9.]*,"curtain_'; then
      echo "bench-smoke: $bench bench_record JSON is malformed:" >&2
      grep '^{"bench_record":"' <<<"$out" >&2 || true
      exit 1
    fi
    echo "bench-smoke: $bench ok"
  done
}

profile_smoke_leg() {
  run_leg "profile smoke (flight recorder -> chrome trace)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target table1_clients
  local trace
  trace="$(mktemp -t curtain_trace.XXXXXX.json)"
  CURTAIN_SCALE=0.02 CURTAIN_SHARDS=2 CURTAIN_PROFILE_OUT="$trace" \
    ./build/bench/table1_clients >/dev/null
  # The trace must parse and show >=1 shard span on every worker lane —
  # a recorder that silently drops a lane would still produce valid JSON.
  python3 - "$trace" <<'PYEOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
workers = trace["otherData"]["workers"]
spans_by_lane = {}
for e in events:
    if e["ph"] == "X" and e.get("tid", 0) > 0:
        spans_by_lane.setdefault(e["tid"], 0)
        spans_by_lane[e["tid"]] += 1
missing = [lane for lane in range(1, workers + 1) if lane not in spans_by_lane]
if missing:
    sys.exit(f"profile-smoke: worker lanes {missing} have no shard spans "
             f"(lanes seen: {sorted(spans_by_lane)})")
print(f"profile-smoke: ok ({sum(spans_by_lane.values())} spans across "
      f"{len(spans_by_lane)} worker lanes)")
PYEOF
  rm -f "$trace"
}

rss_smoke_leg() {
  run_leg "rss smoke (scaled-down fleet sweep under an RSS ceiling)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target micro_fleet
  # micro_fleet itself fails the run on a ceiling breach or if resident
  # memory grows with campaign length; the leg picks a 10% fleet (100k
  # devices) and a proportional ceiling so the gate stays cheap. Run the
  # full million-device sweep with CURTAIN_SCALE=1 CURTAIN_RSS_CEILING_MB=6144
  # when regenerating BENCH_fleet_memory.json.
  CURTAIN_SCALE="${CURTAIN_SCALE:-0.1}" \
  CURTAIN_RSS_CEILING_MB="${CURTAIN_RSS_CEILING_MB:-1024}" \
    ./build/bench/micro_fleet
}

run_smoke_leg() {
  run_leg "run smoke (every example and figure bench at CURTAIN_SCALE=0.005)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  local root work bin name failed=0
  root="$(pwd)"
  work="$(mktemp -d -t curtain_run_smoke.XXXXXX)"
  for bin in "$root"/build/examples/* "$root"/build/bench/*; do
    [[ -f "$bin" && -x "$bin" ]] || continue
    name="${bin#"$root"/}"
    [[ "$(basename "$bin")" == micro_* ]] && continue
    if (cd "$work" && CURTAIN_SCALE=0.005 "$bin" >"$work/out.log" 2>&1); then
      echo "run-smoke: $name ok"
    else
      echo "run-smoke: $name exited nonzero; last lines:" >&2
      tail -n 5 "$work/out.log" >&2
      failed=1
    fi
  done
  rm -rf "$work"
  if [[ "$failed" != 0 ]]; then
    echo "run-smoke: at least one binary failed (see above)" >&2
    exit 1
  fi
}

campaign_smoke_leg() {
  run_leg "campaign smoke (campaignbench build + smoke-size workloads)"
  python3 campaignbench/smoke_test.py
}

experiments_current_leg() {
  run_leg "EXPERIMENTS.md current (full_report at scale 0.1, 4 workers)"
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target full_report
  local fresh
  fresh="$(mktemp -t curtain_experiments.XXXXXX.md)"
  CURTAIN_SEED=20141105 CURTAIN_SCALE=0.1 CURTAIN_SHARDS=4 \
    ./build/examples/full_report >"$fresh" 2>/dev/null
  if ! diff -u EXPERIMENTS.md "$fresh"; then
    rm -f "$fresh"
    echo "experiments-current: EXPERIMENTS.md is stale; regenerate with" >&2
    echo "  CURTAIN_SCALE=0.1 CURTAIN_SHARDS=4 ./build/examples/full_report > EXPERIMENTS.md" >&2
    exit 1
  fi
  rm -f "$fresh"
  echo "experiments-current: ok"
}

case "$LEG" in
  plain)    plain_leg ;;
  release-build) release_build_leg ;;
  sanitize) sanitize_leg ;;
  tsan)     tsan_leg ;;
  lint)     lint_leg ;;
  bench-smoke) bench_smoke_leg ;;
  profile-smoke) profile_smoke_leg ;;
  rss-smoke) rss_smoke_leg ;;
  run-smoke) run_smoke_leg ;;
  campaign-smoke) campaign_smoke_leg ;;
  experiments-current) experiments_current_leg ;;
  all)
    plain_leg
    release_build_leg
    sanitize_leg
    tsan_leg
    lint_leg
    bench_smoke_leg
    profile_smoke_leg
    rss_smoke_leg
    run_smoke_leg
    campaign_smoke_leg
    experiments_current_leg
    echo
    echo "=== check.sh: all legs green ==="
    ;;
  *)
    echo "usage: scripts/check.sh [plain|release-build|sanitize|tsan|lint|bench-smoke|profile-smoke|rss-smoke|run-smoke|campaign-smoke|experiments-current|all]" >&2
    exit 2
    ;;
esac
