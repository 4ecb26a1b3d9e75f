#!/usr/bin/env bash
# Repo gate: format, lints, tier-1 tests, quick perf baseline, the
# determinism smokes, and replay verification of the committed
# .runpack artifacts.
#
# Composable stages, so CI tiers and reviewers run the same script:
#
#   ./scripts/check.sh                # everything (pre-merge gate)
#   ./scripts/check.sh --tier1        # fmt + workspace clippy + build + tests
#                                     # (root package, then whole workspace)
#   ./scripts/check.sh --determinism  # thread-count byte-identity smokes
#   ./scripts/check.sh --perf         # quick perf baseline + scaling smoke
#   ./scripts/check.sh --replay       # verify committed .runpack artifacts
#
# Stages compose: `./scripts/check.sh --determinism --replay` runs both.
# The perf step writes results/BENCH_2.json..BENCH_4.json in --quick
# mode; diff against the committed baselines by hand when a change is
# perf-relevant. Determinism smokes run each sweep at two thread counts
# and require the records to be byte-identical.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=0
run_determinism=0
run_perf=0
run_replay=0
if [ "$#" -eq 0 ]; then
  run_tier1=1 run_determinism=1 run_perf=1 run_replay=1
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=1 ;;
    --determinism) run_determinism=1 ;;
    --perf) run_perf=1 ;;
    --replay) run_replay=1 ;;
    *)
      echo "unknown stage: $arg (expected --tier1 | --determinism | --perf | --replay)" >&2
      exit 2
      ;;
  esac
done

# Run a sweep binary at two thread counts and require byte-identical
# records: smoke [--pack PACK] NAME RECORD THREADS_A THREADS_B BIN [ARGS...]
# With --pack, the bin also rewrites PACK on every run, and the second
# run must reproduce its bytes too.
smoke() {
  local pack=""
  if [ "$1" = "--pack" ]; then
    pack="$2"
    shift 2
  fi
  local name="$1" record="$2" ta="$3" tb="$4"
  shift 4
  PHISHSIM_SWEEP_THREADS="$ta" cargo run --release -p phishsim-bench --bin "$@"
  cp "$record" "$record.t$ta"
  [ -n "$pack" ] && cp "$pack" "$pack.t$ta"
  PHISHSIM_SWEEP_THREADS="$tb" cargo run --release -p phishsim-bench --bin "$@"
  if ! diff -q "$record.t$ta" "$record"; then
    echo "$name record differs between $ta and $tb threads" >&2
    exit 1
  fi
  rm -f "$record.t$ta"
  if [ -n "$pack" ]; then
    if ! cmp -s "$pack.t$ta" "$pack"; then
      echo "$name pack differs between $ta and $tb threads" >&2
      exit 1
    fi
    rm -f "$pack.t$ta"
    echo "$name record and pack byte-identical across thread counts"
  else
    echo "$name record byte-identical across thread counts"
  fi
}

tier1() {
  echo "==> cargo fmt --check"
  cargo fmt --all --check

  echo "==> clippy (whole workspace, all targets)"
  cargo clippy --release --workspace --all-targets -- -D warnings

  echo "==> tier-1: build + tests"
  cargo build --release
  cargo test -q --release

  echo "==> workspace tests (every crate's unit, integration and property tests)"
  cargo test --workspace --release
}

perf() {
  echo "==> perf baseline (quick)"
  cargo run --release -p phishsim-bench --bin bench_baseline -- --quick

  echo "==> thread-scaling smoke (BENCH_4)"
  # The quick baseline above ran the scaling curve at 1/2/4/8/16 worker
  # threads with byte-identity asserted at every point, and — only when
  # the host physically has the cores — speedup floors asserted
  # in-binary (>=2x at 4 threads on >=4 cores, >=4x at 8 threads on
  # >=8 cores). Confirm the artifact landed and records what it ran on.
  grep -q '"host_parallelism"' results/BENCH_4.json
  echo "BENCH_4.json present (host_parallelism: $(grep -o '"host_parallelism": *[0-9]*' results/BENCH_4.json | grep -o '[0-9]*$'), $(nproc) per nproc)"
}

determinism() {
  echo "==> sb_scale determinism smoke (10k clients, 1 vs 4 threads)"
  smoke sb_scale results/sb_scale.json 1 4 sb_scale -- --clients 10000

  echo "==> resilience determinism smoke (5k clients/level, 1 vs 4 threads)"
  smoke resilience results/resilience.json 1 4 resilience -- --clients 5000

  echo "==> sb_scale_50m determinism smoke (fast cohort sweep, 1 vs 8 threads)"
  # Cohort compression, the mirror tier, and the exact-baseline guard
  # must all be thread-invariant, record and pack alike.
  smoke --pack results/sb_scale_50m.runpack sb_scale_50m results/sb_scale_50m.json 1 8 \
    sb_scale_50m -- fast

  echo "==> obs_report determinism smoke (full volume, 1 vs 8 threads)"
  smoke obs_report results/obs_report.json 1 8 obs_report

  echo "==> fleet_sweep determinism smoke (fast stream, 1 vs 8 threads)"
  smoke --pack results/fleet_sweep.runpack fleet_sweep results/fleet_sweep.json 1 8 \
    fleet_sweep -- fast

  echo "==> fleet_chaos determinism smoke (fast sweep, 1 vs 8 threads)"
  # Worker-chaos sweep: crash/hang/restart fault plans and supervised
  # recovery must be just as thread-invariant as the fault-free fleet.
  # The bin asserts its own floors (zero lost reports, >=90% throughput
  # retention at 1% crash rate) on every run.
  smoke --pack results/fleet_chaos.runpack fleet_chaos results/fleet_chaos.json 1 8 \
    fleet_chaos -- fast
}

replay() {
  echo "==> runpack verify smoke (committed packs, 1 vs 8 threads)"
  # Each committed .runpack re-executes from nothing but its own
  # recorded config and must reproduce every section digest
  # byte-for-byte — at both thread counts, since parallelism must
  # never enter a pack.
  for pack in table1 table2 obs_report fleet_sweep fleet_chaos sb_scale sb_scale_50m; do
    for threads in 1 8; do
      PHISHSIM_SWEEP_THREADS=$threads cargo run --release --bin runpack -- \
        verify "results/$pack.runpack"
    done
  done
  echo "runpack verify byte-for-byte at 1 and 8 threads"
}

[ "$run_tier1" -eq 1 ] && tier1
[ "$run_perf" -eq 1 ] && perf
[ "$run_determinism" -eq 1 ] && determinism
[ "$run_replay" -eq 1 ] && replay

echo "All requested checks passed."
