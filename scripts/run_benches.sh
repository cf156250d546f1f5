#!/usr/bin/env bash
# Runs the Release bench suite across a grid of worker counts and
# consolidates every bench's machine-readable records
# (CORDON_BENCH_JSON JSON-lines) into one trajectory file, so
# successive PRs can prove speedups — and scaling — against the
# committed baseline (BENCH_PR7.json at the repo root is the current
# one).  scripts/check_scaling.py consumes the output.
#
# Usage:
#   scripts/run_benches.sh [build-dir] [output.json]
#
# Environment:
#   CORDON_BENCH_THREADS  space-separated worker-count grid
#                         (default: "1 2 4 8", plus nproc when > 8)
#   CORDON_BENCH_N        problem size for the swept benches (default:
#                         per bench; set e.g. 20000 for a CI smoke)
#   CORDON_BENCH_GAP_N    problem size for bench_gap only (default 384 —
#                         gap is quadratic, one size does NOT fit all)
#   CORDON_BENCH_BATCH    engine-batch queue length
#   CORDON_BENCH_REPS     engine-batch repetitions
#   BENCHES               override of the thread-swept bench list
#   BENCHES_ONCE          override of the run-once bench list
#
# The build dir must have been configured with -DCORDON_BUILD_BENCH=ON
# (Release recommended: cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
#  -DCORDON_BUILD_BENCH=ON).
#
# A bench that exits non-zero (e.g. bench_service missing its hot/cold
# bar) does not stop the sweep: every bench still runs, the output file
# is written with every record, and the script then exits 1 naming the
# benches that failed.
set -euo pipefail

BUILD_DIR="${1:-build-bench}"
OUT="${2:-BENCH_PR7.json}"

CORES="$(nproc)"
if [[ -n "${CORDON_BENCH_THREADS:-}" ]]; then
  GRID="$CORDON_BENCH_THREADS"
else
  GRID="1 2 4 8"
  if (( CORES > 8 )); then GRID="$GRID $CORES"; fi
fi

# Thread-swept set: the gated scaling families plus the engine batch
# path.  Run-once set: benches whose numbers don't vary with the pool
# size in an interesting way (the service bench manages its own pool;
# the incremental bench's resume path is per-append sequential work).
BENCHES="${BENCHES:-bench_fig7_glws bench_lis bench_fig6_lcs bench_gap bench_oat bench_engine_batch}"
BENCHES_ONCE="${BENCHES_ONCE:-bench_service bench_incremental}"
GAP_N="${CORDON_BENCH_GAP_N:-384}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build dir '$BUILD_DIR' not found" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release -DCORDON_BUILD_BENCH=ON" >&2
  echo "  cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Metadata header so trajectories from different machines are never
# compared silently.  `cores` is the physical core count of the runner:
# check_scaling.py only enforces the parallel-beats-sequential gate at
# thread counts the hardware can actually provide, and skips (loudly)
# when cores < the gate's thread floor.  Every bench record carries its
# own real `threads` value, stamped by the JsonEmitter from the live
# scheduler — the sweep never has to trust this header for that.
{
  printf '{"bench":"meta","host":"%s","cores":%s,"thread_grid":"%s","n":"%s","gap_n":"%s","date":"%s","git":"%s"}\n' \
    "$(uname -m)" \
    "$CORES" \
    "$GRID" \
    "${CORDON_BENCH_N:-default}" \
    "$GAP_N" \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
} > "$tmp"

failed=()

for t in $GRID; do
  for bench in $BENCHES; do
    bin="$BUILD_DIR/$bench"
    if [[ ! -x "$bin" ]]; then
      echo "warning: $bin missing (configure with -DCORDON_BUILD_BENCH=ON); skipping" >&2
      continue
    fi
    echo "== $bench (threads=$t) =="
    if [[ "$bench" == "bench_gap" ]]; then
      CORDON_BENCH_N="$GAP_N" CORDON_NUM_THREADS="$t" \
        CORDON_BENCH_JSON="$tmp" "$bin" || failed+=("$bench (threads=$t)")
    else
      CORDON_NUM_THREADS="$t" CORDON_BENCH_JSON="$tmp" "$bin" ||
        failed+=("$bench (threads=$t)")
    fi
  done
done

for bench in $BENCHES_ONCE; do
  bin="$BUILD_DIR/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "warning: $bin missing (configure with -DCORDON_BUILD_BENCH=ON); skipping" >&2
    continue
  fi
  echo "== $bench =="
  CORDON_BENCH_JSON="$tmp" "$bin" || failed+=("$bench")
done

mv "$tmp" "$OUT"
trap - EXIT
echo
echo "wrote $(wc -l < "$OUT") records to $OUT (thread grid: $GRID, cores: $CORES)"
if (( ${#failed[@]} > 0 )); then
  echo "error: ${#failed[@]} bench run(s) failed:" >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
