#!/usr/bin/env python3
"""Build cordon_bench and run one workload (or all).

    python3 benchmark/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]

Builds benchmark/ in Release (build directory: $CARGO_TARGET_DIR, default
.bench_build, relative to the repository root), runs cordon_bench with
CORDON_NUM_THREADS=4.  The measured phase lasts run_seconds of
BENCHMARK.json; --seconds is accepted only with that value, so no run can
measure a different length.  For each workload stdout gets two lines:

  {"record": {...}}   every metric cordon_bench measured, plus workload,
                      seed, valid (load generator kept up) and, with
                      --trace 1, the trace file;
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
                      the end_to_end metrics of BENCHMARK.json, or with
                      --trace 1 its per_layer metrics.

--trace 1 runs the workload twice, untraced then traced.  The traced run
writes the benchmark's spans as Chrome Trace Event JSON and the per-layer
metrics include trace_overhead.<metric>, traced minus untraced, for every
end-to-end metric.  A metric of a layer the workload does not exercise
reads 0.  The exit code is 0 only if every output was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "4"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no cordon sources at {ROOT}; run from a full checkout")
        sys.exit(2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "cordon_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return build_dir


def drive(binary, build_dir, workload, seed, seconds, trace_file):
    tmp = build_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", str(tmp)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    env = dict(os.environ, CORDON_NUM_THREADS=THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: cordon_bench exceeded {RUN_TIMEOUT_S} s")
        sys.exit(2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: cordon_bench printed nothing (exit {proc.returncode})")
        sys.exit(2)
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, in BENCHMARK.json order)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds != spec["run_seconds"]:
        ap.error(f"--seconds {args.seconds}: the run length is fixed at "
                 f"run_seconds = {spec['run_seconds']} (BENCHMARK.json), so "
                 "every run of every commit measures the same work")

    build_dir = build()
    binary = build_dir / "cordon_bench"
    e2e = spec["end_to_end"]
    layer_names = [m["name"] for m in spec["per_layer"]]
    known = {m["name"] for m in e2e} | set(layer_names)
    all_correct = True
    for workload in [args.workload] if args.workload else names:
        untraced = drive(binary, build_dir, workload, args.seed, args.seconds,
                         None)
        runs = [untraced]
        record = dict(untraced)
        metrics = untraced["metrics"]
        if args.trace:
            trace_file = build_dir / "traces" / f"{workload}-seed{args.seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            traced = drive(binary, build_dir, workload, args.seed, args.seconds,
                           trace_file)
            runs.append(traced)
            metrics = dict(traced["metrics"])
            for m in e2e:
                metrics["trace_overhead." + m["name"]] = {
                    "value": traced["metrics"][m["name"]]["value"]
                    - untraced["metrics"][m["name"]]["value"],
                    "unit": m["unit"],
                }
            record = dict(traced, metrics=metrics, trace=str(trace_file))
            log(f"{workload}: trace written to {trace_file}")
        unknown = sorted(set(metrics) - known)
        if unknown:
            log(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
            sys.exit(2)

        if args.trace:
            out = {n: metrics.get(n, {"value": 0, "unit": unit_of(spec, n)})
                   for n in layer_names}
        else:
            missing = [m["name"] for m in e2e if m["name"] not in metrics]
            if missing:
                log(f"{workload}: end-to-end metrics not measured: {missing}")
                sys.exit(2)
            out = {m["name"]: metrics[m["name"]] for m in e2e}
        correct = all(r["correct"] for r in runs)
        all_correct = all_correct and correct
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": out,
        }), flush=True)
    sys.exit(0 if all_correct else 1)


def unit_of(spec, name):
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return ""


if __name__ == "__main__":
    main()
