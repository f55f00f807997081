"""Benchmark of the `scar` CLI: end-to-end time, peak memory and set-up time.

    python3 bench/run.py --workload {retrograde,theorems-n4,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Every pass runs in a fresh interpreter, one at a
time, with numeric thread pools pinned to one thread. The run first starts
SETUP_SAMPLES interpreters that only set up and one that verifies the
workload's tables, then runs passes until --seconds have gone by (at least
one). With --trace 0 it reports the medians of wall_s, peak_rss_mb and
setup_s; with --trace 1 it runs one untraced and one traced
pass per round and reports the per-layer metrics of the traced passes. The
last line of stdout is one JSON object; the exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS, make_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / "_work"

SETUP_SAMPLES = 10
DEADLINE_S = 170  # every run must end within 180 s
END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(spec_path, mode, deadline, spans_out=None):
    """Run one worker; returns (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), mode]
    if spans_out:
        cmd.append(str(spans_out))
    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - spawned


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = WORKDIR / f"{workload}-seed{seed}"
    spec = make_spec(workload, seed, workdir)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    setups = [spawn(spec_path, "setup", deadline)[1] for _ in range(SETUP_SAMPLES)]
    verified = spawn(spec_path, "verify", deadline)[0]
    passes, traced = [], []
    measuring = last = time.monotonic()
    while not passes or (time.monotonic() - measuring < seconds
                         and 2 * time.monotonic() - last < deadline):
        last = time.monotonic()
        result, setup = spawn(spec_path, "pass", deadline)
        setups.append(setup)
        passes.append(result)
        if trace:
            spans = workdir / f"spans-{len(traced)}.jsonl"
            traced.append(spawn(spec_path, "trace", deadline, spans)[0])

    errors = verified["errors"] + [e for p in passes + traced for e in p["errors"]]
    digests = {p["stdout_sha256"] for p in passes + traced}
    if len(digests) != 1:
        errors.append("stdout differs between passes (traced or not)")
    attempted = sum(p["attempted"] for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    if trace:
        metrics = layer_metrics(spec, passes, traced)
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                  "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for e in errors:
        print(f"{workload}: CHECK FAILED: {e}")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}: pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print(f"{workload}: {len(passes)} passes, {len(traced)} traced, {len(setups)} set-ups, "
          f"{attempted} operations attempted, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(spec, passes, traced):
    """Medians over traced passes; counts are the same in every pass."""
    layers = [t["layer"] for t in traced]
    overheads = [t["wall_s"] - p["wall_s"] for p, t in zip(passes, traced)]
    mismatches = 0
    for name, want in spec["predicted"].items():
        got = layers[0].get(name, 0)
        if got != want:
            mismatches += 1
            print(f"{spec['workload']}: traced {name} = {got}, predicted {want}",
                  file=sys.stderr)
    extra = {"trace.overhead_s": statistics.median(overheads),
             "trace.overhead_ratio": statistics.median(
                 o / p["wall_s"] for o, p in zip(overheads, passes)),
             "trace.count_mismatches": mismatches}
    out = {}
    for name, unit in PER_LAYER:
        vals = [extra[name]] if name in extra else [lay.get(name, 0) for lay in layers]
        out[name] = {"value": statistics.median(vals), "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "scar" / "__init__.py").is_file():
        print(f"error: no scar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
