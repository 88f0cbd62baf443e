"""Benchmark of the shapedist experiment drivers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload convex-rate --seed 3 --seconds 30 --trace 0

With ``--trace 0`` it starts fresh processes (``child.py``), each of which
imports shapedist from ``src``, builds the workload's model and constants,
and makes one untraced driver call: at least ``MIN_CALLS`` of them, then
more while the next should end within ``--seconds``.  Process ``i`` of a run
with ``--seed S`` uses the driver base seed of ``S + i``, so the same seed
always gives the same inputs.  It reports medians
over those processes of the end-to-end metrics: ``setup_s``, ``wall_s``,
``replicates_per_s`` and ``peak_rss_mb``.  With ``--trace 1`` one process
traces the driver at ``workers=1`` and reports the per-layer metrics (see
``tracing.py``).

Every driver call writes its CSV or JSON output to a scratch directory
under ``.perfbench/``; the sha256 of each file is checked against
``reference.json``.  A mismatch, a ``FitError`` or a failed lemma check
counts as a failed operation.  Human-readable lines come first; the last
line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CALLS = 3
BUDGET_S = 170.0  # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(spec: dict, timeout: float) -> dict:
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{spec['workload']} {spec['mode']} call exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{spec['workload']} {spec['mode']} call exited with {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(spec: dict, seed: int, seconds: float) -> tuple:
    start = time.monotonic()
    calls = []
    durations = []
    while True:
        elapsed = time.monotonic() - start
        # start another process only if it should end by the deadline
        expected = statistics.median(durations) if durations else 0.0
        if len(calls) >= MIN_CALLS and elapsed + expected > seconds:
            break
        if calls and elapsed + max(durations) > BUDGET_S:
            break
        t0 = time.monotonic()
        # each process draws the inputs of the next base seed, so that a run's
        # median is taken over several inputs rather than one
        child = dict(spec, base_seed=workloads.base_seed(seed + len(calls)))
        calls.append(_run_child(child, BUDGET_S - elapsed))
        durations.append(time.monotonic() - t0)
    med = lambda key: statistics.median(c[key] for c in calls)  # noqa: E731
    metrics = {
        "setup_s": (med("setup_s"), "s"),
        "wall_s": (med("wall_s"), "s"),
        "replicates_per_s": (statistics.median(c["replicates"] / c["wall_s"] for c in calls), "1/s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return calls, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shapedist" / "__init__.py").is_file():
        print(f"perfbench: no shapedist sources under {ROOT / 'src'}; "
              "run from the root of a shapedist checkout", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=out_root)
    # A single-worker run is pinned to one CPU, so it does not migrate between CPUs.
    cpu = max(os.sched_getaffinity(0)) if workloads.workers_for(args.workload) == 1 else None
    spec = {"workload": args.workload, "scratch": scratch, "seconds": args.seconds,
            "cpu": cpu, "mode": "trace" if args.trace else "call"}
    try:
        if args.trace:
            calls = [_run_child(dict(spec, base_seed=workloads.base_seed(args.seed)), BUDGET_S)]
            metrics = {k: (v["value"], v["unit"]) for k, v in calls[0]["metrics"].items()}
        else:
            calls, metrics = _end_to_end(spec, args.seed, args.seconds)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    machine = calls[0]["machine"]
    base_seeds = ",".join(str(workloads.base_seed(args.seed + i)) for i in range(len(calls)))
    print(f"workload={args.workload} seed={args.seed} base_seeds={base_seeds} "
          f"processes={len(calls)} trace={args.trace} workers={workloads.workers_for(args.workload)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    for note in sorted({n for c in calls for n in c["notes"]}):
        print(f"  failure: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
