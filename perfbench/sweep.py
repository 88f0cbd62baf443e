"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload W ...] [--trace 0|1] [--out FILE]

For every workload, runs ``run.py`` once per seed, one run at a time, with
``run_seconds`` from BENCHMARK.json.  Prints, per metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median`` next to the metric's bound; ``--out`` writes every
run's result and these summaries as JSON, which is how the committed
baseline was made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summaries to this JSON file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed={seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["machine"] = next((ln for ln in lines if ln.startswith("machine ")), "")
            runs.append(result)
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for metric in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0,
                               "bound": bounds.get(metric)}
            print(f"  {metric:<40} median {med:<12.6g} spread {summary[metric]['spread']:.4f}"
                  f"  bound {summary[metric]['bound']}")
        report["workloads"][name] = {"runs": runs, "summary": summary}
        if not all(r["correct"] for r in runs):
            status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
