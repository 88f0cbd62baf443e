"""One benchmark process: set up shapedist, run a workload's driver, report.

``run.py`` starts this script in a fresh interpreter, with the checkout's
``src`` on ``PYTHONPATH`` and BLAS threads pinned to 1, as

    python3 perfbench/child.py '<json spec>'

The spec names the workload, the driver's ``base_seed``, the mode, a
scratch directory and the parent's ``time.monotonic()`` just before the
process was started.  The last line on stdout is a JSON report.

Modes:
  ``call``   one untraced driver call at the workload's worker count.
  ``trace``  alternating untraced and traced driver calls at ``workers=1``
             while a round of both fits in ``seconds``, plus one call at the workload's
             worker count that only counts pools; reports per-layer metrics
             and writes the spans of the first traced call next to the
             scratch directory.
"""

import json
import os
import platform
import resource
import sys
import tempfile
import time

import workloads
from workloads import WORKLOADS


def _machine(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Checker:
    """Counts the operations of a run and those that failed."""

    def __init__(self, name, seed_value, reference):
        self.name, self.seed_value, self.reference = name, seed_value, reference
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def call(self, experiments, workers, scratch):
        """One driver call; returns ``(wall seconds, output digests)``."""
        out_dir = tempfile.mkdtemp(dir=scratch)
        config = workloads.make_config(experiments, self.name, self.seed_value, workers, out_dir)
        driver = getattr(experiments, WORKLOADS[self.name]["driver"])
        t0 = time.perf_counter()
        try:
            result = driver(config)
        except experiments.FitError as err:
            result = None
            self.failed += 1
            self.notes.append(f"FitError: {err}")
        wall = time.perf_counter() - t0
        self.attempted += workloads.replicates(self.name)
        if result is not None:
            checks, bad = workloads.lemma_failures(self.name, result)
            self.attempted += checks
            self.failed += bad
            if bad:
                self.notes.append(f"{bad} lemma checks failed")
        got = workloads.digests(self.name, out_dir)
        bad = workloads.digest_mismatches(self.name, self.seed_value, got, self.reference)
        self.attempted += len(got)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"output differs from reference: {', '.join(bad)}")
        return wall, got


def measure(spec: dict) -> dict:
    """Set up shapedist, run the calls ``spec`` asks for, and return the report."""
    name, seed_value, scratch = spec["workload"], spec["base_seed"], spec["scratch"]
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})

    import numpy as np
    import scipy

    import shapedist.experiments as experiments
    from shapedist.models import constants, make_model

    config = workloads.make_config(experiments, name, seed_value, 1, scratch)
    constants(make_model(config.model, config.params, config.tau_quantile))
    setup_s = time.monotonic() - spec["t_spawn"]

    checker = Checker(name, seed_value, workloads.load_reference())
    report = {"setup_s": setup_s, "machine": _machine(np, scipy)}
    if spec["mode"] == "call":
        wall, _ = checker.call(experiments, workloads.workers_for(name), scratch)
        report.update(wall_s=wall, replicates=workloads.replicates(name),
                      peak_rss_mb=_peak_rss_mb())
    else:
        report["metrics"] = _trace(spec, checker, experiments, scratch)
    report.update(attempted=checker.attempted, failed=checker.failed, notes=checker.notes)
    return report


def _trace(spec, checker, experiments, scratch) -> dict:
    from tracing import Tracer, installed, layer_metrics

    tracer, pool_tracer = Tracer(), Tracer()
    traced, untraced = [], []
    deadline = time.monotonic() + spec["seconds"]
    while True:
        round_start = time.monotonic()
        # alternate which call goes first, so that neither side always pays
        # for first-call costs in the process
        if tracer.call % 2:
            untraced.append(checker.call(experiments, 1, scratch)[0])
        with installed(tracer, experiments):
            wall, got_1 = checker.call(experiments, 1, scratch)
        traced.append(wall)
        if tracer.call % 2 == 0:
            untraced.append(checker.call(experiments, 1, scratch)[0])
        tracer.call += 1
        if tracer.call == 1 and workloads.workers_for(checker.name) > 1:
            with installed(pool_tracer, experiments):
                _, got_w = checker.call(experiments, workloads.workers_for(checker.name), scratch)
            checker.attempted += 1
            if got_w != got_1:
                checker.failed += 1
                checker.notes.append("outputs differ between workers=1 and the workload's workers")
        # start another round only if it should end by the deadline
        if 2 * time.monotonic() - round_start > deadline:
            break
    first = [s for s in tracer.spans if s[6] == 0]
    spans_path = os.path.join(os.path.dirname(scratch),
                              f"spans-{checker.name}-{checker.seed_value}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "parent", "start", "end", "child_s", "call"],
                   "spans": first}, fh)
    return {k: {"value": v, "unit": u}
            for k, (v, u) in layer_metrics(tracer, pool_tracer, traced, untraced).items()}


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
