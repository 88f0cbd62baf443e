"""The benchmark's workloads: one public ``shapedist.experiments`` driver each.

Each workload fixes a driver, its configuration and the output files the
driver writes.  A benchmark seed picks the driver's ``base_seed`` from a
set of ``SEED_SLOTS`` values, so every driver call can be checked against
output digests recorded once per slot in ``reference.json``.
"""

import hashlib
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SEED_SLOTS = 32

# Why each workload is here, and the layer it is meant to stress, is kept in
# README.md next to this file; BENCHMARK.json carries the one-line version.
WORKLOADS = {
    "convex-rate": {
        "driver": "run_convex_rate",
        "config": {"model": "truncated-exponential", "params": (1.0,), "target": "convex",
                   "n_grid": (512, 1024, 2048, 4096, 8192), "replicates": 20},
        "workers": 1,
        "files": ("rate.csv", "rate.summary.csv"),
    },
    "monotone-rate": {
        "driver": "run_monotone_rate",
        "config": {"model": "truncated-exponential", "params": (1.0, 1.0), "target": "monotone",
                   "n_grid": tuple(512 * 2 ** i for i in range(7)), "replicates": 10},
        "workers": 1,
        "files": ("rate.csv", "rate.summary.csv"),
    },
    "beta-events": {
        "driver": "run_event_frequency",
        "config": {"model": "beta-like", "params": (2.0,), "target": "convex",
                   "n_grid": (2048, 4096, 8192), "replicates": 60, "tau_quantile": 0.9,
                   "c0_sweep": (0.5, 1.0, 2.0, 4.0)},
        "workers": 2,
        "files": ("events.csv", "events.summary.csv"),
    },
    "lemma-suite": {
        "driver": "run_lemma_suite",
        "config": {"model": "truncated-exponential", "params": (1.0,), "target": "convex",
                   "n_grid": (128,), "replicates": 2000},
        "workers": 1,
        "files": ("lemmas.json",),
    },
}


def base_seed(seed: int) -> int:
    """Driver ``base_seed`` for a benchmark seed: one of ``SEED_SLOTS`` recorded slots."""
    return 1 + seed % SEED_SLOTS


def workers_for(name: str) -> int:
    """The workload's worker count, never above the machine's CPU count."""
    return max(1, min(WORKLOADS[name]["workers"], os.cpu_count() or 1))


def make_config(experiments, name: str, seed_value: int, workers: int, out_dir: str):
    """The driver's ``ExperimentConfig``, writing its outputs into ``out_dir``."""
    spec = WORKLOADS[name]
    out = os.path.join(out_dir, spec["files"][0])
    return experiments.ExperimentConfig(base_seed=seed_value, workers=workers, out=out,
                                        **spec["config"])


def replicates(name: str) -> int:
    """Monte Carlo replicates one driver call completes.

    Rate and event drivers: rows of the replicate CSV.  Lemma suite: its
    configured replicate count (each replicate spans every Monte Carlo check).
    """
    cfg, driver = WORKLOADS[name]["config"], WORKLOADS[name]["driver"]
    if driver == "run_lemma_suite":
        return cfg["replicates"]
    sweep = len(cfg["c0_sweep"]) if driver == "run_event_frequency" else 1
    return sweep * len(cfg["n_grid"]) * cfg["replicates"]


def lemma_failures(name: str, result) -> tuple:
    """``(checks attempted, checks failed)`` of a lemma-suite report, else ``(0, 0)``."""
    if WORKLOADS[name]["driver"] != "run_lemma_suite":
        return 0, 0
    checks = result["checks"]
    return len(checks), sum(1 for c in checks if not c["pass"])


def digests(name: str, out_dir: str) -> dict:
    """sha256 of each output file the driver wrote; a missing file digests as ``None``."""
    got = {}
    for fname in WORKLOADS[name]["files"]:
        path = os.path.join(out_dir, fname)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                got[fname] = hashlib.sha256(fh.read()).hexdigest()
        else:
            got[fname] = None
    return got


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def digest_mismatches(name: str, seed_value: int, got: dict, reference: dict) -> list:
    """Output files whose digest differs from the recorded one (or has none recorded)."""
    want = reference.get(name, {}).get(str(seed_value), {})
    return [f for f in WORKLOADS[name]["files"] if got.get(f) is None or got.get(f) != want.get(f)]
