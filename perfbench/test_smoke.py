"""Tiny-size smoke test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

Shrinks every workload to a few small replicates and runs the benchmark's
own code in this process, so it checks the plumbing, not the timings.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import shapedist.experiments as experiments  # noqa: E402

TINY = {
    "convex-rate": {"n_grid": (64, 128, 256), "replicates": 2},
    "monotone-rate": {"n_grid": (64, 128, 256), "replicates": 2},
    "beta-events": {"n_grid": (256, 512), "replicates": 3, "c0_sweep": (1.0, 2.0)},
    "lemma-suite": {"replicates": 20},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and record references at that size.

    Seed 0 runs base seeds 1, 2, 3 (``run.MIN_CALLS`` processes), so those
    are the ones recorded.
    """
    for name, change in TINY.items():
        spec = dict(workloads.WORKLOADS[name])
        spec["config"] = dict(spec["config"], **change)
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    reference = {}
    for name in TINY:
        driver = getattr(experiments, workloads.WORKLOADS[name]["driver"])
        reference[name] = {}
        for seed_value in range(1, run.MIN_CALLS + 1):
            out = tmp_path / f"{name}-{seed_value}"
            out.mkdir()
            driver(workloads.make_config(experiments, name, seed_value, 1, str(out)))
            reference[name][str(seed_value)] = workloads.digests(name, str(out))
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(workloads, "REFERENCE", path)
    monkeypatch.setattr(run, "_run_child",
                        lambda spec, timeout: child.measure(dict(spec, t_spawn=time.monotonic())))
    return reference


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _declared(kind)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert result["attempted"] >= 1
        if name != "lemma-suite":  # 20 replicates are too few for its tail-bound checks
            assert result["correct"] and result["failed"] == 0


def test_beta_events_counts_pools_and_repeated_draws(tiny, capsys):
    metrics = _result(capsys, "beta-events", 1)["metrics"]
    cfg = workloads.WORKLOADS["beta-events"]["config"]
    grid = len(cfg["c0_sweep"]) * len(cfg["n_grid"])
    if workloads.workers_for("beta-events") > 1:
        assert metrics["experiments.pools_opened"]["value"] == grid
    assert metrics["empirical.sample.unique_frac"]["value"] == pytest.approx(1 / len(cfg["c0_sweep"]))


def test_corrupted_reference_is_a_failure_not_a_crash(tiny, capsys, tmp_path):
    name = "monotone-rate"
    digest = tiny[name]["1"]["rate.csv"]
    tiny[name]["1"]["rate.csv"] = hashlib.sha256(digest.encode()).hexdigest()
    workloads.REFERENCE.write_text(json.dumps(tiny))
    result = _result(capsys, name, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_wrappers_restore_the_original_bindings(tiny, tmp_path):
    before = dict(vars(experiments))
    tracer = tracing.Tracer()
    cfg = workloads.make_config(experiments, "convex-rate", 1, 1, str(tmp_path))
    with tracing.installed(tracer, experiments):
        assert experiments.fit_lse is not before["fit_lse"]
        experiments.run_convex_rate(cfg)
    assert vars(experiments) == before
    assert tracer.fit_iterations and len(tracer.fit_iterations) == tracer.layer_totals()["convexlse"][0]

    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, experiments):
            raise RuntimeError("interrupted")
    assert vars(experiments) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "convex-rate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
