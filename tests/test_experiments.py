"""Experiment drivers: seeding, determinism, summaries, lemma suite."""

import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest

import shapedist.bounds as bounds
import shapedist.empirical as empirical
import shapedist.experiments as experiments
from shapedist import cli
from shapedist.bounds import convexity_event_bound
from shapedist.curves import _CHECK_COLUMNS
from shapedist.empirical import sample, seed_for
from shapedist.experiments import (
    REPLICATE_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _ols,
    k_rule,
    run_convex_rate,
    run_event_frequency,
    run_lemma_suite,
    run_monotone_rate,
)
from shapedist.models import constants, make_model


def small_monotone_config(**kw):
    base = dict(model="truncated-exponential", params=(1.0, 1.0), target="monotone",
                n_grid=(64, 128, 256), replicates=3, base_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def small_convex_config(**kw):
    base = dict(model="truncated-exponential", params=(1.0,), target="convex",
                n_grid=(64, 128, 256), replicates=2, base_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_k_rule_frozen_values():
    # ceil((n / log n)^(1/3)) at n=512 is 5; the convex rule takes the
    # fifth root; tiny n floors at 2.
    assert k_rule(512, 1.0, 1) == 5
    assert k_rule(512, 1.0, 2) == 3
    assert k_rule(2, 1.0, 2) == 2
    assert k_rule(512, 1.0, 1, c0=8.0) == math.ceil((8.0 * 512 / math.log(512)) ** (1 / 3))
    # beta enters squared
    assert k_rule(10**6, 2.0, 2) == math.ceil((4.0 * 10**6 / math.log(10**6)) ** 0.2)
    with pytest.raises(ValueError):
        k_rule(1, 1.0, 1)


def test_ols_recovers_exact_power_law():
    x = np.linspace(-8.0, -2.0, 7)
    fit = _ols(x, 0.65 * x + 1.25)
    assert math.isclose(fit.slope, 0.65, rel_tol=1e-12)
    assert math.isclose(fit.intercept, 1.25, rel_tol=1e-12)
    assert fit.stderr < 1e-12
    rng = np.random.default_rng(0)
    noisy = _ols(x, 0.65 * x + 1.25 + rng.normal(scale=1e-3, size=7))
    assert abs(noisy.slope - 0.65) < 5e-3
    with pytest.raises(ConfigError):
        _ols([-1.0, -2.0], [0.5, 1.0])


def test_monotone_rate_rows_and_seeds():
    cfg = small_monotone_config()
    res = run_monotone_rate(cfg)
    assert len(res.rows) == 9 and len(res.summary) == 3
    assert res.fit_H is None
    cons = constants(make_model(cfg.model, cfg.params))
    for row in res.rows:
        assert set(row) == set(REPLICATE_COLUMNS)
        assert row["seed"] == seed_for(cfg.base_seed, row["n"], row["replicate"])
        assert row["k"] == k_rule(row["n"], cons.beta1, 1, cfg.c0)
        assert row["sup_H_diff"] is None
        assert row["event_An"] in (0, 1)
        assert row["sup_F_diff"] > 0.0
    for srow in res.summary:
        assert math.isclose(
            srow["root_n_mean_sup_F_diff"],
            math.sqrt(srow["n"]) * srow["mean_sup_F_diff"], rel_tol=1e-12)
        assert 0.0 <= srow["event_freq"] <= 1.0
    assert np.isfinite(res.fit_F.slope)


def test_convex_rate_has_both_fits():
    res = run_convex_rate(small_convex_config())
    assert res.fit_H is not None
    for row in res.rows:
        assert row["sup_F_diff"] > 0.0 and row["sup_H_diff"] > 0.0
        # the integrated distance is the smaller of the two at these sizes
        assert row["sup_H_diff"] < row["sup_F_diff"]
    assert np.isfinite(res.fit_F.slope) and np.isfinite(res.fit_H.slope)


# sha256 of the replicate and summary CSVs of each case below, frozen so that
# paths the benchmark workloads never run (monotone events with the KW tail
# bound, convex events at two c0 values) keep their bytes
RATE_CASES_SHA256 = [
    ("5c4a25f069deb5fbf8028aa40332f21e906e7758b5dc0967bdbb45f399e6c1d0",
     "b4af11c232a6201dc7ab6f9029ec92e05f8c9bb8bb4e23c602cc5ca36f0f2c72"),
    ("b601ba0c01f5912b767aa3170755e9cf54a34d02c7a0a57a691526522113131c",
     "b8dca2b079004558c889bee78a7d7babdf4cbe6d76b04a9a5b1108aef79520f6"),
    ("d60457905966549bc5db64b0954ced454517c44803456e26666280da795321f3",
     "27e959def9327c53a142cd46e4012ebbb99f9b1be947d2f6fcdc748660e590ba"),
    ("a09572bcdeed83ce6c7158f70afb41734b0f0554eef4978cf91dfbb99eea7a56",
     "36cbff81aa96f0fee060f6c64d1806301bcc3f4ccb82a514a390f316daf8c7b9"),
]


def test_rate_csv_identical_across_runs_and_workers(tmp_path):
    # both rate drivers, and the events driver for both targets: the same
    # bytes from two runs at workers=1 and one at workers=2
    cases = [
        (run_convex_rate, small_convex_config(), "rate"),
        (run_monotone_rate, small_monotone_config(), "rate"),
        (run_event_frequency, small_monotone_config(c0_sweep=(1.0, 2.0)), "events"),
        (run_event_frequency, small_convex_config(c0_sweep=(1.0, 2.0)), "events"),
    ]
    for i, (driver, config, schema) in enumerate(cases):
        blobs = []
        for run, workers in enumerate((1, 1, 2)):
            out = tmp_path / f"case{i}-run{run}.csv"
            driver(replace(config, out=str(out), workers=workers))
            blobs.append((out.read_bytes(), (out.parent / (out.stem + ".summary.csv")).read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2], (driver.__name__, config.target)
        assert tuple(hashlib.sha256(b).hexdigest() for b in blobs[0]) == RATE_CASES_SHA256[i], i
        head = blobs[0][0].decode().splitlines()
        assert head[0] == f"# shapedist-{schema}-v1"
        assert head[1].startswith("# model=truncated-exponential ")
        assert head[2] == ",".join(REPLICATE_COLUMNS)
        assert blobs[0][1].decode().splitlines()[0] == f"# shapedist-{schema}-summary-v1"


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark's driver
    configs and the reader of its recorded output digests."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("base_seed", [1, 6])
def test_convex_rate_keeps_the_benchmark_reference_bytes(tmp_path, base_seed):
    """The benchmark's convex-rate call (n = 512..8192, 20 replicates) writes
    the bytes recorded in ``perfbench/reference.json``, which this test only
    reads.  Base seed 6 is the one whose bytes a one-ulp change in where
    ``_window`` places the window's end moves (see ``CHANGES.md``).  Like the
    other byte pins, the digests hold only under the numpy SIMD dispatch and
    OpenBLAS kernels they were recorded with (AVX-512 on x86-64); a
    re-recorded reference carries this test along with it.
    """
    bench = _benchmark_workloads()
    config = bench.make_config(experiments, "convex-rate", base_seed, 1, str(tmp_path))
    run_convex_rate(config)
    got = bench.digests("convex-rate", str(tmp_path))
    assert bench.digest_mismatches("convex-rate", base_seed, got, bench.load_reference()) == []


@pytest.mark.parametrize("driver, target", [(run_monotone_rate, "monotone"),
                                            (run_convex_rate, "convex")])
def test_rate_csv_header_records_the_target_that_ran(tmp_path, driver, target):
    # the config names the other target; the header must name the one that ran
    other = "convex" if target == "monotone" else "monotone"
    driver(small_monotone_config(target=other, replicates=1, out=str(tmp_path / "rate.csv")))
    for name in ("rate.csv", "rate.summary.csv"):
        assert f" target={target} " in (tmp_path / name).read_text().splitlines()[1]


# beta-like events with a sweep whose k differ at 300 and 1000 and agree
# at 1 and 2 (k = 3, 2, 2, 4 at n = 128; 4, 2, 2, 5 at n = 256)
BETA_EVENTS = ExperimentConfig(model="beta-like", params=(2.0,), target="convex",
                               n_grid=(128, 256), replicates=4, base_seed=7, tau_quantile=0.9,
                               c0_sweep=(300.0, 1.0, 2.0, 1000.0))
BETA_EVENTS_SHA256 = {
    "events.csv": "6617b6607aa4f8dc1f4fc638b35631dd5371717095ef58c7027027896fd8164d",
    "events.summary.csv": "38aa7e1f74aefc958d804638d8495e245178b9b802b395668efd84d57bf2bf55",
}


def _event_digests(config, out_dir) -> dict:
    run_event_frequency(replace(config, out=str(out_dir / "events.csv")))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in BETA_EVENTS_SHA256}


def test_beta_events_bytes_frozen_across_workers_and_calls(tmp_path):
    # digests of a driver that redrew each sample per (c0, n, replicate):
    # drawing once per (n, replicate) must not change a byte.  workers=1
    # runs twice, so the second call reuses the process's cached meshes
    for i, workers in enumerate((1, 1, 2, 3)):
        out_dir = tmp_path / f"run{i}"
        out_dir.mkdir()
        assert _event_digests(replace(BETA_EVENTS, workers=workers), out_dir) \
            == BETA_EVENTS_SHA256, workers


def test_beta_events_list_params_give_the_same_bytes(tmp_path):
    # a list cannot key the per-process model cache; the driver must cope
    assert _event_digests(replace(BETA_EVENTS, params=[2.0]), tmp_path) == BETA_EVENTS_SHA256


def test_event_sweep_draws_each_sample_once(monkeypatch):
    draws = []

    def counted(model, n, seed):
        draws.append((n, seed))
        return sample(model, n, seed)

    monkeypatch.setattr(experiments, "sample", counted)
    cfg = BETA_EVENTS
    summary = run_event_frequency(cfg)
    assert len(summary) == len(cfg.c0_sweep) * len(cfg.n_grid)
    assert len(draws) == len(cfg.n_grid) * cfg.replicates
    assert len(set(draws)) == len(draws)


def test_event_frequency_with_k_override(tmp_path):
    out = tmp_path / "events.csv"
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128, 256), replicates=5, base_seed=5,
                           k_override=2, out=str(out))
    summary = run_event_frequency(cfg)
    beta2 = constants(make_model(cfg.model, cfg.params)).beta2
    assert [s["n"] for s in summary] == [128, 256]
    for s in summary:
        assert s["k"] == 2
        assert s["c0"] == 0.0  # sweep disabled under an override
        assert 0.0 <= s["freq"] <= 1.0
        assert math.isclose(s["bound"], convexity_event_bound(s["n"], 2, beta2), rel_tol=1e-12)
        assert s["vacuous"] == int(s["bound"] >= 1.0)
    lines = out.read_text().splitlines()
    assert lines[0] == "# shapedist-events-v1"
    assert (tmp_path / "events.summary.csv").read_text().splitlines()[0] \
        == "# shapedist-events-summary-v1"
    # frozen bytes of a run whose single sweep point is written as c0 = 0.0
    assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("events.csv", "events.summary.csv")] == [
        "8f8c35b809c2ccc4df8d54c241b91aebbf0dae6dc83f4e46e72028a8714e065d",
        "b87da1070d9c693afd9ad29035e7c5c54950c172f88cb9386486de507d4c0a9b"]


def test_event_frequency_sweeps_c0():
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=3, base_seed=5, c0_sweep=(1.0, 4.0))
    summary = run_event_frequency(cfg)
    assert [s["c0"] for s in summary] == [1.0, 4.0]
    beta2 = constants(make_model(cfg.model, cfg.params)).beta2
    assert summary[0]["k"] == k_rule(128, beta2, 2, 1.0)
    assert summary[1]["k"] == k_rule(128, beta2, 2, 4.0)


def test_replicate_workers_report_their_sample_size():
    # perfbench/tracing.py reads row["n"] from the result of every *_replicate
    # worker it wraps, to bin replicate times by sample size
    config = small_convex_config()
    row = experiments._replicate((config, True, 64, 1, (2, 3)))
    assert row["n"] == 64 and row["k"] == (2, 3) and len(row["event_An"]) == 2
    assert row["seed"] == seed_for(config.base_seed, 64, 1)
    assert experiments._lemma_replicate((config, 0))["n"] == max(experiments._MC_SIZES)


def test_config_validation():
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(n_grid=(64, 128)))  # needs 3 sizes
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(n_grid=(128, 64, 256)))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(n_grid=(64, 64, 128)))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(replicates=0))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(c0=0.0))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(workers=0))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(k_override=1))
    with pytest.raises(ConfigError):
        run_monotone_rate(small_monotone_config(params=(1.0,)))  # infinite support
    with pytest.raises(ConfigError):
        run_convex_rate(small_convex_config(model="uniform", params=()))  # beta2 = 0
    with pytest.raises(ConfigError):
        run_event_frequency(small_convex_config(target="nonsense"))


@pytest.mark.parametrize("bad", [
    dict(n_grid=(64.5, 128, 256)),
    dict(n_grid=(64, 128.0, 256)),
    dict(n_grid=(True, 128, 256)),
    dict(replicates=2.5),
    dict(replicates=True),
    dict(workers=1.5),
    dict(base_seed=1.5),
    dict(base_seed=np.float64(1.0)),
    dict(k_override=2.0),
])
def test_integer_fields_are_refused_where_they_enter(bad):
    # each of these used to die mid-run with a raw TypeError
    with pytest.raises(ConfigError, match="must be an integer"):
        run_monotone_rate(small_monotone_config(**bad))
    with pytest.raises(ConfigError, match="must be an integer"):
        run_lemma_suite(small_convex_config(**bad))


def test_numpy_integer_fields_run_as_python_ints(tmp_path):
    # numpy integers are integers: seed_for mixes them as Python ints, so
    # the rows and the CSV bytes match a config of plain ints
    out = [tmp_path / "py.csv", tmp_path / "np.csv"]
    plain = small_monotone_config(out=str(out[0]))
    numpy = small_monotone_config(
        n_grid=tuple(np.int64(n) for n in plain.n_grid), replicates=np.int64(3),
        base_seed=np.uint64(5), workers=np.int32(1), k_override=np.int64(0), out=str(out[1]))
    assert run_monotone_rate(numpy).rows == run_monotone_rate(plain).rows
    assert out[1].read_bytes() == out[0].read_bytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_base_seed_outside_64_bits_is_refused(seed):
    # seed_for keeps 64 bits, so 2**70 would silently run as seed 2**70 mod 2**64
    with pytest.raises(ConfigError, match="base_seed must lie in"):
        run_convex_rate(small_convex_config(base_seed=seed))
    experiments._validate(small_convex_config(base_seed=2**64 - 1))  # the top seed is allowed


LEMMA_SHA256 = "cf7964fe99670a2a59a714bba51ac0a7496056336e62a17490c2ea8352a241c9"

# the two suite rows whose pass is not lhs <= rhs: the Taylor bracket
# allows roundoff per pair, and the threshold asks 0 < lhs <= rhs
OWN_VERDICT_ROWS = {"taylor-bracket[pairs=1000]", "mesh-ratio-threshold"}


def assert_row_contract(checks):
    """Every suite row has the check columns in order, an exact margin, and a
    pass that is lhs <= rhs except in ``OWN_VERDICT_ROWS``."""
    assert OWN_VERDICT_ROWS <= {c["name"] for c in checks}
    for c in checks:
        assert tuple(c) == _CHECK_COLUMNS, c
        assert c["margin"] == c["rhs"] - c["lhs"], c
        if c["name"] not in OWN_VERDICT_ROWS:
            assert c["pass"] is (c["lhs"] <= c["rhs"]), c


def test_lemma_suite_report(tmp_path):
    out = tmp_path / "lemmas.json"
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=200, base_seed=1, out=str(out))
    report = run_lemma_suite(cfg)
    assert report["pass"]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert len(names) >= 40
    for c in report["checks"]:
        assert c["pass"], c
    assert_row_contract(report["checks"])
    on_disk = json.loads(out.read_text())
    assert on_disk["pass"] is True
    assert [c["name"] for c in on_disk["checks"]] == names
    # frozen bytes: how the check rows are built must not move a bit of the report
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LEMMA_SHA256


def test_lemma_suite_spreads_replicates_without_moving_a_bit(tmp_path, monkeypatch):
    # the Monte Carlo replicates go through the one replicate runner: at
    # workers=2 it opens a pool, and the report keeps every bit of workers=1
    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return Pool(*args, **kwargs)

    monkeypatch.setattr(experiments, "Pool", counting_pool)
    out = tmp_path / "lemmas.json"
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=200, base_seed=1, out=str(out), workers=2)
    assert run_lemma_suite(cfg)["pass"]
    assert pools == [{"processes": 2}]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LEMMA_SHA256


@pytest.mark.parametrize("model,params,reps,failing,digest", [
    ("shifted-power", (3.0, 1.0), 200, set(),
     "80ee0c81508207262464b148c16d74eb6f0cb9482da4de16b044586087391b74"),
    ("truncated-exponential", (2.0, 3.0), 200, set(),
     "e6da84052436af7abc77832e89fdb4bb7afd33fb7a4623988916d62aadba0b23"),
    # beta-like draws by bisection and is slow, so 20 replicates; it fails
    # slope-difference by cancellation (F is cubic, so the bound holds with
    # equality), and at 20 replicates two cell-mass frequencies exceed bounds
    ("beta-like", (2.0,), 20,
     {"slope-difference[k=50]", "mc-cell-mass[n=40000,p=0.01,delta=0.15,slack=0.0]",
      "mc-cell-mass[n=40000,p=0.01,delta=0.15,slack=-0.1]"},
     "7ab163ce1128141568a67cb040b43ef690ccd077aa191c7209799c66d38c038a"),
])
def test_lemma_suite_bytes_frozen_beyond_one_model(tmp_path, model, params, reps, failing,
                                                   digest):
    # the shape constants, curvature bounds and raw defects of a power law, a
    # truncated exponential and a cubic CDF, not only of Exp(1), keep every bit
    out = tmp_path / "lemmas.json"
    cfg = ExperimentConfig(model=model, params=params, target="convex",
                           n_grid=(128,), replicates=reps, base_seed=1, out=str(out))
    report = run_lemma_suite(cfg)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failing
    assert_row_contract(report["checks"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("base_seed,digest", [
    (2, "0a7ee7bd1d23007693322fcd79f6da0628eab7d22a444ae9d940a154ef36a544"),
    (2024, "6d717cd1cee369ee88fcf471ad4f5787f499ed0d8fde8a47cf63fe1bad9955d5"),
])
def test_lemma_suite_bytes_frozen_beyond_one_seed(tmp_path, base_seed, digest):
    # recorded when every Monte Carlo draw was sorted and prefix-summed: the
    # sort-free knot statistics move no threshold crossing at these seeds
    out = tmp_path / "lemmas.json"
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=500, base_seed=base_seed, out=str(out))
    assert run_lemma_suite(cfg)["pass"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_lemma_monte_carlo_never_sorts_a_draw(monkeypatch):
    # the Monte Carlo reads F_n and Y_n at four knots, so no draw becomes a
    # sorted sample
    def refuse(*args, **kwargs):
        raise AssertionError("the lemma Monte Carlo called sample")

    monkeypatch.setattr(experiments, "sample", refuse)
    monkeypatch.setattr(empirical, "sample", refuse)
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=10, base_seed=1)
    checks = experiments._suite_monte_carlo(experiments._validate(cfg), cfg)
    assert len(checks) == 12


def test_failing_lemma_check_is_reported_not_raised(monkeypatch, capsys):
    # a ratio above 2 on the fine mesh fails its row and the report; the
    # suite returns, and the CLI exits 1
    monkeypatch.setattr(bounds, "_mesh_ratios", lambda model, mesh: 3.0)
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=20, base_seed=1)
    report = run_lemma_suite(cfg)
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["mesh-ratio[k=80]"]["pass"] is False
    assert rows["mesh-ratio[k=80]"]["lhs"] == 3.0
    assert report["pass"] is False
    assert cli.main(["lemmas", "--model", "truncated-exponential", "--params", "1.0",
                     "--reps", "20", "--seed", "1"]) == 1
    assert "mesh-ratio[k=80],False,3.0," in capsys.readouterr().out


def test_lemma_suite_deterministic():
    cfg = ExperimentConfig(model="truncated-exponential", params=(1.0,), target="convex",
                           n_grid=(128,), replicates=50, base_seed=1)
    a = run_lemma_suite(cfg)
    b = run_lemma_suite(cfg)
    assert a == b
