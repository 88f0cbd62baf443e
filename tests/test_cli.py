"""Command line surface: flags, config files, formats, exit codes."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shapedist.cli as cli
from shapedist.convexlse import FitError
from shapedist.experiments import ConfigError

RATE_ARGS = ["rate", "--case", "convex", "--model", "truncated-exponential",
             "--params", "1.0", "--n-grid", "64,128,256", "--reps", "2", "--seed", "5"]


def test_rate_json_output(capsys):
    assert cli.main(RATE_ARGS + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert set(got) == {"sup_F_diff", "sup_H_diff"}
    for fit in got.values():
        assert set(fit) == {"slope", "intercept", "stderr"}
        assert isinstance(fit["slope"], float)


def test_rate_csv_output(capsys):
    assert cli.main(RATE_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "distance,slope,stderr,intercept"
    assert len(lines) == 3
    assert lines[1].startswith("sup_F_diff,") and lines[2].startswith("sup_H_diff,")


def test_events_json_output(capsys):
    code = cli.main(["events", "--case", "convex", "--model", "truncated-exponential",
                     "--params", "1.0", "--n-grid", "128", "--reps", "3",
                     "--seed", "5", "--k", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in rows] == [2]
    assert set(rows[0]) == {"model", "target", "c0", "n", "k", "freq", "bound", "vacuous"}


def test_lemmas_exit_zero_and_csv(capsys):
    code = cli.main(["lemmas", "--model", "truncated-exponential", "--params", "1.0",
                     "--n-grid", "128", "--reps", "100", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,pass,lhs,rhs,margin"
    assert all(",True," in line for line in lines[1:])


def test_lemmas_stdout_independent_of_workers(capsys):
    args = ["lemmas", "--model", "truncated-exponential", "--params", "1.0",
            "--reps", "50", "--seed", "1"]
    outs = []
    for workers in ("1", "2"):
        assert cli.main(args + ["--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_lemmas_exit_one_on_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_lemma_suite", lambda cfg: {
        "checks": [{"name": "x", "pass": False, "lhs": 1.0, "rhs": 0.0, "margin": -1.0}],
        "pass": False,
    })
    assert cli.main(["lemmas", "--model", "truncated-exponential", "--params", "1.0"]) == 1


def test_fit_error_exit_one(monkeypatch, capsys):
    def boom(cfg):
        raise FitError("synthetic failure")

    monkeypatch.setattr(cli, "run_convex_rate", boom)
    assert cli.main(RATE_ARGS) == 1
    assert "synthetic failure" in capsys.readouterr().err


EVENTS_ARGS = ["events", "--model", "truncated-exponential", "--params", "1.0",
               "--n-grid", "64", "--reps", "1"]


def test_config_error_exit_two(capsys):
    bad = [
        RATE_ARGS + ["--c0", "0"],
        RATE_ARGS + ["--c0", "nan"],
        RATE_ARGS + ["--c0", "inf"],
        RATE_ARGS + ["--config", "/nonexistent/conf"],
        RATE_ARGS + ["--params", "abc"],
        # model settings the model catalog rejects
        RATE_ARGS + ["--model", "nope"],
        RATE_ARGS + ["--tau-q", "1.5"],
        RATE_ARGS + ["--params", "-1"],
        RATE_ARGS + ["--params", "inf"],
        # the events c0 sweep: non-empty, every value positive and finite
        EVENTS_ARGS + ["--c0-sweep=-1,1"],
        EVENTS_ARGS + ["--c0-sweep="],
        EVENTS_ARGS + ["--c0-sweep=0,1"],
        EVENTS_ARGS + ["--c0-sweep=1,nan"],
        # an output path whose directory is missing, refused before any replicate runs
        RATE_ARGS + ["--out", "/nonexistent/rate.csv"],
        ["lemmas", "--model", "truncated-exponential", "--params", "1.0",
         "--out", "/nonexistent/lemmas.json"],
        # a base seed that seed_for's 64 bits cannot hold
        RATE_ARGS + ["--seed", "-1"],
        RATE_ARGS + ["--seed", str(2**64)],
    ]
    for args in bad:
        assert cli.main(args) == 2, args
        assert capsys.readouterr().err.startswith("config error"), args


def test_non_finite_params_are_a_config_error(capsys):
    # refused by the catalog before the model is built, with its own message
    assert cli.main(RATE_ARGS + ["--params", "nan"]) == 2
    assert capsys.readouterr().err == "config error: rate must be positive and finite\n"


# sha256 of stdout, exit code and stderr of each command in CSV and JSON,
# frozen so that how the subcommands print cannot move a byte
STDOUT_SHA256 = [
    (RATE_ARGS, 0, "f41365939afd7567ace5f953687d30831402ff02ecbed999c30df24d3d85e4b4",
     "289ada017e21d206e92ffbd20f6b5b5296a27b40b00506213d6e50e77d248890", ""),
    (["rate", "--case", "monotone", "--model", "truncated-exponential", "--params", "1.0,1.0",
      "--n-grid", "64,128,256", "--reps", "3", "--seed", "5"], 0,
     "89354511333c31bcef991b60621564dbb5b916ebe92262ce1f0ae239b410c47d",
     "02cbd03a2f172d6537a10fe71e0f8e7fddb5aed17371ea54370c31375f3597b7", ""),
    (["events", "--case", "monotone", "--model", "truncated-exponential", "--params", "1.0,1.0",
      "--n-grid", "64,128", "--reps", "3", "--seed", "5", "--c0-sweep", "1,2"], 0,
     "78558fd64ecfdd521a14eaca87ff173844013540207dbc75ae4a97d2064332f6",
     "4dc7f4d900657f0dd1afad0ee3caf5e805fc513670eacb4cdb483c9b869bb668", ""),
    # 20 replicates are too few for every Monte Carlo check: exit code 1
    (["lemmas", "--model", "truncated-exponential", "--params", "1.0", "--reps", "20",
      "--seed", "1"], 1,
     "269b8d4f836ab700039e25a692a3d3fb39f83161578e7c665ea71a492b3d1d6f",
     "2d8720afeb1face0399268bcf539ffdbc1013d1d51a29fe3f67e67da511d67f2", ""),
    (RATE_ARGS + ["--c0", "0"], 2, hashlib.sha256(b"").hexdigest(), hashlib.sha256(b"").hexdigest(),
     "config error: c0 must be positive and finite\n"),
]


@pytest.mark.parametrize("args, code, csv_sha, json_sha, err", STDOUT_SHA256)
def test_stdout_bytes_frozen(capsys, args, code, csv_sha, json_sha, err):
    for fmt, sha in (("csv", csv_sha), ("json", json_sha)):
        assert cli.main(args + ["--format", fmt]) == code
        got = capsys.readouterr()
        assert hashlib.sha256(got.out.encode()).hexdigest() == sha, fmt
        assert got.err == err


def test_load_config_file(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text(
        "# sample config\n"
        "model = truncated-exponential\n"
        "params = 1.0\n"
        "n-grid = 64, 128, 256   # dashes map to underscores\n"
        "replicates = 7\n"
        "k-override = 2\n"
        "base_seed = 9\n"
        "tau-quantile = 0.5\n"
    )
    values = cli.load_config_file(str(p))
    assert values == {"model": "truncated-exponential", "params": (1.0,),
                      "n_grid": (64, 128, 256), "replicates": 7, "k_override": 2,
                      "base_seed": 9, "tau_quantile": 0.5}
    # keys are config field names, not flag names
    for flag_name, key in (("reps", "reps"), ("tau-q", "tau_q")):
        (tmp_path / "flag.conf").write_text(f"model = uniform\n{flag_name} = 2\n")
        with pytest.raises(ConfigError, match=f"flag.conf:2: unknown key '{key}'"):
            cli.load_config_file(str(tmp_path / "flag.conf"))
    (tmp_path / "bad1.conf").write_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        cli.load_config_file(str(tmp_path / "bad1.conf"))
    (tmp_path / "bad2.conf").write_text("model truncated-exponential\n")
    with pytest.raises(ConfigError):
        cli.load_config_file(str(tmp_path / "bad2.conf"))
    (tmp_path / "bad3.conf").write_text("replicates = many\n")
    with pytest.raises(ConfigError):
        cli.load_config_file(str(tmp_path / "bad3.conf"))


def test_flags_override_config_file(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("model = truncated-exponential\nparams = 1.0\nreplicates = 7\n"
                 "n-grid = 64 128\nk-override = 2\n")
    cfg = cli.build_config(argparse.Namespace(config=str(p), replicates=3))
    assert cfg.replicates == 3  # flag wins
    assert cfg.model == "truncated-exponential"
    assert cfg.n_grid == (64, 128)
    assert cfg.k_override == 2


def test_events_with_config_file_end_to_end(tmp_path, capsys):
    p = tmp_path / "run.conf"
    p.write_text("model = truncated-exponential\nparams = 1.0\n"
                 "n-grid = 128\nreplicates = 5\nk-override = 2\nbase-seed = 5\n")
    code = cli.main(["events", "--config", str(p), "--reps", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["n"] == 128 and rows[0]["k"] == 2


def _console_script_command():
    """The ``shapedist`` command, in the form ``subprocess.run`` takes.

    An installed script on PATH is used as is. From a source checkout, the
    ``[project.scripts]`` target in ``pyproject.toml`` is run the way the
    wrapper that pip generates runs it, with the imported package's parent
    directory first on the child's ``PYTHONPATH``.
    """
    script = shutil.which("shapedist")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    src_dir = Path(cli.__file__).resolve().parent.parent
    with open(src_dir.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["shapedist"]
    module, func = target.split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], env


def test_console_script_smoke():
    command, env = _console_script_command()
    got = subprocess.run(command + RATE_ARGS + ["--format", "json"],
                         capture_output=True, text=True, timeout=300, env=env)
    assert got.returncode == 0
    assert "sup_F_diff" in got.stdout
