"""Command line interface.

Subcommands: ``rate`` (log-log convergence fit), ``events`` (shape-event
frequency sweep), ``lemmas`` (deterministic + Monte Carlo check suite).
Flags override config-file values.  The config file is flat ``key = value``
lines whose keys are ``ExperimentConfig`` field names, with ``-`` read as
``_`` (``#`` starts a comment).  Four keys differ from their flags:
``replicates`` (``--reps``), ``base_seed`` (``--seed``), ``k_override``
(``--k``) and ``tau_quantile`` (``--tau-q``).

Exit codes: 0 success, 1 check/convergence failure, 2 bad configuration.
"""

import argparse
import json
import sys
from dataclasses import fields

from .convexlse import FitError
from .curves import _CHECK_COLUMNS
from .experiments import (
    _EVENT_SUMMARY_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _fmt,
    run_convex_rate,
    run_event_frequency,
    run_lemma_suite,
    run_monotone_rate,
)

#: Config keys and their defaults; a key's value is coerced to its default's
#: type, and a tuple's elements to the type of its default's first element.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _split(text: str) -> list:
    return [piece for piece in text.replace(",", " ").split() if piece]


def _coerce(key: str, text: str):
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(v) for v in _split(text))
        return type(default)(text)
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from err


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file into config fields."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, text.strip())
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--model", help="catalog model name")
    common.add_argument("--params", help="model parameters, comma separated")
    common.add_argument("--n-grid", dest="n_grid", help="sample sizes, comma separated")
    common.add_argument("--reps", dest="replicates", type=int, help="replicates per size")
    common.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    common.add_argument("--c0", type=float, help="cell-count rule constant")
    common.add_argument("--c0-sweep", dest="c0_sweep", help="c0 values for events sweep")
    common.add_argument("--k", dest="k_override", type=int, help="fixed cell count (override rule)")
    common.add_argument("--tau-q", dest="tau_quantile", type=float,
                        help="CDF mass at the working endpoint")
    common.add_argument("--out", help="output path (CSV or JSON)")
    common.add_argument("--workers", type=int, help="parallel worker count")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv", help="stdout format")

    parser = argparse.ArgumentParser(prog="shapedist",
                                     description="shape-constrained estimator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    rate = sub.add_parser("rate", parents=[common], help="convergence-rate fit")
    rate.add_argument("--case", choices=("monotone", "convex"), required=True)
    events = sub.add_parser("events", parents=[common], help="shape-event frequencies")
    events.add_argument("--case", choices=("monotone", "convex"), default="convex")
    sub.add_parser("lemmas", parents=[common], help="inequality check suite")
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and flags (in increasing precedence)."""
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _DEFAULTS:
        got = getattr(args, key, None)
        if got is not None:
            values[key] = _coerce(key, got) if isinstance(got, str) else got
    case = getattr(args, "case", None)
    if case is not None:
        values["target"] = case
    return ExperimentConfig(**values)


# Each subcommand returns (exit code, JSON document, CSV columns, CSV rows);
# ``main`` prints the document or the rows in the chosen format.

def _rate(config: ExperimentConfig):
    result = (run_monotone_rate if config.target == "monotone" else run_convex_rate)(config)
    fits = {"sup_F_diff": result.fit_F, "sup_H_diff": result.fit_H}
    doc = {name: {"slope": f.slope, "intercept": f.intercept, "stderr": f.stderr}
           for name, f in fits.items() if f is not None}
    return 0, doc, ("distance", "slope", "stderr", "intercept"), \
        [dict(fit, distance=name) for name, fit in doc.items()]


def _events(config: ExperimentConfig):
    summary = run_event_frequency(config)
    return 0, summary, _EVENT_SUMMARY_COLUMNS, summary


def _lemmas(config: ExperimentConfig):
    report = run_lemma_suite(config)
    return 0 if report["pass"] else 1, report, _CHECK_COLUMNS, report["checks"]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"rate": _rate, "events": _events, "lemmas": _lemmas}
    try:
        code, doc, columns, rows = handlers[args.command](build_config(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FitError as err:
        print(f"fit failure: {err}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(row[c]) for c in columns))
    return code


if __name__ == "__main__":
    sys.exit(main())
