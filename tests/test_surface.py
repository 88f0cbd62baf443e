"""The package's public surface: each library module's ``__all__``, stated once."""

import ast
import importlib
import inspect
import json
import os
from pathlib import Path
import pkgutil
import platform
import subprocess
import sys
import textwrap
import types

import pytest

import shapedist

# every submodule but the command line entry point is part of the library
LIBRARY = [importlib.import_module(f"shapedist.{info.name}")
           for info in pkgutil.iter_modules(shapedist.__path__) if info.name != "cli"]


def top_level_definitions(module) -> set:
    """Names a module binds itself at top level: defs, classes and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_every_public_name_is_defined_in_its_module(module):
    # a name listed in __all__ but imported from elsewhere would be a second
    # public home for it
    assert len(module.__all__) == len(set(module.__all__)), module.__all__
    assert set(module.__all__) <= top_level_definitions(module)


def test_package_reexports_exactly_the_union_of_the_modules_surfaces():
    union = [name for module in LIBRARY for name in module.__all__]
    assert len(union) == len(set(union)), "a public name is listed by two modules"
    public = {name for name, value in vars(shapedist).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(union)
    assert sorted(shapedist.__all__) == sorted(union)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(shapedist, name) is getattr(module, name), name


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports shapedist from this
    checkout; return the JSON object it prints last.  The test process has
    scipy loaded already, so module loads are counted in a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(Path(shapedist.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = run_fresh("""
        import json, sys
        import shapedist, shapedist.cli
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    assert loaded == []


def test_a_cold_driver_call_loads_no_module(tmp_path):
    # numpy loads numpy.random on first use and np.unique loads numpy.ma:
    # either inside a driver call would count against its wall time
    added = run_fresh(f"""
        import json, os, sys
        from shapedist import experiments as E
        calls = [
            ("run_convex_rate", dict(n_grid=(32, 48, 64), replicates=2)),
            ("run_monotone_rate", dict(params=(1.0, 1.0), target="monotone",
                                       n_grid=(32, 48, 64), replicates=2)),
            ("run_event_frequency", dict(model="beta-like", params=(2.0,), n_grid=(64,),
                                         replicates=2, c0_sweep=(1.0,))),
            ("run_lemma_suite", dict(n_grid=(32,), replicates=4)),
        ]
        added = {{}}
        for driver, kw in calls:
            before = set(sys.modules)
            out = os.path.join({str(tmp_path)!r}, driver + ".out")
            getattr(E, driver)(E.ExperimentConfig(base_seed=1, workers=1, out=out, **kw))
            added[driver] = sorted(set(sys.modules) - before)
        print(json.dumps(added))
    """)
    assert added == {driver: [] for driver in ("run_convex_rate", "run_monotone_rate",
                                               "run_event_frequency", "run_lemma_suite")}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_import_lets_malloc_reuse_blocks_of_a_few_mib():
    # a 4 MiB temporary made twice: above glibc's starting mmap threshold the
    # second one faults in its 1024 pages again, as the first did
    faults = run_fresh("""
        import json, resource
        import numpy as np
        import shapedist

        def temporary():
            np.ones(1 << 19)

        temporary()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        temporary()
        print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
    """)
    assert faults < 100
