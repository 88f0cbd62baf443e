"""The package's public surface: each library module's ``__all__``, stated once."""

import ast
import importlib
import inspect
import pkgutil
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
