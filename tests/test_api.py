"""The public API surface: every exported name resolves, and the removed
tree-walking evaluator with the API that served it stays gone."""

from __future__ import annotations

import importlib
import pkgutil

import ricciplane

REMOVED = ("Point", "evaluate", "fd_partial", "covered_max_abs")


def test_every_exported_name_resolves():
    assert len(set(ricciplane.__all__)) == len(ricciplane.__all__)
    assert [name for name in ricciplane.__all__ if not hasattr(ricciplane, name)] == []
    namespace: dict = {}
    exec("from ricciplane import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ricciplane.__all__)


def test_the_second_evaluator_is_gone():
    modules = [ricciplane] + [
        importlib.import_module(f"ricciplane.{info.name}") for info in pkgutil.iter_modules(ricciplane.__path__)
    ]
    assert len(modules) > 1
    assert [f"{m.__name__}.{name}" for m in modules for name in REMOVED if hasattr(m, name)] == []
