"""The package functions that the benchmark's tracer wraps by name.

`bench/tracer.py` looks up every function of its LAYERS table in
ricciplane when a traced run starts, so a rename or deletion there
breaks the traced benchmark; this test makes it break tier-1 as well.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists_in_the_package():
    tracer = _load_tracer()
    missing = []
    for module_name, functions in tracer.LAYERS.values():
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{name}" for name in functions if not callable(getattr(module, name, None))]
    assert tracer.LAYERS and missing == []
