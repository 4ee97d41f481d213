"""The benchmark tracer (bench/tracing.py) wraps package functions by name.

A renamed or deleted entry point leaves its per-layer metrics null, and
only the benchmark's self-check would notice, after minutes of toy runs;
this resolves every name up front.  The tracer module is only loaded,
never installed, so nothing in the package is wrapped.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_tracer_entry_point_resolves():
    entry_points = _entry_points()
    assert entry_points
    missing = []
    for module_name, attr, _ in entry_points:
        try:
            module = importlib.import_module(f"pcompliance.{module_name}")
            target = functools.reduce(getattr, attr.split("."), module)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if not callable(target):
            missing.append(f"{module_name}.{attr} (not callable)")
    assert missing == []
