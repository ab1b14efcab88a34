"""Every name the perfbench tracer wraps must exist in galstrat.

perfbench/tracing.py patches its targets through `holder.__dict__[attr]`, so
a refactor that renames or drops one breaks traced runs only.  This test
reads the target tables (the module is loaded, never installed) and fails
in the ordinary suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = {**tracing.TIMED, **tracing.COUNTED}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    module_name, attr, cls = TARGETS[name]
    module = importlib.import_module(module_name)
    holder = getattr(module, cls) if cls else module
    where = f"{module_name}.{cls}" if cls else module_name
    assert attr in vars(holder), f"{name}: {where} has no {attr}"
    assert callable(vars(holder)[attr])
