"""Every library name the benchmark tracer wraps must still resolve.

`perfbench/tracer.py` installs its layer wrappers by (module, attribute)
and (module, class, method); a renamed or deleted target would only show
up as a failed `--trace 1` run, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracer.FUNCTIONS])
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for m, c, f, *_ in tracer.METHODS])
def test_wrapped_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])
