"""The program names the benchmark's span tracer wraps must stay defined."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _targets()],
                         ids=lambda x: getattr(x, "__name__", x))
def test_traced_name_exists(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
