"""The benchmark tracer patches signeddec functions by name: every name it
lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "table", ["SPAN_FUNCTIONS", "BOUNDARY_FUNCTIONS", "COUNT_FUNCTIONS"]
)
def test_tracer_names_exist(table):
    for module_name, names in getattr(_tracer(), table).items():
        module = importlib.import_module(f"signeddec.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"signeddec.{module_name}.{name}"
