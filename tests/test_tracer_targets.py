"""The benchmark tracer's targets exist under the names it rebinds.

``perfbench/spans.py`` rebinds functions and properties of epcodes by name,
and only a traced benchmark run exercises that.  These checks read its
lists, without installing the tracer, so that renaming a traced function or
turning a traced property into a ``cached_property`` fails here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from epcodes.code import EpCode
from epcodes.fp import FpCode

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    for span, (mod, attr) in spans.FUNCTIONS.items():
        target = getattr(importlib.import_module(f"epcodes.{mod}"), attr, None)
        assert callable(target), span


def test_every_traced_property_is_a_plain_property(spans):
    for attr in spans.PREDICATES:
        assert isinstance(FpCode.__dict__.get(attr), property), attr
    for attr in spans.INVARIANTS:
        assert isinstance(EpCode.__dict__.get(attr), property), attr
    assert callable(getattr(EpCode, "generator_matrix", None))
