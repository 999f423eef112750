"""The benchmark's per-layer tracer binds package functions by name.

``perfbench/child.py`` replaces each binding listed in its ``TRACED``
and ``SETUP_END`` tables with a timing wrapper.  A refactor that drops
one of those imports would otherwise only show as a crash of
``perfbench/run.py --trace 1``; this test catches it in the suite.
"""

import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for _, path, attr in child.TRACED] + child.SETUP_END,
    ids=lambda value: str(value),
)
def test_traced_binding_resolves(path, attr):
    owner = child._owner(path)
    assert callable(getattr(owner, attr, None)), f"{path} has no callable {attr!r}"
