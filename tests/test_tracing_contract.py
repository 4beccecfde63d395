"""The benchmark's tracer names library functions by module and attribute path.

perfbench/tracing.py is read, never edited, here: each TRACED entry must
resolve the way Tracer.install looks it up, so that renaming a traced
function fails this test rather than the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_name_resolves(span):
    module_name, path = TRACED[span]
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        target = getattr(owner, cls_name).__dict__[attr]
        if isinstance(target, classmethod):
            target = target.__func__
    else:
        target = getattr(owner, path)
    assert callable(target)
