"""The benchmark's tracer names library functions by module and attribute path.

perfbench/tracing.py is read, never edited, here: each TRACED entry must
resolve the way Tracer.install looks it up, so that renaming a traced
function fails this test rather than the traced benchmark run. The
benchmark's other files read library names outside the tracer; those are
read here too, and must resolve as well.
"""
import ast
import importlib
import importlib.util
import re
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


# The benchmark's files that read library names outside TRACED.
BENCHMARK_FILES = ("child.py", "run.py", "test_oracle.py")


def _benchmark_names() -> set[str]:
    """The dotted mukaitwist names that BENCHMARK_FILES read.

    Three kinds: every `from mukaitwist... import` name, every attribute
    chain rooted at a name a mukaitwist import binds, and every
    mukaitwist.X in a string constant (such as the code run.py passes to -c).
    """
    names = set()
    for file in BENCHMARK_FILES:
        tree = ast.parse((TRACING.parent / file).read_text())
        bound = {}  # a name an import binds -> the dotted path it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "mukaitwist":
                        names.add(alias.name)
                        # import a.b binds a; import a.b as c binds c to a.b.
                        bound[alias.asname or "mukaitwist"] = alias.name if alias.asname else "mukaitwist"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mukaitwist":
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\bmukaitwist(?:\.\w+)+", node.value))
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            owner = getattr(owner, part)
        except AttributeError:
            try:
                owner = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_benchmark_names_resolve():
    names = _benchmark_names()
    # One of each kind, so that a collector that finds nothing cannot pass.
    assert {"mukaitwist.k1_surface", "mukaitwist.verify._generator_pool", "mukaitwist.KERNEL_BACKEND"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []
