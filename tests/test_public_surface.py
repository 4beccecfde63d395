"""Every public name of the package is reached by a command, a criterion or the benchmark.

The rule: every name in mukaitwist.__all__, and every public attribute in
the vars() of each exported class, occurs in a reader file. The reader
files are the package's modules other than __init__.py (what the commands
run), tests/test_acceptance.py (the acceptance criteria) and perfbench/*.py
(the benchmark; read here, never edited). A name occurs as an identifier,
an attribute, an imported name, or a word of a string constant in a
perfbench file, which covers the tracer's span table and the code run.py
passes to -c. Docstrings do not count, and neither do the unit tests.

This is a textual guard, not an oracle: a name occurs wherever its
spelling does, whatever it refers to. A member can pass because a local
variable or another object's attribute shares its name; IntMatrix.zero
once passed through the local `zero` of definiteness_from_signature, and
Lattice.label through direct_sum reading `first.label` to build a label
that nothing read. A name it flags is unreached; a name it passes may
still be.
"""
import ast
import inspect
import re
from pathlib import Path

import mukaitwist

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mukaitwist"


def _reader_files() -> list[tuple[Path, bool]]:
    """(path, whether its string constants count) for each reader file."""
    files = [(path, False) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files.append((ROOT / "tests" / "test_acceptance.py", False))
    files += [(path, True) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return files


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the string constants that are docstrings."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def occurrences(source: str, strings: bool) -> set[str]:
    """The names source reads: identifiers, attributes, imported names, and with strings, string words."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


def _read() -> set[str]:
    names = set()
    for path, strings in _reader_files():
        names |= occurrences(path.read_text(), strings)
    return names


def _public_members() -> list[str]:
    """Class.attribute for each public attribute of each exported class."""
    out = []
    for name in mukaitwist.__all__:
        obj = getattr(mukaitwist, name)
        if inspect.isclass(obj):
            out += [f"{name}.{attr}" for attr in vars(obj) if not attr.startswith("_")]
    return out


READ = _read()


def test_exported_names_are_read():
    assert sorted(name for name in mukaitwist.__all__ if name not in READ) == []


def test_public_class_members_are_read():
    members = _public_members()
    # The classes' own members are found, so an empty list cannot pass.
    assert {"IntMatrix.transpose", "Lattice.inner", "VerificationReport.check_json"} <= set(members)
    assert sorted(member for member in members if member.rsplit(".", 1)[1] not in READ) == []


def test_what_counts_as_an_occurrence():
    source = '''
"""module docstring: docword"""
from pkg.mod import imported
import pkg.dotted


def f(arg):
    """function docstring: docword"""
    local = obj.attribute
    return "string word"
'''
    code = occurrences(source, strings=False)
    assert {"imported", "pkg", "dotted", "obj", "attribute", "local"} <= code
    # Definitions and parameters are not reads; neither are docstrings or, in code, strings.
    assert not {"f", "arg", "docword", "string", "word"} & code
    assert occurrences(source, strings=True) - code == {"string", "word"}
