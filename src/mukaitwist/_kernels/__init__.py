"""Integer linear-algebra kernels with an optional compiled fast path.

Two interchangeable backends implement the same flat-sequence API:

* ``_fast`` -- Cython, checked int64 arithmetic; present only when the
  extension was built. Raises OverflowError when an entry or result leaves
  its guaranteed-exact range. It converts entries to C integers without
  checking their type, so a Fraction entry would be silently truncated.
* ``_pure`` -- plain Python, arbitrary precision, exact on ints and Fractions.

Matrix arguments are IntMatrix data, hence ints; vector arguments may hold
Fractions. One rule dispatches every kernel: a call whose vector entries
are all ints runs on ``_fast`` and reruns on ``_pure`` only when ``_fast``
raises OverflowError; a call with any other vector entry, such as a
Fraction, runs on ``_pure``; any other exception propagates. Without
``_fast`` the kernels are the ``_pure`` functions themselves.
"""
from . import _pure

try:
    from . import _fast
except ImportError:
    _fast = None

BACKEND = "cython" if _fast is not None else "pure"


def _kernel(name: str, *vector_args: int):
    """The dispatched kernel `name`; `vector_args` are the positions that may hold Fractions."""
    pure = getattr(_pure, name)
    if _fast is None:
        return pure
    fast = getattr(_fast, name)

    def kernel(*args):
        for i in vector_args:
            # A sum of ints is an int; one Fraction entry makes it a Fraction.
            if type(sum(args[i])) is not int:
                return pure(*args)
        try:
            return fast(*args)
        except OverflowError:
            return pure(*args)

    return kernel


matmul = _kernel("matmul")
matvec = _kernel("matvec", 1)
bilinear = _kernel("bilinear", 1, 2)
quadform = _kernel("quadform", 1)
norm_scan = _kernel("norm_scan")
