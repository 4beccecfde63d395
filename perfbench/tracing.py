"""Spans around the public calls into each mukaitwist module.

The tracer wraps functions and methods from outside the library: every
binding of a wrapped function in a loaded mukaitwist module is replaced, so
calls through re-exports and `from x import y` names are caught too. A span
is (name, start, end, parent); spans stay in flat arrays in memory and are
written to one file when the traced run ends. A layer's self time is its
span time minus the time its child spans cover.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

# Span name -> (module, attribute path) of the public call it wraps.
TRACED = {
    "kernels.matmul": ("mukaitwist._kernels", "matmul"),
    "kernels.matvec": ("mukaitwist._kernels", "matvec"),
    "kernels.bilinear": ("mukaitwist._kernels", "bilinear"),
    "kernels.quadform": ("mukaitwist._kernels", "quadform"),
    "kernels.norm_scan": ("mukaitwist._kernels", "norm_scan"),
    "intmat.new": ("mukaitwist.intmat", "IntMatrix.__init__"),
    "intmat.matmul": ("mukaitwist.intmat", "IntMatrix.__matmul__"),
    "intmat.hnf": ("mukaitwist.intmat", "hermite_normal_form"),
    "intmat.snf": ("mukaitwist.intmat", "smith_normal_form"),
    "intmat.kernel_basis": ("mukaitwist.intmat", "kernel_basis"),
    "intmat.determinant": ("mukaitwist.intmat", "determinant"),
    "intmat.solve": ("mukaitwist.intmat", "solve"),
    "lattices.inner": ("mukaitwist.lattices", "Lattice.inner"),
    "lattices.isometry_new": ("mukaitwist.lattices", "Isometry.__init__"),
    "lattices.isometry_compose": ("mukaitwist.lattices", "Isometry.__matmul__"),
    "lattices.reflection": ("mukaitwist.lattices", "reflection"),
    "lattices.short_vectors": ("mukaitwist.lattices", "short_vectors"),
    "lattices.fixed_sublattice": ("mukaitwist.lattices", "fixed_sublattice"),
    "lattices.signature": ("mukaitwist.lattices", "signature"),
    "mukai.vector_new": ("mukaitwist.mukai", "MukaiVector.__init__"),
    "mukai.pairing": ("mukaitwist.mukai", "mukai_pairing"),
    "mukai.twisted_involution": ("mukaitwist.mukai", "twisted_involution"),
    "prng.substream": ("mukaitwist.prng", "substream"),
    "verify.square": ("mukaitwist.verify", "verify_square_congruence"),
    "verify.characteristic": ("mukaitwist.verify", "verify_characteristic_congruence"),
    "verify.invariant_lattice": ("mukaitwist.verify", "verify_invariant_lattice"),
    "verify.phi.words": ("mukaitwist.verify", "verify_phi_integrality"),
    "ktheory.from_file": ("mukaitwist.ktheory", "CohomologySpec.from_file"),
    "ktheory.k1_surface": ("mukaitwist.ktheory", "k1_surface"),
    "ktheory.e4_page": ("mukaitwist.ktheory", "e4_page"),
}

_HITS = "kernels.norm_scan"  # the span whose result length is also counted


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack
        counters = self.counters
        clock = time.perf_counter
        count_hits = name == _HITS

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count_hits:
                    counters[name + ".hits"] = counters.get(name + ".hits", 0) + len(result)
                return result
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced call in the loaded mukaitwist modules."""
        modules = [m for k, m in sys.modules.items() if k == "mukaitwist" or k.startswith("mukaitwist.")]
        for name, (module_name, path) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def write(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.name_of)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(f)


def read_layers(path: str) -> tuple[dict[str, list], dict[str, int]]:
    """Per span name: [calls, self seconds]; plus the counters of the file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = [array(code) for code in "iddi"]
        for arr in arrays:
            arr.fromfile(f, n)
    name_of, start, end, parent = arrays
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    layers: dict[str, list] = {}
    names = header["names"]
    for i in range(n):
        entry = layers.setdefault(names[name_of[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - child_time[i]
    return layers, header["counters"]
