"""Per-layer tracing for one benchmark process: wraps qjordan's public entry points.

Callers inside the package bind functions under their own names
(``from .lattice import inner`` makes ``qjordan.sjb.inner``), so every
``qjordan.*`` module attribute and class attribute that *is* an original
entry point gets the wrapper, not just the defining module's.  Methods are
patched on their class.

A timed entry point records calls, inclusive time and self time (its time
minus the time of the timed spans it called).  Scalar ops of ``CycInt`` and
``LatticeVector`` are only counted: a clock read costs more than the op.
Kernel spans also record the matrices they reduced and the bytes computed
from the batch shape (the int64 batch read and written once, plus the int64
rank per matrix); these are arithmetic on shapes, not measured traffic.
Each span adds the matrices reduced beneath it to every enclosing span, so
``covers_of`` and ``orbit_table`` can report useful outputs per matrix.
"""

from __future__ import annotations

import sys
import time

# (layer, module, attribute path, kind); kind is "time", "count" or "kernel"
ENTRY_POINTS = (
    ("kernels", "_kernels", "rref_batch", "kernel"),
    ("kernels", "_kernels", "rank_batch", "kernel"),
    ("gflinalg", "gflinalg", "subspaces_from_matrix_batch", "time"),
    ("gflinalg", "gflinalg", "Subspace.from_matrix", "time"),
    ("gflinalg", "gflinalg", "Subspace.to_json", "time"),
    ("gflinalg", "gflinalg", "Subspace.from_json", "time"),
    ("cyclotomic", "cyclotomic", "CycInt.__add__", "count"),
    ("cyclotomic", "cyclotomic", "CycInt.__mul__", "count"),
    ("cyclotomic", "cyclotomic", "CycInt.conj", "count"),
    ("cyclotomic", "cyclotomic", "CycInt.from_root_counts", "count"),
    ("lattice", "lattice", "inner", "time"),
    ("lattice", "lattice", "up_apply", "time"),
    ("lattice", "lattice", "covers_of", "time"),
    ("lattice", "lattice", "enumerate_rank", "time"),
    ("lattice", "lattice", "LatticeVector.__add__", "count"),
    ("haction", "haction", "theta", "time"),
    ("haction", "haction", "gamma", "time"),
    ("haction", "haction", "p_chi", "time"),
    ("haction", "haction", "orbit_table", "time"),
    ("haction", "haction", "verify_decomposition", "time"),
    ("sjb", "sjb", "construct_sjb", "time"),
    ("sjb", "sjb", "verify_sjb", "time"),
    ("sjb", "sjb", "sjb_to_json", "time"),
    ("sjb", "sjb", "sjb_from_json", "time"),
    ("scheme", "scheme", "eigentable", "time"),
    ("scheme", "scheme", "adjacency_apply", "time"),
    ("scheme", "scheme", "grassmann_graph", "time"),
    ("scheme", "scheme", "matrix_tree_oracle", "time"),
    ("scheme", "scheme", "bareiss_det", "time"),
    ("scheme", "scheme", "check_theorem_gg", "time"),
)

# entry point -> size of its useful output, for useful outputs / matrices reduced
USEFUL = {
    "lattice.covers_of": len,
    "haction.orbit_table": lambda table: len(table.orbit),
}


def metric_name(layer: str, attr: str) -> str:
    """``CycInt.__add__`` -> ``cyclotomic.CycInt.add``."""
    return f"{layer}.{attr.replace('__', '')}"


class Stat:
    __slots__ = ("calls", "self_s", "matrices", "bytes", "useful", "reduced")

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, 0)


class Tracer:
    """Installs wrappers on construction; ``stats`` maps metric prefixes to Stat."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.bindings: dict[str, int] = {}
        # one frame per open timed span: [child seconds, matrices reduced beneath]
        self._stack: list[list] = []
        for layer, module, attr, kind in ENTRY_POINTS:
            self._install(layer, module, attr, kind)

    def _install(self, layer: str, module: str, attr: str, kind: str) -> None:
        name = metric_name(layer, attr)
        stat = self.stats[name] = Stat()
        self.bindings[name] = 0
        mod = sys.modules.get(f"qjordan.{module}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(leaf) if owner is not None else None
        if raw is None:
            return  # entry point gone: zero bindings, which the runner reports
        is_classmethod = isinstance(raw, classmethod)
        orig = raw.__func__ if is_classmethod else raw
        if kind == "count":
            wrapper = _counter(orig, stat)
        else:
            wrapper = self._timer(orig, stat, kind == "kernel", USEFUL.get(name))
        bound = classmethod(wrapper) if is_classmethod else wrapper
        if owner_name:
            targets = [owner]
        else:
            targets = [
                m for key, m in list(sys.modules.items())
                if key == "qjordan" or key.startswith("qjordan.")
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is raw:
                    setattr(target, key, bound)
                    self.bindings[name] += 1

    def _timer(self, orig, stat: Stat, kernel: bool, useful):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            if kernel:
                mats = args[0]
                frame[1] = mats.shape[0]
                stat.matrices += mats.shape[0]
                stat.bytes += 2 * mats.nbytes + 8 * mats.shape[0]
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += frame[1]
            if useful is not None and frame[1]:
                stat.useful += useful(result)
                stat.reduced += frame[1]
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def summary(self) -> dict:
        return {
            name: {**{f: getattr(s, f) for f in Stat.__slots__}, "bindings": self.bindings[name]}
            for name, s in self.stats.items()
        }


def _counter(orig, stat: Stat):
    def wrapper(*args, **kwargs):
        stat.calls += 1
        return orig(*args, **kwargs)

    wrapper.__wrapped__ = orig
    return wrapper
