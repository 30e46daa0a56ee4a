"""Per-layer timing of qtorus from outside the program.

``Tracer.install`` replaces each listed public function of ``src/qtorus``
with a wrapper, in every qtorus namespace that holds it: ``solver`` binds
``rank``, ``intmat`` and friends at import, and ``harness`` keeps its
checkers in the ``ALL_CHECKERS`` tuple, so patching only the defining
module would miss those calls.  A wrapper counts calls and measures its
span; a span's self time is its duration minus the time its child spans
cover.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path) of every traced function.  A class name alone
# traces its constructor.  A target missing from the program is skipped and
# reports zero calls.
TARGETS = (
    ("lattice", "hnf"),
    ("lattice", "intmat"),
    ("lattice", "kernel_with_complement"),
    ("lattice", "rank"),
    ("lattice", "skew_rank"),
    ("lattice", "primitive"),
    ("lattice", "Sublattice.span"),
    ("valuegroup", "merge"),
    ("valuegroup", "embed"),
    ("pairing", "pairing_of"),
    ("pairing", "tensor"),
    ("pairing", "is_commutative"),
    ("pairing", "center_is_trivial"),
    ("pairing", "Pairing.commutator"),
    ("solver", "dimension"),
    ("solver", "single_form_dimension"),
    ("solver", "brute_force_dimension"),
    ("harness", "PairAnalysis"),
    ("harness", "check_superadditivity"),
    ("harness", "check_upper_bound"),
    ("harness", "check_strict"),
    ("harness", "check_additivity"),
)


def _cells(matrix) -> int:
    """Rows times columns of a 2-d array or of a sequence of rows."""
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return shape[0] * shape[1]
    return len(matrix) * len(matrix[0]) if len(matrix) else 0


class Tracer:
    """Call counts, self seconds and raised exceptions per traced name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.raised: Counter = Counter()
        self.hnf_cells = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s, raised = self.calls, self.self_s, self.raised
        count_cells = name == "lattice.hnf"

        def traced(*args, **kwargs):
            if count_cells:
                self.hnf_cells += _cells(args[0])
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[name] += 1
                raise
            finally:
                span = perf_counter() - start
                self_s[name] += span - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += span

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "qtorus" or n.startswith("qtorus.")]
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            module = importlib.import_module(f"qtorus.{module_name}")
            head, _, method = path.partition(".")
            target = getattr(module, head, None)
            if target is None:  # gone from the program: reported as never called
                continue
            if method or isinstance(target, type):
                cls, attr = target, method or "__init__"
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, target)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is target:
                        self._set(ns, attr, wrapper)
                    elif isinstance(value, tuple) and any(v is target for v in value):
                        self._set(ns, attr, tuple(wrapper if v is target else v for v in value))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
