"""Span tracing of the mdcrt layers, installed from outside the library.

Each listed public function is replaced, for the duration of a traced
phase, by a wrapper that records a span (name, start, end, parent span,
op id). The wrapper is bound under every name through which an mdcrt
module reaches the function (``cvp`` in ``mdcrt.robust`` as well as in
``mdcrt.lattice``), so calls between layers nest. Nothing is installed
outside ``Tracer.installed()``; the untraced runs execute the library as
shipped.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# module -> public functions whose spans the traced run records
LAYERS = {
    "lattice": ("cvp", "min_distance"),
    "robust": (
        "recover_folding_vectors",
        "robust_reconstruct",
        "sample_in_range",
        "sample_error",
    ),
    "residue": ("mod_reduce", "folding_vector", "uniform_residue"),
    "crt": ("CcSolver.solve", "crt_general", "crt_pair"),
    "divisibility": ("gcld", "lcrm", "hermite_canonical"),
    "intmat": ("smith", "solve_integer"),
    "freqest": ("sample_signal", "md_dft", "detect_remainder", "estimate_frequency"),
}

LABELS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# root span the benchmark opens around each op; its self time is the part
# of the op spent outside every listed function
OP = "op"

NAME, START, END, PARENT, OP_ID = range(5)


class Tracer:
    """In-memory span recorder.

    ``keep_returns`` names labels whose return values are kept, paired
    with the op id, for analysis after the traced phase.
    """

    def __init__(self, keep_returns=()):
        self.spans: list[list] = []
        self.op_id = -1
        self.returns: dict[str, list] = {label: [] for label in keep_returns}
        self._stack: list[int] = []

    def _wrap(self, label, fn):
        spans = self.spans
        stack = self._stack
        kept = self.returns.get(label)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append((self.op_id, result))
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op."""
        self.op_id = op_id
        span = [OP, perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Bind the wrappers into every loaded mdcrt module, then restore."""
        mdcrt_modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "mdcrt" or name.startswith("mdcrt."))
        ]
        patches = []
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"mdcrt.{mod_name}")
            for fn in fns:
                label = f"{mod_name}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[meth]
                    patches.append((owner, meth, orig, self._wrap(label, orig)))
                    continue
                orig = getattr(mod, fn)
                wrapper = self._wrap(label, orig)
                for m in mdcrt_modules:
                    for attr, value in vars(m).items():
                        if value is orig:
                            patches.append((m, attr, orig, wrapper))
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig, _ in reversed(patches):
                setattr(owner, attr, orig)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """label -> (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        totals: dict[str, list] = {}
        for s, c in zip(self.spans, child):
            entry = totals.setdefault(s[NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += s[END] - s[START] - c
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path) -> None:
        """One JSON array per span: name, start and end in microseconds
        from the first span, parent index, op id."""
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [
                            s[NAME],
                            round((s[START] - origin) * 1e6, 3),
                            round((s[END] - origin) * 1e6, 3),
                            s[PARENT],
                            s[OP_ID],
                        ]
                    )
                )
                fh.write("\n")
