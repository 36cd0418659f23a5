"""Span recorder for the traced benchmark run.

The tracer wraps the entry points of each pqdec layer (and the numpy kernels
they call) from outside the package, by replacing module and class
attributes for the duration of a traced pass.  Every call becomes a span
(name, start, end, parent, thread) kept in flat arrays in memory; the spans
are reduced to per-layer counts and self times, and written to a file, when
the pass ends.

A layer's self time is its span's duration minus the union of its child
spans' intervals.  Restart threads start with an empty stack; their spans
take as parent the innermost open span of the main thread, which is the
search call that is waiting for them.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from array import array
from math import prod

import numpy as np

# (layer name, module path, attribute path).  The decoupling sub-layers have
# no public entry point, so their current private names are wrapped.
HOOKS = (
    ("cli.main", "pqdec.cli", "main"),
    ("states.load_state", "pqdec.states", "load_state"),
    ("states.save_state", "pqdec.states", "save_state"),
    ("states.random_density", "pqdec.states", "random_density"),
    ("qmat.validate_density", "pqdec.qmat", "validate_density"),
    ("qmat.partial_trace", "pqdec.qmat", "partial_trace"),
    ("entropics.mutual_information", "pqdec.entropics", "mutual_information"),
    ("entropics.spectrum_entropy", "pqdec.entropics", "spectrum_entropy"),
    # decoupling binds spectrum_entropy by name at import.
    ("entropics.spectrum_entropy", "pqdec.decoupling", "spectrum_entropy"),
    ("isometries.parameters_from_unitary", "pqdec.isometries", "parameters_from_unitary"),
    ("isometries.complete_to_unitary", "pqdec.isometries", "complete_to_unitary"),
    ("isometries.from_parameters", "pqdec.isometries", "from_parameters"),
    ("decoupling.objective", "pqdec.decoupling", "_Scorer.scores"),
    ("decoupling.unitary_map", "pqdec.decoupling", "_expm_params"),
    ("decoupling.descend", "pqdec.decoupling", "_descend"),
    ("decoupling.polish", "pqdec.decoupling", "_polish"),
    ("decoupling.restart", "pqdec.decoupling", "_solve_restart"),
    ("decoupling.optimize_xi", "pqdec.decoupling", "optimize_xi"),
    ("decoupling.povm_upper", "pqdec.decoupling", "povm_upper"),
    ("decoupling.bounds_report", "pqdec.decoupling", "bounds_report"),
    ("decoupling.rates_sweep", "pqdec.decoupling", "rates_sweep"),
    ("numpy.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numpy.eigh", "numpy.linalg", "eigh"),
    ("numpy.tensordot", "numpy", "tensordot"),
    ("numpy.trace", "numpy", "trace"),
)

# Kernels whose work is counted in stacked matrices rather than calls, so a
# batched rewrite keeps the count comparable.
STACKED = {"numpy.eigvalsh", "numpy.eigh"}

OP = "bench.op"


def _stack_size(args, kwargs) -> int:
    shape = np.shape(args[0] if args else kwargs.get("a"))
    return prod(shape[:-2]) if len(shape) > 2 else 1


class Tracer:
    """Records spans around the hooked entry points while installed."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.weight = array("q")
        self.start = array("d")
        self.end = array("d")
        self.restarts_considered = 0
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, weight: int) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        ident = threading.get_ident()
        with self._lock:
            tid = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(tid)
            self.weight.append(weight)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return stack, idx

    def _close(self, stack: list[int], idx: int) -> None:
        self.end[idx] = time.perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; used for the op root spans."""
        token = self._open(self._name_id(name), 1)
        try:
            yield
        finally:
            self._close(*token)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        opened, closed = self._open, self._close
        if name in STACKED:
            def wrapper(*args, **kwargs):
                token = opened(name_id, _stack_size(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(*token)
        elif name == "decoupling.optimize_xi":
            def wrapper(*args, **kwargs):
                token = opened(name_id, 1)
                try:
                    outcome = fn(*args, **kwargs)
                finally:
                    closed(*token)
                self.restarts_considered += int(getattr(outcome, "restarts_used", 0))
                return outcome
        else:
            def wrapper(*args, **kwargs):
                token = opened(name_id, 1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closed(*token)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the hooks -------------------------------------------------

    def install(self) -> None:
        for name, module_path, attr_path in HOOKS:
            self._name_id(name)
            try:
                owner = importlib.import_module(module_path)
            except ImportError:
                owner = None
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{name} ({module_path}.{attr_path})")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int32).copy(),
            "weight": np.frombuffer(self.weight, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span and the name table to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def self_times(self, a: dict[str, np.ndarray]) -> np.ndarray:
        dur = a["end"] - a["start"]
        parent, thread = a["parent"], a["thread"]
        n = dur.size
        has_parent = parent >= 0
        same = np.zeros(n, dtype=bool)
        same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
        # Children on the parent's own thread run one at a time.
        covered = np.bincount(parent[same], weights=dur[same], minlength=n)
        # Children on other threads may overlap: subtract their union.
        cross = np.flatnonzero(has_parent & ~same)
        by_parent: dict[int, list[tuple[float, float]]] = {}
        for i in cross:
            p = int(parent[i])
            lo = max(a["start"][i], a["start"][p])
            hi = min(a["end"][i], a["end"][p])
            if hi > lo:
                by_parent.setdefault(p, []).append((lo, hi))
        for p, intervals in by_parent.items():
            intervals.sort()
            total, cur_lo, cur_hi = 0.0, intervals[0][0], intervals[0][1]
            for lo, hi in intervals[1:]:
                if lo > cur_hi:
                    total += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered[p] += total + cur_hi - cur_lo
        return dur - covered

    def evals_by_region(self, a: dict[str, np.ndarray]) -> dict[str, int]:
        """Objective evaluations whose nearest search-stage ancestor is each stage."""
        ids = self._ids
        stages = {ids["decoupling.descend"]: "decoupling.descend",
                  ids["decoupling.polish"]: "decoupling.polish"}
        counts = dict.fromkeys(stages.values(), 0)
        name, parent = a["name"], a["parent"]
        for i in np.flatnonzero(name == ids["decoupling.objective"]):
            p = int(parent[i])
            while p >= 0 and int(name[p]) not in stages:
                p = int(parent[p])
            if p >= 0:
                counts[stages[int(name[p])]] += 1
        return counts

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer counts and times of everything recorded, by metric name."""
        a = self.arrays()
        own = self.self_times(a)
        dur = a["end"] - a["start"]
        ids = {name: i for i, name in enumerate(self.names)}
        m: dict[str, float] = {}

        def sel(name):
            return a["name"] == ids[name]

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        for name in ("cli.main", "states.load_state", "states.save_state",
                     "states.random_density", "qmat.validate_density", "qmat.partial_trace",
                     "entropics.mutual_information", "entropics.spectrum_entropy",
                     "isometries.parameters_from_unitary", "isometries.complete_to_unitary",
                     "isometries.from_parameters", "decoupling.objective",
                     "decoupling.unitary_map", "decoupling.restart",
                     "numpy.tensordot", "numpy.trace"):
            m[f"{name}.calls"] = calls(name)
        for name in ("numpy.eigvalsh", "numpy.eigh"):
            m[f"{name}.matrices"] = int(a["weight"][sel(name)].sum())
        # Self time of every layer, so that the accounting identity can be checked.
        for name in dict.fromkeys(hook[0] for hook in HOOKS):
            m[f"{name}.self_s"] = float(own[sel(name)].sum())
        for name in ("decoupling.objective", "decoupling.unitary_map"):
            n = calls(name)
            m[f"{name}.us_per_call"] = float(dur[sel(name)].sum()) / n * 1e6 if n else 0.0
        evals = self.evals_by_region(a)
        for name in ("decoupling.descend", "decoupling.polish"):
            m[f"{name}.evals"] = evals[name]
        for name in ("decoupling.descend", "decoupling.polish", "decoupling.optimize_xi",
                     "decoupling.povm_upper", "decoupling.bounds_report", "decoupling.rates_sweep"):
            m[f"{name}.total_s"] = float(dur[sel(name)].sum())
        restarts = dur[sel("decoupling.restart")]
        m["decoupling.restart.p50_s"] = float(np.median(restarts)) if restarts.size else 0.0
        m["decoupling.restart.useful_ratio"] = (
            self.restarts_considered / restarts.size if restarts.size else 0.0
        )
        op_total = float(dur[sel(OP)].sum())
        m["trace.overhead_s"] = traced_wall - untraced_wall
        m["trace.wall_s"] = traced_wall
        m["trace.spans"] = int(dur.size)
        m["trace.op_self_s"] = float(own[sel(OP)].sum())
        m["trace.unattributed_s"] = traced_wall - op_total
        m["trace.parallel_s"] = float(own.sum()) - op_total
        return m
