"""Span tracer that wraps steinforge's public functions from outside.

Each target is wrapped once and the wrapper is rebound in every steinforge
module namespace that holds the original, so calls through
`from .gaussian import gauss_hermite_rule` are traced as well as calls
through `gaussian.gauss_hermite_rule`. Methods are wrapped on their class.
A span records (id, parent id, job id, target, start, end); self time is a
span's duration minus the durations of its direct children. Targets in
"count" mode are only counted, because they run far too often for a span
each. A target that no longer exists is reported as absent.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, mode)
TARGETS = (
    ("cli", "main", "span"),
    ("derivation", "minimal_scan", "span"),
    ("derivation", "derive_operator", "span"),
    ("derivation", "operator_image", "span"),
    ("poly", "Polynomial.compose", "span"),
    ("terms", "ExpectationVector.__init__", "count"),
    ("gaussian", "gauss_hermite_rule", "span"),
    ("gaussian", "pushforward_moment", "span"),
    ("gaussian", "chunk_normals", "span"),
    ("operators", "expectation_applied", "span"),
    ("verify", "verify_symbolic", "span"),
    ("verify", "verify_quadrature", "span"),
    ("verify", "verify_monte_carlo", "span"),
    ("verify", "mutation_controls", "span"),
    ("verify", "verify_noncentral_operator", "span"),
    ("noncentral", "density_integral", "span"),
    ("noncentral", "noncentral_pdf", "count"),
    ("catalog", "verify_table1_extrema", "span"),
)

PACKAGE = "steinforge"
JOB = "job"


def target_name(module: str, path: str) -> str:
    """Metric prefix of a target: `terms.ExpectationVector.__init__` is
    reported as `terms.ExpectationVector.init`."""
    return f"{module}.{path.replace('__init__', 'init')}"


class Tracer:
    """Collects spans and counts while `active`; install() wraps the targets."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.active = False
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.found = 0          # derive_operator results with status found
        self.normals = 0        # samples returned by chunk_normals
        self.absent: list[str] = []
        self.job_id = 0
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, path, mode in self.targets:
            name = target_name(module, path)
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, mode)
            if parents:  # a method: rebind on its class only
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or
                                       mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original, mode: str):
        counts = self.counts
        if mode == "count":
            def counted(*args, **kwargs):
                if self.active:
                    counts[name] += 1
                return original(*args, **kwargs)
            counted.__wrapped__ = original
            return counted

        on_result = {"derivation.derive_operator": self._on_derive,
                     "gaussian.chunk_normals": self._on_normals}.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            result = self._span(name, original, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = original
        return traced

    def _on_derive(self, result) -> None:
        if getattr(result, "status", None) == "found":
            self.found += 1

    def _on_normals(self, result) -> None:
        self.normals += len(result)

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.job_id, name, start, end))
            self.counts[name] += 1

    def run_job(self, job_id: int, fn, *args, **kwargs):
        """Run one benchmark job under a root span."""
        self.job_id = job_id
        return self._span(JOB, fn, args, kwargs)

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, busy_s (outermost spans only, so recursion is
        not counted twice) and self_s."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for module, path, _ in self.targets:
            out[target_name(module, path)] = {"calls": 0, "busy_s": 0.0,
                                              "self_s": 0.0}
        for sid, parent, _, name, start, end in self.spans:
            if name == JOB:
                continue
            row = out[name]
            duration = end - start
            row["self_s"] += duration - child_time[sid]
            ancestor = parent
            while ancestor and names[ancestor] != name:
                ancestor = parents[ancestor]
            if not ancestor:
                row["busy_s"] += duration
        for name, row in out.items():
            row["calls"] = self.counts.get(name, 0)
        return out
