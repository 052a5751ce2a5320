"""Probes the benchmark attaches to the program from outside.

Two kinds of callable are wrapped, and nothing inside the program changes:

* the oracle's callables, replaced on a copy of the oracle with
  ``dataclasses.replace`` (the same technique as the test suite's counting
  wrapper for acceptance criterion 8);
* module-level names through which one layer calls the next, such as
  ``astr2.driver.phi2`` or ``numpy.linalg.eigh``.  A module looks these names
  up at call time, so rebinding them reroutes the calls through a wrapper.

The untraced pass carries only the clock and the objective-call counter.
The clock makes one ``perf_counter_ns`` stamp at the start and end of the
pass, per iteration (at each gradient call) and, where a workload asks
for it, at the entry and exit of a few coarse stages.  The traced pass also records one span per wrapped call: name,
start, end and parent, all kept in memory.
"""

from __future__ import annotations

import dataclasses
import importlib
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

# Spans around a Krylov trust-region solve; each records its subspace dimension.
KRYLOV_SPANS = ("trs.measure_solve_krylov", "trs.step_solve_krylov")

# Spans that run a Lanczos loop: an eigh under one of them works on a
# tridiagonal, not on the problem's own matrix.
LANCZOS_SPANS = frozenset(KRYLOV_SPANS)

# (module, attribute, span name) of every layer boundary the traced pass
# wraps.  A name the program no longer has is skipped and reported, so a
# refactor that removes one loses that span instead of breaking the run.
LAYER_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("astr2.driver", "phi2", "measures.phi2"),
    ("astr2.driver", "phi2_subspace", "measures.phi2_subspace"),
    ("astr2.driver", "solve_trs_exact", "trs.step_solve"),
    ("astr2.driver", "solve_trs_krylov", "trs.step_solve_krylov"),
    ("astr2.driver", "adagrad_weights", "scaling.weights"),
    ("astr2.driver", "divergent_weights", "scaling.weights"),
    ("astr2.measures", "solve_trs_exact", "trs.measure_solve"),
    ("astr2.measures", "solve_trs_krylov", "trs.measure_solve_krylov"),
    ("astr2.sharpness", "zeta", "sharpness.zeta"),
    ("astr2.cli", "gen_adagrad_example", "sharpness.generate"),
    ("astr2.cli", "gen_divergent_example", "sharpness.generate"),
    ("astr2.cli", "hermite_interpolant", "sharpness.interpolate"),
    ("astr2.cli", "sample_figure", "sharpness.interpolate"),
    ("astr2.cli", "replay_check", "sharpness.replay"),
    ("numpy.linalg", "eigh", "trs.eigh"),
)


class Recorder:
    """Everything one pass observes: clock stamps, spans, objective calls, traces."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Optional[tuple[str, int, int, int]]] = []
        self._stack: list[int] = []
        # Clock stamps in pass order.  The program is deterministic, so every
        # pass of a run makes the same stamps and the gap between stamps i and
        # i+1 is the same piece of work in each pass.
        self.marks: list[int] = []
        self.iterations: list[tuple[int, int]] = []  # (first, last) stamp index of each iteration
        self._open: Optional[int] = None  # stamp index where the running iteration began
        self.f_calls = 0
        self.krylov_dims: list[int] = []
        self.traces: list[list[Any]] = []

    # -- clock -----------------------------------------------------------
    def mark(self) -> None:
        self.marks.append(perf_counter_ns())

    def _end_iteration(self) -> None:
        if self._open is not None:
            self.iterations.append((self._open, len(self.marks) - 1))
            self._open = None

    def tick(self) -> None:
        """Stamp the start of an iteration, which ends the previous one."""
        self.mark()
        self._end_iteration()
        self._open = len(self.marks) - 1

    @contextmanager
    def clocked(self) -> Iterator[None]:
        """Iteration i runs from tick i to tick i+1; the last one ends when
        the block does."""
        try:
            yield
        finally:
            self.mark()
            self._end_iteration()

    def marked(self, fn: Callable) -> Callable:
        """``fn`` with a clock stamp at its entry and at its exit."""

        def wrapped(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return wrapped

    def iteration_ns(self) -> list[int]:
        return [self.marks[b] - self.marks[a] for a, b in self.iterations]

    # -- spans -----------------------------------------------------------
    def span(
        self, name: str, fn: Callable, on_result: Optional[Callable[[Any], None]] = None
    ) -> Callable:
        """``fn`` wrapped to record a span when tracing, else ``fn`` itself."""
        if not self.traced:
            return fn
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(out)
            return out

        return wrapped

    def record_krylov_dim(self, result) -> None:
        """Keep the subspace dimension a Krylov solve returned."""
        self.krylov_dims.append(int(result[1]))

    # -- oracle and solver ----------------------------------------------
    def oracle(self, base):
        """A copy of ``base`` whose callables report to this recorder.

        A diagnostic objective is installed even when the base oracle has
        none, so a zero count proves the solver never asked for f.
        """
        base_f, base_g = base.f_diagnostic, base.gradient

        def f(x):
            self.f_calls += 1
            return 0.0 if base_f is None else base_f(x)

        def gradient(x):
            self.tick()
            return base_g(x)

        kwargs = {
            "f_diagnostic": f,
            "gradient": self.span("oracle.gradient", gradient),
            "hvp": self.span("oracle.hvp", base.hvp),
        }
        if base.hessian is not None:
            kwargs["hessian"] = self.span("oracle.hessian", base.hessian)
        return dataclasses.replace(base, **kwargs)

    def solve(self, run: Callable, oracle, x0, config):
        """Call the driver's ``run`` on an instrumented oracle and keep the trace."""
        oracle = self.oracle(oracle)
        with self.clocked():
            trace = self.span("driver.run", run)(oracle, x0, config)
        self.traces.append(trace)
        return trace


@contextmanager
def patched(rec: Recorder, extra: tuple[tuple[str, str, Callable], ...] = ()) -> Iterator[list[str]]:
    """Rebind the layer hooks (traced only) and ``extra`` replacements.

    ``extra`` holds (module, attribute, factory); the factory receives the
    original callable and returns its replacement.  Yields the hooks that
    were missing.  Every original is restored on exit.
    """
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []

    def rebind(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            return
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    try:
        for module_name, attr, make in extra:
            rebind(module_name, attr, make)
        if rec.traced:
            for module_name, attr, name in LAYER_HOOKS:
                on_result = rec.record_krylov_dim if name in KRYLOV_SPANS else None
                rebind(module_name, attr, lambda fn, n=name, cb=on_result: rec.span(n, fn, cb))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def span_stats(spans: list[tuple[str, int, int, int]]) -> dict[str, SpanStats]:
    """Per span name: calls, total time and self time (total minus direct children).

    ``trs.eigh`` is split into ``trs.eigh_full`` and ``trs.eigh_small`` by
    whether a Lanczos span encloses it.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "trs.eigh":
            name = "trs.eigh_small" if _under(spans, parent, LANCZOS_SPANS) else "trs.eigh_full"
        s = stats.setdefault(name, SpanStats())
        s.calls += 1
        s.total_ns += end - start
        s.self_ns += end - start - child_ns[i]
    return stats


def _under(spans, idx: int, names: frozenset) -> bool:
    while idx >= 0:
        if spans[idx][0] in names:
            return True
        idx = spans[idx][3]
    return False
