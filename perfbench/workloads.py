"""The three benchmark workloads.

Each workload builds its inputs from the seed (``build``), runs one pass
through a public entry point, ``astr2.run`` or ``astr2.cli.main``
(``run_pass``), and leaves what the pass produced in a :class:`PassOutput`
for the checks.  Sizes are given for the full benchmark and for the tiny
smoke run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import astr2
import astr2.cli
from probes import Recorder

RECORD_FIELDS = ("norm_g", "phi", "hatphi", "w_l", "w_q", "delta_l", "delta_q", "norm_s", "dq")


@dataclass
class PassOutput:
    """What one pass produced: solver traces (on the recorder) plus CLI results."""

    ops: int  # operations of the pass: solver iterations
    exit_codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    cli_ops: list[int] = field(default_factory=list)  # operations behind each command


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str, Path], Any]
    run_pass: Callable[[Any, Recorder], PassOutput]
    hooks: Callable[[Recorder], tuple]  # extra (module, attribute, factory) rebinds
    check_cli: Callable[[PassOutput], int]  # failed operations among the CLI results


# -- solver workloads ------------------------------------------------------

@dataclass(frozen=True)
class SolverInputs:
    oracle: Any
    x0: np.ndarray
    config: astr2.Astr2Config


def _near_max_start(seed: int, n: int) -> np.ndarray:
    # cosine_sum has a local maximum at 0; a tiny seeded perturbation keeps
    # the first iterates in its negative-curvature region.
    return 1e-6 * np.random.default_rng(seed).standard_normal(n)


def _build_dense(seed: int, size: str, workdir: Path) -> SolverInputs:
    n, iters = (150, 300) if size == "full" else (20, 30)
    config = astr2.Astr2Config(scaling=astr2.AdagradScaling(varsigma=1e6), max_iter=iters)
    return SolverInputs(astr2.make_problem("cosine_sum", n), _near_max_start(seed, n), config)


def _build_matrix_free(seed: int, size: str, workdir: Path) -> SolverInputs:
    n, iters = (5_000, 250) if size == "full" else (100, 20)
    config = astr2.Astr2Config(scaling=astr2.AdagradScaling(), max_iter=iters, subspace_max_dim=20)
    # A fixed N(0, I) start, far from the local maximum at 0, plus a small
    # seeded perturbation: every seed then runs the same work, 250 L
    # iterations with a Krylov subspace of dimension 3.  A Q iteration's
    # min_eigpair Lanczos is left out: its cost (0.5-4 s a call) and its
    # sensitivity to the memory traffic of other tenants made runs of the
    # same code spread past the bounds (see README).
    x0 = np.random.default_rng(0).standard_normal(n) + 1e-3 * np.random.default_rng(seed).standard_normal(n)
    return SolverInputs(astr2.make_problem("cosine_sum", n), x0, config)


def _solver_pass(inp: SolverInputs, rec: Recorder) -> PassOutput:
    trace = rec.solve(astr2.run, inp.oracle, inp.x0, inp.config)
    return PassOutput(ops=len(trace))


def _no_hooks(rec: Recorder) -> tuple:
    return ()


def _no_cli(out: PassOutput) -> int:
    return 0


# -- CLI workloads -----------------------------------------------------------

def _cli(argv: list[str], out: PassOutput, rec: Recorder) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rec.span("cli.main", astr2.cli.main)(argv)
    out.exit_codes.append(code)
    out.stdout.append(buf.getvalue())


@dataclass(frozen=True)
class SharpnessInputs:
    argvs: tuple[tuple[str, ...], ...]
    files: tuple[Path, ...]
    K: int


def _build_worst_case(seed: int, size: str, workdir: Path) -> SharpnessInputs:
    K = 500 if size == "full" else 50
    # The seed moves eps within +-10% of the paper's 0.01, so each seed
    # generates and replays its own sequence.
    eps = 0.01 * (0.9 + 0.2 * float(np.random.default_rng(seed).random()))
    argvs, files = [], []
    for family in ("adagrad", "divergent"):
        out = workdir / f"{family}.csv"
        argvs.append(("sharpness", "--family", family, "--K", str(K), "--eps", repr(eps), "--out", str(out)))
        files += [out, workdir / f"{family}.breakpoints.csv"]
    return SharpnessInputs(tuple(argvs), tuple(files), K)


def _worst_case_pass(inp: SharpnessInputs, rec: Recorder) -> PassOutput:
    out = PassOutput(ops=0, files=list(inp.files))
    for argv in inp.argvs:
        _cli(list(argv), out, rec)
        out.cli_ops.append(inp.K + 1)
    out.ops = sum(out.cli_ops)
    return out


# Stages of ``astr2 sharpness`` that get a clock stamp at entry and exit, so
# that the work outside the replay is cut into pieces of a few tens of ms.
_SHARPNESS_STAGES = ("gen_adagrad_example", "gen_divergent_example", "hermite_interpolant",
                     "sample_figure", "_companion_path", "replay_check")


def _worst_case_hooks(rec: Recorder) -> tuple:
    # The replay builds its oracle internally and hands it to ``run``
    # through this name: wrap it there to clock and check the replay.
    return (("astr2.sharpness", "run", lambda run: lambda o, x0, c: rec.solve(run, o, x0, c)),
            *(("astr2.cli", stage, rec.marked) for stage in _SHARPNESS_STAGES))


_REPLAY_OK = re.compile(r"^replay\s*: ok$", re.MULTILINE)


def _check_worst_case(out: PassOutput) -> int:
    return sum(
        ops
        for code, text, ops in zip(out.exit_codes, out.stdout, out.cli_ops)
        if code != 0 or not _REPLAY_OK.search(text)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_saddle", _build_dense, _solver_pass, _no_hooks, _no_cli),
        Workload("matrix_free", _build_matrix_free, _solver_pass, _no_hooks, _no_cli),
        Workload("worst_case", _build_worst_case, _worst_case_pass, _worst_case_hooks, _check_worst_case),
    )
}


# -- checks shared by every workload -----------------------------------------

def check_traces(traces: list[list[Any]]) -> int:
    """Count trace records that break a per-iteration invariant.

    Every field is finite, the step stays inside its branch's radius (within
    1e-12 relative) and the model decrease is nonnegative.
    """
    failed = 0
    for trace in traces:
        for r in trace:
            values = [getattr(r, name) for name in RECORD_FIELDS]
            radius = r.delta_l if r.branch == "L" else r.delta_q
            ok = (
                all(math.isfinite(v) for v in values)
                and r.branch in ("L", "Q")
                and r.norm_s <= radius * (1.0 + 1e-12)
                and r.dq >= 0.0
            )
            failed += not ok
    return failed


def digest(traces: list[list[Any]], out: PassOutput) -> str:
    """SHA-256 of every trace field bit for bit, the final iterate, the
    command outputs and the files the commands wrote."""
    h = hashlib.sha256()
    for trace in traces:
        for r in trace:
            h.update(struct.pack("<q1s", r.k, r.branch.encode()))
            h.update(struct.pack(f"<{len(RECORD_FIELDS)}d", *(getattr(r, f) for f in RECORD_FIELDS)))
        if trace and trace[-1].x is not None:
            h.update(np.ascontiguousarray(trace[-1].x).tobytes())
    for code, text in zip(out.exit_codes, out.stdout):
        h.update(str(code).encode())
        h.update(text.encode())
    for path in out.files:
        h.update(path.read_bytes())
    return h.hexdigest()
