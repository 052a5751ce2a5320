"""Benchmark of the astr2 solver and CLI: one workload per invocation.

    python3 perfbench/run.py --workload dense_saddle --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory, with BLAS pinned to one thread.  After one untimed warm-up
pass, passes repeat until ``--seconds`` are used up; with ``--trace 0``,
set-up is measured in fresh processes started between the passes.
Every pass is checked, and its traces and output files are digested and
compared with the warm-up's.  ``--trace 0`` reports the end-to-end metrics of
untraced passes, each piece of a pass at its fastest over the passes (see
``BestOf``); ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed
record and the spans of the last traced pass go to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: imports are part of it

import os

BLAS_THREADS = 1  # pinned before numpy loads; 1 thread was the faster setting on 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from layers import LAYER_UNITS, layer_metrics, top_self, write_spans
from probes import Recorder, patched

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "iter_us_p50": "us",
    "iter_us_p95": "us",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import astr2 from this checkout's ``src``; exit with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import astr2
    except ImportError as exc:
        sys.exit(f"error: cannot import astr2 from {src}: {exc}")
    if not Path(astr2.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: astr2 was imported from {astr2.__file__}, not from {src}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every workload for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the inputs, then print the seconds taken")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _setup_probe(args) -> float:
    """Set-up seconds of a fresh process: interpreter start excluded,
    imports and input construction included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--size", args.size,
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


@dataclass
class Pass:
    wall: float
    rec: Optional[Recorder]  # kept for a traced pass only, and without its traces
    layers: Optional[dict]  # per-layer metrics of a traced pass that returned
    iter_us: tuple[float, float] = (0.0, 0.0)  # per-iteration p50 and p95 within the pass


class BestOf:
    """A pass made of the fastest instance of each of its pieces.

    Every pass makes the same clock stamps, so the gap between two stamps is
    the same piece of work in each pass.  Each gap keeps its minimum over the
    timed passes; the pass's wall time is the sum of the gaps, an iteration's
    time the sum of the gaps it spans.  The machine switches between a fast
    and a slow phase for seconds at a time.  The minimum per piece tracks the
    fast phase, which nearly every run visits; a median over passes would
    track the share of the run spent in the slow one.
    """

    def __init__(self):
        self.gaps = None
        self.iterations: list[tuple[int, int]] = []

    def add(self, rec: Recorder) -> None:
        import numpy as np

        gaps = np.diff(np.array(rec.marks, dtype=np.int64))
        if self.gaps is None:
            self.gaps, self.iterations = gaps, rec.iterations
        elif len(gaps) == len(self.gaps):  # else the pass did other work, and its checks failed it
            np.minimum(self.gaps, gaps, out=self.gaps)

    def timings(self) -> tuple[float, list[float]]:
        """Wall seconds and per-iteration microseconds (zeros if no timed pass returned)."""
        import numpy as np

        if self.gaps is None:
            return 0.0, []
        elapsed = np.concatenate(([0], np.cumsum(self.gaps)))
        return elapsed[-1] / 1e9, [(elapsed[b] - elapsed[a]) / 1e3 for a, b in self.iterations]


class Session:
    """The passes of one invocation and their checks."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.reference = None  # digest of the warm-up pass
        self.ops_per_pass = 1  # known after the first pass that returns
        self.attempted = 0
        self.failed = 0
        self.missing_hooks: set[str] = set()
        self.best = BestOf()

    def run(self, traced: bool, timed: bool = True) -> Pass:
        """One checked pass; an untraced timed pass also feeds ``best``."""
        import numpy as np
        from workloads import check_traces, digest

        gc.collect()
        rec = Recorder(traced)
        with patched(rec, self.workload.hooks(rec)) as missing:
            rec.mark()
            try:
                out = self.workload.run_pass(self.inputs, rec)
            except Exception:
                traceback.print_exc()
                out = None
            rec.mark()
        wall = (rec.marks[-1] - rec.marks[0]) / 1e9
        self.missing_hooks.update(missing)
        if out is None:  # the pass raised: all of its operations failed
            self.attempted += self.ops_per_pass
            self.failed += self.ops_per_pass
            return Pass(wall, rec if traced else None, None)
        failed = check_traces(rec.traces) + self.workload.check_cli(out)
        if rec.f_calls:
            print(f"check: objective evaluated {rec.f_calls} times", file=sys.stderr)
            failed = out.ops
        d = digest(rec.traces, out)
        if self.reference is None:
            self.reference = d
        elif d != self.reference:
            print(f"check: {'traced' if traced else 'untraced'} pass digest {d} "
                  f"differs from {self.reference}", file=sys.stderr)
            failed = out.ops
        self.ops_per_pass = out.ops
        self.attempted += out.ops
        self.failed += min(failed, out.ops)
        layers = layer_metrics(wall, rec, out) if traced else None
        rec.traces.clear()  # a trace holds a copy of every iterate
        iter_us = (0.0, 0.0)
        if not traced:
            if rec.iterations:
                iter_us = tuple(float(v) / 1e3 for v in np.percentile(rec.iteration_ns(), [50, 95]))
            if timed:
                self.best.add(rec)
            rec = None  # so that memory does not grow with the number of passes
        return Pass(wall, rec, layers, iter_us)


def _measure(session: Session, seconds: float, traced_too: bool, probe=None):
    """Untimed warm-up, then passes (or untraced/traced pairs) for ``seconds``.

    With ``probe``, ``SETUP_PROBES`` set-up probes run between passes, spread
    evenly over the time, so that their median does not hang on the speed
    of the machine during one short stretch.
    """
    session.run(traced=False, timed=False)
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if probe is not None and len(setup) < SETUP_PROBES and \
                time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        begin = time.perf_counter()
        plain.append(session.run(traced=False))
        if traced_too:
            traced.append(session.run(traced=True))
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return plain, traced, setup


def _end_to_end(setup: list[float], session: Session, plain: list[Pass]) -> tuple[dict, dict]:
    """Best-of-passes timings (see ``BestOf``), plus per-pass values for the record."""
    import numpy as np

    wall, iter_us = session.best.timings()
    p50, p95 = np.percentile(iter_us, [50, 95]) if iter_us else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": float(wall),
        "iter_us_p50": float(p50),
        "iter_us_p95": float(p95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"iter_us_p50": [p.iter_us[0] for p in plain], "iter_us_p95": [p.iter_us[1] for p in plain]}


def _per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [p.layers for p in traced if p.layers is not None]
    metrics = {name: statistics.median(m[name] for m in per_pass) if per_pass else 0.0
               for name in LAYER_UNITS if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.build(args.seed, args.size, workdir)
        if args.setup_probe:
            print(f"{time.perf_counter() - _START:.9f}")
            return 0
        session = Session(workload, inputs)
        probe = None if args.trace else lambda: _setup_probe(args)
        plain, traced, setup = _measure(session, args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_pass = {"wall_s": [p.wall for p in plain], "traced_wall_s": [p.wall for p in traced]}
    if args.trace:
        units = LAYER_UNITS
        metrics = _per_layer(plain, traced)
    else:
        units = E2E_UNITS
        metrics, iter_percentiles = _end_to_end(setup, session, plain)
        per_pass.update(iter_percentiles)
    env = _environment(args.seed)
    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace, "env": env,
        "attempted": session.attempted, "failed": session.failed,
        "missing_hooks": sorted(session.missing_hooks),
        "setup_probes_s": setup, "per_pass": per_pass, "metrics": metrics,
    }
    if traced:
        record["top_self_ns"] = top_self(traced[-1].rec, 8)
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv", traced[-1].rec.spans)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{session.attempted} operations checked, {session.failed} failed")
    if session.missing_hooks:
        print(f"hooks not found: {', '.join(sorted(session.missing_hooks))}")
    for name, ns in record.get("top_self_ns", {}).items():
        print(f"self {name:<28} {ns / 1e6:12.3f} ms")
    for name, value in metrics.items():
        print(f"{name:<40} {value:16.6f} {units[name]}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
