"""Command-line harness: run the optimizer, generate worst-case figures,
cross-check the trust-region solver, and verify oracle derivatives.

All configuration is by flags; the only randomness is the seeded instance
generation of ``trs-check`` and the optional random start of ``run``, so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 solver abort, 2 usage, parameter-range or
non-finite input error, an output file that cannot be written, or a
problem too large for memory, 3 verification failure.  ``main`` is the one
place that turns exceptions into exit codes.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .driver import Astr2Config, IterateRecord, SolverAbort, rate_envelopes, run
from .oracle import catalog_names, finite_diff_check, make_problem
from .scaling import AdagradScaling, DivergentScaling
from .sharpness import (
    gen_adagrad_example,
    gen_divergent_example,
    hermite_interpolant,
    replay_check,
    sample_figure,
)
from .trs import brute_force_decrease, kkt_residuals, solve_trs_exact, solve_trs_krylov

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_optional(v: Optional[float]) -> str:
    return "" if v is None else _fmt(v)


def _parse_optional(text: str) -> Optional[float]:
    return None if text == "" else float(text)


# The trace CSV columns: (header name, IterateRecord field, formatter, parser).
_TRACE_COLUMNS = (
    ("k", "k", str, int),
    ("branch", "branch", str, str),
    ("norm_g", "norm_g", _fmt, float),
    ("phi", "phi", _fmt, float),
    ("hatphi", "hatphi", _fmt, float),
    ("wL", "w_l", _fmt, float),
    ("wQ", "w_q", _fmt, float),
    ("deltaL", "delta_l", _fmt, float),
    ("deltaQ", "delta_q", _fmt, float),
    ("norm_s", "norm_s", _fmt, float),
    ("dq", "dq", _fmt, float),
    ("f", "f", _fmt_optional, _parse_optional),
)

TRACE_HEADER = ",".join(name for name, _, _, _ in _TRACE_COLUMNS)

_BREAKPOINT_FIELDS = ("x", "f", "g", "hess", "phi", "s", "dq")


def _write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    """Write a header line and the given lines, '\\n' line endings."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *lines]) + "\n")


def _float_lines(columns: Sequence[np.ndarray]) -> list[str]:
    """One line per row of the float columns, as many rows as the shortest
    column, each cell as _fmt writes it (``%.17g``, which writes an integral
    float as ``%d`` writes the integer)."""
    fmt = ",".join(["%.17g"] * len(columns))
    return [fmt % row for row in zip(*(c.tolist() for c in columns))]


def write_trace_csv(path: str, trace: list[IterateRecord]) -> None:
    """Write a trace in the fixed 12-column format, '\\n' line endings."""
    lines = (",".join(fmt(getattr(r, field)) for _, field, fmt, _ in _TRACE_COLUMNS) for r in trace)
    _write_csv(path, TRACE_HEADER, lines)


def parse_trace_csv(path: str) -> list[IterateRecord]:
    """Read a trace written by write_trace_csv; iterates are not serialized,
    so the parsed records carry x = None."""
    with open(path, "r", newline="") as fh:
        raw = fh.read()
    lines = [ln for ln in raw.split("\n") if ln != ""]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing or malformed trace header")
    out: list[IterateRecord] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_TRACE_COLUMNS):
            raise ValueError(
                f"{path}: expected {len(_TRACE_COLUMNS)} columns, got {len(parts)}"
            )
        cells = {field: parse(p) for (_, field, _, parse), p in zip(_TRACE_COLUMNS, parts)}
        out.append(IterateRecord(x=None, **cells))
    return out


def _build_scaling(args: argparse.Namespace):
    if args.scaling == "adagrad":
        return AdagradScaling(varsigma=args.varsigma, mu=args.mu, nu=args.nu, theta=args.theta)
    return DivergentScaling(kappa_w=args.kappa_w, mu1=args.mu1, mu2=args.mu2)


def _parse_x0(spec: str, seed: int, oracle) -> np.ndarray:
    if spec == "default":
        return np.asarray(oracle.x0, dtype=float)
    if spec == "random":
        return np.random.default_rng(seed).standard_normal(oracle.n)
    vals = [float(tok) for tok in spec.split(",")]
    if len(vals) != oracle.n:
        raise ValueError(f"x0 has {len(vals)} entries, problem dimension is {oracle.n}")
    return np.array(vals)


def cmd_run(args: argparse.Namespace) -> int:
    oracle = make_problem(args.problem, args.n)
    config = Astr2Config(
        scaling=_build_scaling(args),
        max_iter=args.max_iter,
        xi=args.xi,
        eps1=args.eps1,
        eps2=args.eps2,
        subspace_max_dim=args.subspace_max_dim,
        record_f=args.record_f,
    )
    x0 = _parse_x0(args.x0, args.seed, oracle)
    if args.out is not None:
        # Check --out without truncating it, so that an unwritable path costs
        # no iterations and a failed run keeps an earlier trace.
        open(args.out, "a").close()
    trace = run(oracle, x0, config)
    if args.out is not None:
        write_trace_csv(args.out, trace)
    e1, e2, e3, e4 = rate_envelopes(trace)
    print(f"iterations                      : {len(trace)}")
    print(f"sup_k sum ||g_j||^2             : {_fmt(e1)}")
    print(f"sup_k sum hatphi_j^3            : {_fmt(e2)}")
    print(f"sup_k sqrt(k+1) min ||g_j||     : {_fmt(e3)}")
    print(f"sup_k (k+1)^(1/3) min hatphi_j  : {_fmt(e4)}")
    return EXIT_OK


def cmd_sharpness(args: argparse.Namespace) -> int:
    if args.family == "adagrad":
        seq = gen_adagrad_example(args.nu, args.eps, args.varsigma, args.K)
    else:
        seq = gen_divergent_example(args.mu2, args.eps, args.kappa_w, args.K)
    interp = hermite_interpolant(seq)
    xs, fs, fps, fpps = sample_figure(interp, args.samples_per_interval, args.f0_shift)
    _write_csv(args.out, "x,f,fp,fpp", _float_lines((xs, fs, fps, fpps)))
    bp_path = _companion_path(args.out)
    columns = [np.arange(seq.K + 1.0)] + [getattr(seq, name) for name in _BREAKPOINT_FIELDS]
    _write_csv(bp_path, ",".join(("k",) + _BREAKPOINT_FIELDS), _float_lines(columns))

    ok = replay_check(seq)
    print(f"samples  : {len(xs)} -> {args.out}")
    print(f"breakpts : {seq.K + 1} -> {bp_path}")
    print(f"replay   : {'ok' if ok else 'MISMATCH'}")
    if not ok:
        print("error: driver replay did not reproduce the sequence", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _companion_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[: -len(".csv")] + ".breakpoints.csv"
    return out + ".breakpoints"


def cmd_trs_check(args: argparse.Namespace) -> int:
    radii = [float(tok) for tok in args.radii.split(",")]
    if args.count < 1 or args.max_n < 1 or not all(0.0 < r < np.inf for r in radii):
        raise ValueError("need count >= 1, max-n >= 1, positive finite radii")
    # The instances' model terms over the ball, |g^T d| + |d^T H d| <= 2 sqrt(n) r
    # + 2 n r^2 (|g_i|, |H_ij| <= 2), must be finite for the check to compare them.
    for r in radii:
        if not math.isfinite(2.0 * math.sqrt(args.max_n) * r + 2.0 * args.max_n * r * r):
            raise ValueError(f"radius {r:g} overflows the model values at n <= {args.max_n}")
    rng = np.random.default_rng(args.seed)
    max_dev_brute = 0.0
    max_dev_krylov = 0.0
    max_kkt = dict.fromkeys(("feasibility", "complementarity", "stationarity", "psd",
                             "multiplier_sign"), 0.0)
    deviations = violations = 0
    for _ in range(args.count):
        n = int(rng.integers(1, args.max_n + 1))
        A = rng.uniform(-2.0, 2.0, (n, n))
        H = 0.5 * (A + A.T)
        g = rng.uniform(-2.0, 2.0, n)
        delta = radii[int(rng.integers(len(radii)))]
        sol = solve_trs_exact(g, H, delta)
        bf = brute_force_decrease(g, H, delta)
        kr, _ = solve_trs_krylov(g, lambda v: H @ v, delta, max_dim=n)
        # Every tolerance is relative to the instance: its model terms over
        # the ball, ||g|| Delta + ||H||_2 Delta^2, and its multiplier.
        gnorm, hnorm, lam = (float(np.linalg.norm(g)),
                             float(np.max(np.abs(np.linalg.eigvalsh(H)))), sol.multiplier)
        size = gnorm * delta + hnorm * delta * delta
        dev_brute = abs(sol.model_decrease - bf)
        dev_krylov = abs(kr.model_decrease - sol.model_decrease)
        max_dev_brute = max(max_dev_brute, dev_brute)
        max_dev_krylov = max(max_dev_krylov, dev_krylov)
        deviations += (dev_brute > 1e-8 * size) + (dev_krylov > 1e-7 * size)
        kkt_tol = {
            "feasibility": 1e-10 * delta,
            "complementarity": 1e-8 * lam * delta,
            "stationarity": 1e-8 * (gnorm + (hnorm + lam) * delta),
            "psd": 1e-10 * max(hnorm, lam),
            "multiplier_sign": 0.0,
        }
        for key, val in kkt_residuals(g, H, delta, sol).items():
            max_kkt[key] = max(max_kkt[key], val)
            violations += val > kkt_tol[key]
    print(f"instances                  : {args.count} (seed {args.seed}, n <= {args.max_n})")
    print(f"max |dq_exact - dq_brute|  : {_fmt(max_dev_brute)}")
    print(f"max |dq_krylov - dq_exact| : {_fmt(max_dev_krylov)}")
    print(f"deviations beyond tolerance: {deviations}")
    for key, val in max_kkt.items():
        print(f"max kkt {key:<18}: {_fmt(val)}")
    print(f"kkt violations             : {violations}")
    if deviations > 0 or violations > 0:
        print("error: deviation beyond tolerance", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fd_check(args: argparse.Namespace) -> int:
    oracle = make_problem(args.problem, args.n)
    x = _parse_x0(args.x0, args.seed, oracle)
    report = finite_diff_check(oracle, x, args.h)
    print(f"gradient rel. error : {_fmt(report.gradient_error)}")
    print(f"hessian  rel. error : {_fmt(report.hessian_error)}")
    print(f"step h              : {_fmt(report.h)}")
    # Capped below the errors' normalised scale of 1, which any oracle meets
    # once h is large.
    tol = min(100.0 * args.h * args.h, 1e-2)
    if not (report.gradient_error <= tol and report.hessian_error <= tol):
        print("error: derivative check failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _add_scaling_flags(p: argparse.ArgumentParser, varsigma: float) -> None:
    """The weight flags that ``run`` and ``sharpness`` share; their defaults
    are those of the scaling classes, but for ``varsigma``."""
    p.add_argument("--nu", type=float, default=AdagradScaling.nu, help="adagrad: Q-weight exponent")
    p.add_argument("--varsigma", type=float, default=varsigma, help="adagrad: accumulator start")
    p.add_argument("--mu2", type=float, default=DivergentScaling.mu2,
                   help="divergent: Q-weight exponent")
    p.add_argument("--kappa-w", type=float, default=DivergentScaling.kappa_w,
                   help="divergent: weight coefficient")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astr2",
        description="Objective-function-free trust-region optimizer toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags match only in full: sharpness must reject --mu, not read it as --mu2.
    p_run = sub.add_parser("run", help="run the optimizer and emit a trace", allow_abbrev=False)
    p_run.add_argument("--problem", required=True, choices=catalog_names())
    p_run.add_argument("--n", type=int, default=10)
    p_run.add_argument("--x0", default="default",
                       help="'default', 'random', or comma-separated floats")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scaling", choices=("adagrad", "divergent"), default="adagrad")
    _add_scaling_flags(p_run, varsigma=AdagradScaling.varsigma)
    p_run.add_argument("--mu", type=float, default=AdagradScaling.mu,
                       help="adagrad: L-weight exponent")
    p_run.add_argument("--theta", type=float, default=AdagradScaling.theta,
                       help="adagrad: emit w in [theta*w_hat, w_hat], alternating "
                            "between the two ends; 1 emits w_hat")
    p_run.add_argument("--mu1", type=float, default=DivergentScaling.mu1,
                       help="divergent: L-weight exponent")
    p_run.add_argument("--xi", type=float, default=Astr2Config.xi)
    p_run.add_argument("--max-iter", type=int, default=100)
    p_run.add_argument("--eps1", type=float, default=None)
    p_run.add_argument("--eps2", type=float, default=None)
    p_run.add_argument("--subspace-max-dim", type=int, default=None)
    p_run.add_argument("--record-f", action="store_true")
    p_run.add_argument("--out", default=None, help="trace CSV path")
    p_run.set_defaults(func=cmd_run)

    p_sh = sub.add_parser("sharpness", help="generate a worst-case figure table", allow_abbrev=False)
    p_sh.add_argument("--family", choices=("adagrad", "divergent"), default="adagrad")
    _add_scaling_flags(p_sh, varsigma=0.01)
    p_sh.add_argument("--eps", type=float, default=0.01)
    p_sh.add_argument("--K", type=int, default=10)
    p_sh.add_argument("--samples-per-interval", type=int, default=20)
    p_sh.add_argument("--f0-shift", type=float, default=None)
    p_sh.add_argument("--out", required=True, help="figure CSV path")
    p_sh.set_defaults(func=cmd_sharpness)

    p_trs = sub.add_parser("trs-check", help="cross-check the subproblem solver", allow_abbrev=False)
    p_trs.add_argument("--count", type=int, default=1000)
    p_trs.add_argument("--max-n", type=int, default=5)
    p_trs.add_argument("--radii", default="0.1,1,10")
    p_trs.add_argument("--seed", type=int, default=42)
    p_trs.set_defaults(func=cmd_trs_check)

    p_fd = sub.add_parser("fd-check", help="finite-difference oracle verification", allow_abbrev=False)
    p_fd.add_argument("--problem", required=True, choices=catalog_names())
    p_fd.add_argument("--n", type=int, default=10)
    p_fd.add_argument("--x0", default="random")
    p_fd.add_argument("--seed", type=int, default=0)
    p_fd.add_argument("--h", type=float, default=1e-5)
    p_fd.set_defaults(func=cmd_fd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except SolverAbort as exc:
        print(
            f"error: solver abort after {len(exc.trace)} recorded iterations: "
            f"{exc.reason}",
            file=sys.stderr,
        )
        return EXIT_ABORT
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
