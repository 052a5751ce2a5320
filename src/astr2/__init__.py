"""Objective-function-free trust-region optimization with second-order guarantees.

The package implements an adaptively scaled trust-region iteration that never
evaluates the objective function, only its first and second derivatives.  The
trust-region radii are quotients of optimality measures by running scaling
factors (Adagrad-like accumulators or divergent polynomial schedules), and the
trial point is always accepted.  Alongside the optimizer it ships the
second-order optimality measures, exact and Krylov trust-region subproblem
solvers, worst-case (slowest possible) sequence generators with a piecewise
quintic interpolant realizing them as smooth univariate functions, and a CLI
for reproducible trace generation and verification.
"""

from .oracle import ProblemOracle, make_problem, finite_diff_check, catalog_names
from .trs import (
    TrsSolution,
    EigenPair,
    DenseModel,
    KrylovModel,
    solve_trs_exact,
    cauchy_decrease,
    eigen_decrease,
    min_eigpair,
    solve_trs_krylov,
    brute_force_decrease,
)
from .measures import OptimalityReport, phi1, phi2, phi2_subspace, combined_measures
from .scaling import AdagradScaling, DivergentScaling, adagrad_weights, divergent_weights
from .driver import Astr2Config, IterateRecord, SolverAbort, astr2_step, run, rate_envelopes
from .sharpness import (
    SharpnessSequence,
    PiecewiseQuintic,
    zeta,
    gen_adagrad_example,
    gen_divergent_example,
    hermite_interpolant,
    quintic_from_data,
    sample_figure,
    replay_check,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemOracle",
    "make_problem",
    "finite_diff_check",
    "catalog_names",
    "TrsSolution",
    "EigenPair",
    "DenseModel",
    "KrylovModel",
    "solve_trs_exact",
    "cauchy_decrease",
    "eigen_decrease",
    "min_eigpair",
    "solve_trs_krylov",
    "brute_force_decrease",
    "OptimalityReport",
    "phi1",
    "phi2",
    "phi2_subspace",
    "combined_measures",
    "AdagradScaling",
    "DivergentScaling",
    "adagrad_weights",
    "divergent_weights",
    "Astr2Config",
    "IterateRecord",
    "SolverAbort",
    "astr2_step",
    "run",
    "rate_envelopes",
    "SharpnessSequence",
    "PiecewiseQuintic",
    "zeta",
    "gen_adagrad_example",
    "gen_divergent_example",
    "hermite_interpolant",
    "quintic_from_data",
    "sample_figure",
    "replay_check",
]
