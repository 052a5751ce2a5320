"""Frozen outputs: solver traces, generated sequences and CLI bytes.

``golden.json`` holds what the runs below produced when it was frozen.  A
change that keeps the arithmetic reproduces the traces to rtol 1e-12 and the
generated sequences and CLI files exactly.  A change meant to move them
refreezes the file with

    PYTHONPATH=src python tests/test_golden.py

and records which fields moved and by how much.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from astr2 import (
    AdagradScaling,
    Astr2Config,
    gen_adagrad_example,
    gen_divergent_example,
    make_problem,
    run,
)
from astr2.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RECORD_FIELDS = ("norm_g", "phi", "hatphi", "w_l", "w_q", "delta_l", "delta_q", "norm_s", "dq")
SEQUENCE_FIELDS = ("x", "f", "g", "hess", "phi", "s", "dq")


def _trace(n, x0, max_iter, varsigma=1.0, subspace_max_dim=None):
    config = Astr2Config(
        scaling=AdagradScaling(varsigma=varsigma),
        max_iter=max_iter,
        subspace_max_dim=subspace_max_dim,
    )
    trace = run(make_problem("cosine_sum", n), x0, config)
    return {
        "branch": "".join(r.branch for r in trace),
        **{name: [getattr(r, name) for r in trace] for name in RECORD_FIELDS},
    }


def _near_max(seed, n):
    return 1e-6 * np.random.default_rng(seed).standard_normal(n)


# name -> run producing its record; the comment gives the branch mix.
TRACE_RUNS = {
    # dense, all Q
    "dense_q": lambda: _trace(20, _near_max(1, 20), 30, varsigma=1e6),
    # subspace, all L
    "subspace_l": lambda: _trace(
        100, np.random.default_rng(0).standard_normal(100), 20, subspace_max_dim=20
    ),
    # subspace, two Q iterations, then L
    "subspace_q_eig": lambda: _trace(100, _near_max(1, 100), 10, subspace_max_dim=20),
    # subspace of dimension 5, all Q
    "subspace_q_small": lambda: _trace(30, _near_max(2, 30), 30, varsigma=1e6, subspace_max_dim=5),
    # subspace from g = 0: the first Krylov space grows from the eigenvector seed
    "subspace_zero_gradient": lambda: _trace(8, np.zeros(8), 20, subspace_max_dim=3),
}


def _sequences():
    seqs = {
        "adagrad": gen_adagrad_example(1.0 / 3.0, 0.01, 0.01, 50),
        "divergent": gen_divergent_example(1.0 / 3.0, 0.01, 1.0, 50),
    }
    return {
        family: {name: getattr(seq, name).tolist() for name in SEQUENCE_FIELDS}
        for family, seq in seqs.items()
    }


def _cli_files(tmp_dir):
    digests = {}
    for family in ("adagrad", "divergent"):
        out = Path(tmp_dir) / f"{family}.csv"
        code = main(["sharpness", "--family", family, "--K", "50", "--out", str(out)])
        assert code == 0
        for path in (out, Path(tmp_dir) / f"{family}.breakpoints.csv"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_traces_match_the_frozen_values(golden, name):
    got, want = TRACE_RUNS[name](), golden["traces"][name]
    assert got["branch"] == want["branch"]
    for field in RECORD_FIELDS:
        np.testing.assert_allclose(got[field], want[field], rtol=1e-12, atol=0.0, err_msg=field)


def test_generated_sequences_are_bit_identical(golden):
    assert _sequences() == golden["sequences"]


def test_sharpness_cli_bytes_are_identical(golden, tmp_path):
    assert _cli_files(tmp_path) == golden["cli_sha256"]


def freeze(tmp_dir) -> None:
    data = {
        "traces": {name: make() for name, make in TRACE_RUNS.items()},
        "sequences": _sequences(),
        "cli_sha256": _cli_files(tmp_dir),
    }
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        freeze(tmp)
