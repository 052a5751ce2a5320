import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_TOOL = _TOOLS / "code_size.py"
_PERFBENCH = _TOOLS.parent / "perfbench"


@pytest.fixture(scope="module")
def code_size():
    spec = importlib.util.spec_from_file_location("code_size", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_size


_BASE = '''
def f(x, y):
    z = x + y
    return z * 2
'''

_LAYOUT_ONLY = '''
"""Module docstring."""

# a comment


def f(x,
      y):
  """Function docstring."""
  z = x + y  # trailing comment

  return z * 2
'''

_ONE_MORE_STATEMENT = '''
def f(x, y):
    z = x + y
    z += 1
    return z * 2
'''


def _size(code_size, tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return code_size(path)


def test_code_size_ignores_comments_docstrings_and_layout(code_size, tmp_path):
    tokens, lines = _size(code_size, tmp_path, "base.py", _BASE)
    assert (tokens, lines) == (17, 3)
    assert _size(code_size, tmp_path, "layout.py", _LAYOUT_ONLY)[0] == tokens


def test_code_size_counts_an_added_statement(code_size, tmp_path):
    tokens, lines = _size(code_size, tmp_path, "base.py", _BASE)
    more, more_lines = _size(code_size, tmp_path, "more.py", _ONE_MORE_STATEMENT)
    assert more == tokens + 3
    assert more_lines == lines + 1


@pytest.mark.parametrize("workload", ["matrix_free", "worst_case", "golden"])
def test_trace_digest_is_reproducible(tmp_path, workload):
    argv = [sys.executable, str(_TOOLS / "trace_digest.py"), "--workload", workload,
            "--seeds", "1", "--workdir", str(tmp_path / "work")]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout
                     for _ in range(2))
    # one line per seed; golden prints one per frozen trace run instead
    assert re.fullmatch(rf"({workload} [\w ]+: [0-9a-f]{{64}}\n)+", first)
    assert second == first


def test_benchmark_hooks_find_their_targets(monkeypatch):
    # Every name a workload rebinds must exist: the benchmark skips a missing
    # one without failing, and the clocks and checks it carried are lost.  A
    # traced pass imports every module its layer hooks name, unguarded, so a
    # lost module breaks every traced run; layer hooks that name a function
    # the program no longer has are reported as missing by design.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    from probes import LAYER_HOOKS, Recorder
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for module, attr, _ in workload.hooks(Recorder(traced=False)):
            assert hasattr(importlib.import_module(module), attr), (workload.name, module, attr)
    for module in {module for module, _, _ in LAYER_HOOKS}:
        importlib.import_module(module)


def test_a_traced_dense_run_records_one_hessian_span_per_iteration(monkeypatch):
    # The benchmark's oracle.hessian.calls_per_iter counts these spans; dense
    # cosine_sum reads its diagonal Hessian once per iteration.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    from probes import Recorder

    import astr2

    rec = Recorder(traced=True)
    oracle = astr2.make_problem("cosine_sum", 10)
    cfg = astr2.Astr2Config(scaling=astr2.AdagradScaling(), max_iter=5)
    assert len(rec.solve(astr2.run, oracle, oracle.x0, cfg)) == 5
    assert [span[0] for span in rec.spans].count("oracle.hessian") == 5


def test_trace_digest_matches_a_program_against_itself():
    argv = [sys.executable, str(_TOOLS / "trace_digest.py"), "--workload", "golden",
            "--against", str(_TOOLS.parent / "src")]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.fullmatch(r"(golden \w+: match [0-9a-f]{64}\n)+", done.stdout)


def test_trace_digest_reports_how_far_two_programs_differ(tmp_path):
    # A copy of the program with a tighter secular tolerance moves the last
    # bits of the dense traces, but no branch.
    src = tmp_path / "src"
    shutil.copytree(_TOOLS.parent / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    trs = src / "astr2" / "trs.py"
    trs.write_text(trs.read_text().replace("_SECULAR_TOL = 1e-13", "_SECULAR_TOL = 1e-15", 1))
    argv = [sys.executable, str(_TOOLS / "trace_digest.py"), "--workload", "golden",
            "--against", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    deviations = []
    for line in done.stdout.splitlines():
        m = re.fullmatch(r"golden \w+: (?:match [0-9a-f]{64}|mismatch [0-9a-f]{64} against "
                         r"[0-9a-f]{64}; branches equal, fields within (\S+) relative; bytes differ: none)",
                         line)
        assert m, line
        if m[1] is not None:
            deviations.append(float(m[1]))
    assert deviations and all(0.0 < d < 1e-10 for d in deviations)


def test_trace_digest_names_the_outputs_whose_bytes_differ(tmp_path):
    # A figure header changed by one byte moves no trace field: the report
    # names the two figure files and nothing else.
    src = tmp_path / "src"
    shutil.copytree(_TOOLS.parent / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "astr2" / "cli.py"
    cli.write_text(cli.read_text().replace('"x,f,fp,fpp"', '"x,f,fp,fpp "', 1))
    argv = [sys.executable, str(_TOOLS / "trace_digest.py"), "--workload", "worst_case",
            "--seeds", "1", "--workdir", str(tmp_path / "work"), "--against", str(src)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert re.fullmatch(r"worst_case seed 1: mismatch [0-9a-f]{64} against [0-9a-f]{64}; "
                        r"branches equal, fields within 0 relative; "
                        r"bytes differ: adagrad.csv, divergent.csv\n", done.stdout)
