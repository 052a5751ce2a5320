import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

from astr2 import AdagradScaling, Astr2Config, DivergentScaling
from astr2.cli import TRACE_HEADER, _build_parser, main, parse_trace_csv, write_trace_csv
from astr2.driver import SolverAbort


def read_csv_rows(path):
    with open(path) as fh:
        return fh.read().rstrip("\n").split("\n")


def test_run_writes_a_parseable_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["run", "--problem", "quadratic_psd", "--n", "4",
                 "--max-iter", "30", "--out", str(out)])
    assert code == 0
    trace = parse_trace_csv(str(out))
    assert [r.k for r in trace] == list(range(30))
    assert all(r.x is None and r.f is None for r in trace)
    assert trace[-1].norm_g < trace[0].norm_g
    # serialization round-trips bitwise
    out2 = tmp_path / "again.csv"
    write_trace_csv(str(out2), trace)
    assert out.read_bytes() == out2.read_bytes()
    assert read_csv_rows(out)[0] == TRACE_HEADER


def test_run_record_f_fills_the_last_column(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--problem", "quadratic_psd", "--n", "3",
                 "--max-iter", "5", "--record-f", "--out", str(out)]) == 0
    trace = parse_trace_csv(str(out))
    assert all(isinstance(r.f, float) for r in trace)
    assert trace[0].f == pytest.approx(1.5)  # 0.5 * ||ones(3)||^2


def test_run_stops_at_the_accuracy_targets(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--problem", "quadratic_psd", "--n", "6",
                 "--max-iter", "500", "--eps1", "1e-6", "--eps2", "2e-6",
                 "--out", str(out)]) == 0
    trace = parse_trace_csv(str(out))
    assert len(trace) < 500
    assert trace[-1].norm_g <= 1e-6
    assert trace[-1].phi <= 1e-6
    assert trace[-2].norm_g > 1e-6 or trace[-2].phi > 1e-6


def test_run_rejects_unknown_problem():
    assert main(["run", "--problem", "nonexistent"]) == 2


def test_run_rejects_wrong_x0_length(capsys):
    code = main(["run", "--problem", "quadratic_psd", "--n", "4",
                 "--x0", "1,2,3"])
    assert code == 2
    assert "dimension" in capsys.readouterr().err


def test_run_rejects_bad_parameters(capsys):
    assert main(["run", "--problem", "quadratic_psd", "--eps1", "1e-6"]) == 2
    capsys.readouterr()


def test_run_has_no_tau_option(capsys):
    assert main(["run", "--problem", "quadratic_psd", "--tau", "0.9"]) == 2
    assert "--tau" in capsys.readouterr().err


def test_run_random_start_is_seeded(tmp_path):
    args = ["run", "--problem", "cosine_sum", "--n", "5", "--x0", "random",
            "--seed", "7", "--max-iter", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["run", "--problem", "cosine_sum", "--n", "5", "--x0", "random",
                 "--seed", "8", "--max-iter", "20", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_run_prints_envelope_summary(tmp_path, capsys):
    assert main(["run", "--problem", "quadratic_psd", "--n", "2",
                 "--max-iter", "10"]) == 0
    out = capsys.readouterr().out
    assert "iterations" in out
    assert "sup_k" in out


def test_sharpness_writes_figure_and_breakpoints(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = main(["sharpness", "--family", "adagrad", "--K", "10",
                 "--samples-per-interval", "20", "--f0-shift", "100",
                 "--out", str(out)])
    assert code == 0
    assert "replay   : ok" in capsys.readouterr().out
    rows = read_csv_rows(out)
    assert rows[0] == "x,f,fp,fpp"
    assert len(rows) == 1 + 10 * 20 + 1
    first = [float(tok) for tok in rows[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(100.0, abs=1e-12)
    bp = read_csv_rows(tmp_path / "fig.breakpoints.csv")
    assert bp[0] == "k,x,f,g,hess,phi,s,dq"
    assert len(bp) == 1 + 11
    k0 = [float(tok) for tok in bp[1].split(",")]
    assert k0[4] == -2.0 and k0[5] == 1.0  # hess_0, phi_0


def test_sharpness_divergent_family(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["sharpness", "--family", "divergent", "--K", "10",
                 "--out", str(out)]) == 0
    assert "replay   : ok" in capsys.readouterr().out


def test_divergent_sharpness_reads_no_varsigma(tmp_path, capsys):
    # The divergent weights are the top of their band, kappa_w (k+1)^mu2;
    # --varsigma belongs to adagrad and leaves divergent files unchanged.
    outputs = []
    for extra in ([], ["--varsigma", "2"]):
        out = tmp_path / f"fig{len(extra)}.csv"
        assert main(["sharpness", "--family", "divergent", "--K", "10",
                     *extra, "--out", str(out)]) == 0
        bp = tmp_path / f"fig{len(extra)}.breakpoints.csv"
        outputs.append((out.read_bytes(), bp.read_bytes()))
    assert outputs[0] == outputs[1]
    capsys.readouterr()


def test_sharpness_has_no_mu_option(tmp_path, capsys):
    # mu is the exponent of the linear weight; the worst-case replay takes
    # only quadratic steps.
    assert main(["sharpness", "--mu", "0.5", "--out", str(tmp_path / "fig.csv")]) == 2
    assert "--mu" in capsys.readouterr().err


def test_sharpness_replay_mismatch_is_a_verification_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("astr2.cli.replay_check", lambda seq: False)
    assert main(["sharpness", "--K", "3", "--out", str(tmp_path / "fig.csv")]) == 3
    captured = capsys.readouterr()
    assert "replay   : MISMATCH" in captured.out
    assert captured.err == "error: driver replay did not reproduce the sequence\n"


def test_sharpness_breakpoints_beside_an_out_without_csv_suffix(tmp_path, capsys):
    assert main(["sharpness", "--K", "3", "--out", str(tmp_path / "fig.txt")]) == 0
    assert read_csv_rows(tmp_path / "fig.txt.breakpoints")[0] == "k,x,f,g,hess,phi,s,dq"
    capsys.readouterr()


def test_sharpness_rejects_out_of_range_eps(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["sharpness", "--family", "adagrad", "--eps", "0",
                 "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_trs_check_small_batch_passes_and_is_deterministic(capsys):
    args = ["trs-check", "--count", "25", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert "kkt violations             : 0" in first


@pytest.mark.parametrize("radius", ["1e300", "1e160"])
def test_trs_check_rejects_radii_whose_model_values_overflow(radius, monkeypatch, capsys):
    # |g^T d| + |d^T H d| overflows on the ball of that radius, so the check
    # stops before it draws an instance: no warning, one error line.
    def never(*args, **kwargs):
        raise AssertionError("an instance was solved")

    monkeypatch.setattr("astr2.cli.solve_trs_exact", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["trs-check", "--count", "5", "--radii", f"1,{radius}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radius") and captured.err.count("\n") == 1


@pytest.mark.parametrize("radius, count", [("1e100", "5"), ("4e153", "20")])
def test_trs_check_at_a_huge_radius_warns_of_no_overflow(radius, count, capsys):
    # The reference works at unit radius on Delta g and Delta^2 H, scaled by
    # a power of two to entries below 1, so nothing it forms overflows;
    # 4e153 is just below the limit at the default --max-n 5.  The
    # tolerances are relative to each instance, so they hold at these radii.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["trs-check", "--radii", radius, "--count", count]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "kkt violations             : 0" in captured.out


@pytest.mark.parametrize("radius", ["1e-120", "1e-300"])
def test_trs_check_at_a_tiny_radius_ends_without_a_traceback(radius, capsys):
    # Every instance is solved and checked at these radii, where the squared
    # norm of an unscaled step underflows, and passes the tolerances, which
    # are relative to the instance.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["trs-check", "--radii", radius, "--count", "20"]) == 0
    assert "max |dq_exact - dq_brute|" in capsys.readouterr().out


def test_trs_check_tolerances_scale_with_the_instance(capsys):
    # Tolerances of the form 1e-8 (||g|| + (||H||_2 + lambda) Delta) for
    # stationarity, 1e-8 lambda Delta for complementarity and 1e-8 (||g||
    # Delta + ||H||_2 Delta^2) for the decreases hold at both ends; absolute
    # ones reported 143 KKT violations on these instances.
    assert main(["trs-check", "--radii", "1e-12,1e12", "--count", "200"]) == 0
    out = capsys.readouterr().out
    assert "kkt violations             : 0" in out
    assert "deviations beyond tolerance: 0" in out


def test_fd_check_passes_on_catalog_problems(capsys):
    assert main(["fd-check", "--problem", "cosine_sum", "--n", "6",
                 "--seed", "1"]) == 0
    assert main(["fd-check", "--problem", "rosenbrock", "--n", "4",
                 "--seed", "2"]) == 0
    capsys.readouterr()


def test_fd_check_rejects_nonpositive_step(capsys):
    assert main(["fd-check", "--problem", "cosine_sum", "--h", "0"]) == 2
    # an infinite step makes both errors nan, which must not pass as <= tol
    assert main(["fd-check", "--problem", "cosine_sum", "--n", "3", "--h", "inf"]) == 2
    capsys.readouterr()


def test_fd_check_rejects_large_steps(capsys):
    # At h >= 0.1 the tolerance 100 h^2 would pass the normalised errors'
    # whole scale of 1; it is capped at 1e-2.
    assert main(["fd-check", "--problem", "cosine_sum", "--h", "1e200"]) == 3
    assert main(["fd-check", "--problem", "cosine_sum", "--h", "1"]) == 3
    assert main(["fd-check", "--problem", "cosine_sum"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "quadratic_psd", "--n", "3", "--x0", "1,2,nan"],
    ["run", "--problem", "quadratic_psd", "--varsigma", "inf"],
    ["run", "--problem", "quadratic_psd", "--scaling", "divergent", "--kappa-w", "inf"],
    ["trs-check", "--count", "2", "--radii", "inf"],
    ["trs-check", "--count", "2", "--radii", "1,nan"],
    ["sharpness", "--K", "2", "--f0-shift", "inf", "--out", "fig.csv"],
    ["sharpness", "--K", "2", "--f0-shift", "nan", "--out", "fig.csv"],
])
def test_non_finite_inputs_are_parameter_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--x0", "1e300"],  # ||g|| overflows
    ["--x0", "1e160"],  # ||g||^2 overflows
    ["--x0", "1e150", "--xi", "1e200"],  # hatphi^3 overflows
], ids=["norm", "square", "cube"])
def test_overflow_is_a_solver_abort(flags, capsys):
    assert main(["run", "--problem", "quadratic_psd", "--n", "1", *flags]) == 1
    err = capsys.readouterr().err
    assert "solver abort after 0 recorded iterations" in err and "Traceback" not in err


def test_an_overflowing_gradient_aborts_without_numpy_warnings():
    # ||g||^2 overflows before any local model is built, so no overflow
    # inside the model reaches stderr ahead of the abort line.
    proc = subprocess.run([sys.executable, "-m", "astr2.cli", "run", "--problem",
                           "quadratic_psd", "--n", "1", "--x0", "1e300"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "solver abort after 0 recorded iterations" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_scaling_flag_defaults_are_the_field_defaults():
    parser = _build_parser()
    run_args = parser.parse_args(["run", "--problem", "quadratic_psd"])
    sharpness_args = parser.parse_args(["sharpness", "--out", "fig.csv"])
    defaults = {field.name: field.default
                for cls in (AdagradScaling, DivergentScaling, Astr2Config)
                for field in dataclasses.fields(cls)}
    for name in ("varsigma", "mu", "nu", "theta", "kappa_w", "mu1", "mu2", "xi"):
        assert getattr(run_args, name) == defaults[name]
    for name in ("nu", "mu2", "kappa_w"):
        assert getattr(sharpness_args, name) == defaults[name]
    assert sharpness_args.varsigma == 0.01  # the figure's own default


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "out.csv")
    assert main(["run", "--problem", "quadratic_psd", "--n", "2",
                 "--max-iter", "2", "--out", missing]) == 2
    assert main(["sharpness", "--K", "2", "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "No such file" in err


def test_run_opens_out_before_iterating(tmp_path, monkeypatch, capsys):
    calls = []

    def record(oracle, x0, config):
        calls.append(x0)
        raise AssertionError("run must not start when --out cannot be opened")

    monkeypatch.setattr("astr2.cli.run", record)
    missing = str(tmp_path / "missing" / "out.csv")
    assert main(["run", "--problem", "quadratic_psd", "--n", "2", "--out", missing]) == 2
    assert calls == []
    assert "No such file" in capsys.readouterr().err


def test_failed_run_keeps_an_earlier_out_file(tmp_path, monkeypatch, capsys):
    def abort(oracle, x0, config):
        raise SolverAbort("g contains non-finite entries", [])

    out = tmp_path / "trace.csv"
    out.write_text("earlier trace\n")
    monkeypatch.setattr("astr2.cli.run", abort)
    assert main(["run", "--problem", "quadratic_psd", "--n", "2", "--out", str(out)]) == 1
    assert out.read_text() == "earlier trace\n"
    capsys.readouterr()


def test_solver_abort_exits_with_code_one(monkeypatch, capsys):
    def abort(oracle, x0, config):
        raise SolverAbort("g contains non-finite entries", [])

    monkeypatch.setattr("astr2.cli.run", abort)
    assert main(["run", "--problem", "quadratic_psd", "--n", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: solver abort after 0 recorded iterations: "
        "g contains non-finite entries\n"
    )


def test_parse_trace_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n")
    with pytest.raises(ValueError):
        parse_trace_csv(str(bad))
    short = tmp_path / "short.csv"
    short.write_text(TRACE_HEADER + "\n0,L,1,1\n")
    with pytest.raises(ValueError):
        parse_trace_csv(str(short))


def test_version_flag_exits_cleanly():
    assert main(["--version"]) == 0


def test_missing_subcommand_is_a_usage_error():
    assert main([]) == 2


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "astr2.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "trust-region" in proc.stdout


def test_a_problem_too_large_for_memory_is_a_parameter_error(monkeypatch, capsys):
    def too_large(oracle, x, h):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr("astr2.cli.finite_diff_check", too_large)
    assert main(["fd-check", "--problem", "cosine_sum", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 74.5 GiB for an array\n"
    assert "Traceback" not in err
