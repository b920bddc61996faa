import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrit import bounds, errors
from gcrit.bounds import (METHODS, BoundResult, Method, SandwichReport, Side,
                          sandwich)
from gcrit.cli import (CSV_COLUMNS, METHOD_NAMES, RunConfig, RunRecord,
                       build_potential, expand_methods, load_grid_csv, main,
                       render_wide, run)
from gcrit.errors import ConfigurationError
from gcrit.potentials import Potential
from gcrit.quadrature import DEFAULT_CONFIG
from gcrit.tables import compute_table_row, printed_values, reproduce_table
from oracles import shell_swave_threshold

SRC = Path(__file__).resolve().parent.parent / "src"


def test_printed_values_spot_checks():
    t1 = printed_values(1)
    assert t1[0][3] == 2.4674   # g_c column
    assert t1[5][6] == 75.114   # g_C2 column
    t4 = printed_values(4)
    assert t4[0.1][6] == 440.67
    with pytest.raises(ConfigurationError):
        printed_values(7)


@pytest.fixture(scope="module")
def table1():
    return reproduce_table(1)


def test_table1_reproduces(table1):
    assert table1.passed
    assert table1.max_deviation <= 2e-4
    assert math.isclose(table1.cell(4, "g_New"), 50.357, rel_tol=2e-4)


def test_table_artifact_rendering_deterministic(table1):
    a = table1.to_csv()
    b = table1.to_csv()
    assert a == b
    header = a.splitlines()[0].split(",")
    assert header[0] == "ell"
    assert "g_c_computed" in header
    md = table1.to_markdown()
    assert md.startswith("### Table 1")
    assert "PASS" in md


def test_cli_reproduce_names_erratum(monkeypatch, capsys, table1):
    # rows as the program computes them: every published value, except the
    # true minimizing power at l = 3 where table 2 misprints 4.4015
    def row(table_id, label, cfg=None):
        values = printed_values(table_id)[label]
        return values[:7] + (4.3968075,) if label == 3 else values

    monkeypatch.setattr("gcrit.tables.compute_table_row", row)
    assert main(["reproduce", "--table", "2", "--format", "md"]) == 0
    captured = capsys.readouterr()
    assert "table 2: PASS" in captured.err
    assert "erratum applied: ell=3 p: published 4.4015, judged against 4.3968" \
        in captured.err
    row3 = next(line for line in captured.out.splitlines()
                if line.startswith("| 3 |"))
    assert row3.endswith("4.39681 (1.7e-06) [1] |")
    assert "[1] erratum: ell=3 p: published 4.4015" in captured.out

    assert main(["reproduce", "--table", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert header == ["ell"] + [f"{c}_{k}" for c in ("g_BS", "g_B", "g_GGMT",
                                                     "g_c", "g_New", "g_C1",
                                                     "g_C2", "p")
                                for k in ("computed", "printed", "rel_dev")]
    csv_row3 = lines[4].split(",")
    assert csv_row3[0] == "3" and csv_row3[-2] == "4.4015"
    assert table1.errata == () and "erratum" not in table1.to_markdown()


def test_run_records_square_well():
    config = RunConfig(potential=Potential.square_well(), ells=(1,),
                       methods=("all",))
    records = run(config)
    # eight bound methods apply to the square well
    assert len(records) == 8
    by_method = {r.method: r for r in records}
    assert math.isclose(by_method["bargmann_schwinger"].value, 6.0, rel_tol=1e-10)
    assert math.isclose(by_method["third_order"].value, 9.8132, rel_tol=1e-4)
    assert math.isclose(by_method["variational"].value, 9.9934, rel_tol=1e-4)
    assert math.isclose(by_method["variational_closed_form"].value,
                        1.5 * (math.sqrt(2.5) + 1.0) ** 2, rel_tol=1e-12)
    assert all(r.wall_time_s >= 0.0 for r in records)


def test_run_single_method_printed_value():
    config = RunConfig(potential=Potential.yukawa(), ells=(0,),
                       methods=("variational",))
    (rec,) = run(config)
    assert math.isclose(rec.value, 1.6826, rel_tol=2e-4)
    assert math.isclose(rec.optimal_param, 1.7217, rel_tol=1e-3)


def test_expand_methods_non_square_well():
    methods = expand_methods(("all",), Potential.yukawa())
    assert "variational_closed_form" not in methods
    assert len(methods) == 7


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(potential=Potential.yukawa(), ells=(), methods=("all",))
    with pytest.raises(ConfigurationError):
        RunConfig(potential=Potential.yukawa(), ells=(0,), methods=("nope",))
    with pytest.raises(ConfigurationError):
        RunConfig(potential=Potential.yukawa(), ells=(0,), methods=("all",),
                  fmt="xml")


def test_render_wide_column_contract():
    config = RunConfig(potential=Potential.square_well(), ells=(0,),
                       methods=("bargmann_schwinger", "shooting"))
    text = render_wide(run(config), "csv", 6)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert cells[1] == "2"            # g_BS
    assert cells[2] == ""             # g_eq2 not requested
    assert cells[5].startswith("2.4674")  # g_c_shoot


def test_cli_compute_deterministic(capsys):
    argv = ["compute", "--potential", "square_well", "--ell", "0",
            "--methods", "bargmann_schwinger", "third_order"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_compute_says_when_every_trial_is_rejected(capsys):
    # the shell's Calogero II threshold, about 4 / width, lies above the
    # strength range at every matching radius the search tries
    assert main(["compute", "--potential", "shell", "--shell-width", "1e-9",
                 "--methods", "calogero_ii"]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical error: every trial of the search was rejected, the last "
                   "because sufficient condition never reached 1 below g = 1e+06\n")


def test_cli_calogero_II_overflow_prints_only_the_error():
    # at l = 20 on a narrow shell, (r/a)^(2l) overflows at the frozen rule's
    # nodes; the numerical error must be the only line on stderr
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gcrit.cli", "compute", "--potential", "shell",
         "--shell-width", "1e-3", "--ell", "20", "--methods", "calogero_ii"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical error: every trial of the search was rejected, "
                           "the last because integrand returned a non-finite value "
                           "in [0.0, 1.0]\n")


def test_cli_records_format(capsys):
    assert main(["compute", "--potential", "square_well", "--ell", "0",
                 "--methods", "bargmann_schwinger", "--records"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("ell,method,value")
    assert "bargmann_schwinger" in out


def test_cli_records_markdown_format(capsys):
    assert main(["compute", "--potential", "square_well", "--ell", "0",
                 "--methods", "bargmann_schwinger", "--records", "--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("| ell | method | value | optimal_param | error_estimate"
                        " | wall_time_s |")
    assert lines[2].startswith("| 0 | bargmann_schwinger |")


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[potential]\nkind = stis\nalpha = 1.0\n\n"
        "[run]\nell = 0\nmethods = bargmann_schwinger\nformat = csv\n\n"
        "[quadrature]\nrel_tol = 1e-9\n")
    assert main(["compute", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[1].split(",")[1])
    assert math.isclose(value, 1.0 / (math.log(2.0) - 0.5), rel_tol=1e-6)


def test_cli_markdown_output(capsys):
    assert main(["compute", "--potential", "exponential", "--ell", "0",
                 "--methods", "bargmann_schwinger", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| ell |")


def test_cli_tabulated_grid(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("radius,value\n0.5,2.0\n1.0,1.0\n2.0,0.0\n")
    assert main(["compute", "--potential", "tabulated", "--grid-csv", str(grid),
                 "--ell", "0", "--methods", "bargmann_schwinger"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[1].split(",")[1]) > 0.0


GRID_METHODS = [m.value for m, spec in METHODS.items() if spec.kind is None]
GRID_ARGVS = [["compute", "--methods", m] for m in GRID_METHODS] + [["check"]]


@pytest.mark.parametrize("argv", GRID_ARGVS)
def test_cli_all_zero_grid_is_one_configuration_error(tmp_path, capsys, argv):
    assert len(GRID_METHODS) == 9
    grid = tmp_path / "zero.csv"
    grid.write_text("1.0,0\n")
    assert main([*argv, "--potential", "tabulated", "--grid-csv", str(grid)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: grid values must not all be zero\n")


# valid shapes whose defining integrals underflow: every grid method fails on
# the subnormal grid, and the second- and third-order moments on the 1e-300 one
_UNDERFLOWING_GRIDS = {"subnormal": "0.5,5e-324\n1.0,5e-324\n2.0,0\n",
                       "1e-300": "0.5,1e-300\n1.0,1e-300\n2.0,0\n"}


@pytest.mark.parametrize("name, argv", [("subnormal", argv) for argv in GRID_ARGVS]
                         + [("1e-300", ["compute", "--methods", m])
                            for m in ("second_order", "third_order")]
                         + [("1e-300", ["check"])])
def test_cli_grid_that_underflows_is_a_numerical_error(tmp_path, capsys, name, argv):
    grid = tmp_path / "grid.csv"
    grid.write_text(_UNDERFLOWING_GRIDS[name])
    assert main([*argv, "--potential", "tabulated", "--grid-csv", str(grid)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


# valid shapes whose search ends on the edge of its rejected trials: in units
# of 1e8, Calogero II's threshold is below G_SEARCH_RANGE at every radius
# from 0.00666667 up, and at 1e300 GGMT's power moment overflows above
# p = 1.02663
_REJECTION_EDGE_GRIDS = {
    "x1e8": ("0.5e8,1\n1e8,1\n2e8,0\n", r"0\.00666666\d*, which was rejected because "
             r"sufficient condition already holds at g = 1e-06"),
    "1e300": ("0.5,1e300\n1,1e300\n2,0\n", r"1\.02663\d*, which was rejected because "
              r"power moment at p=1\.02663\d* evaluated to inf"),
}


@pytest.mark.parametrize("name, methods", [("x1e8", "calogero_ii"), ("x1e8", "all"),
                                           ("1e300", "ggmt")])
def test_cli_optimum_beside_a_rejected_trial_is_a_numerical_error(tmp_path, capsys,
                                                                  name, methods):
    text, rejection = _REJECTION_EDGE_GRIDS[name]
    grid = tmp_path / "grid.csv"
    grid.write_text(text)
    assert main(["compute", "--potential", "tabulated", "--grid-csv", str(grid),
                 "--methods", methods]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numerical error: the optimum at [0-9.e+-]+ borders the "
                        rf"trial at {rejection}\n", captured.err)


# every error type of the package, by the exit code `main` ends in
_EXIT_CODES = {errors.ConfigurationError: 2, errors.DomainError: 2,
               errors.AccuracyError: 3, errors.IntegrationError: 3,
               errors.NoBoundStateError: 3, errors.SearchRangeError: 3,
               errors.TruncationError: 3, errors.InvariantViolation: 1}
_EXIT_PREFIXES = {1: "invariant violation: ", 2: "configuration error: ",
                  3: "numerical error: "}


def test_every_error_type_has_one_exit_code(monkeypatch, capsys):
    declared = {obj for obj in vars(errors).values()
                if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert declared == set(_EXIT_CODES)
    for error, code in _EXIT_CODES.items():
        def failing_run(config):
            raise error("raised on purpose")

        monkeypatch.setattr("gcrit.cli.run", failing_run)
        assert main(["compute", "--potential", "square_well"]) == code, error
        err = capsys.readouterr().err
        assert err == f"{_EXIT_PREFIXES[code]}raised on purpose\n", error


def test_load_grid_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("radius,value\n0.5,2.0\nnot,a,number\n")
    with pytest.raises(ConfigurationError):
        load_grid_csv(str(bad))


def test_cli_config_errors(capsys):
    assert main(["compute", "--potential", "wiggly", "--ell", "0",
                 "--methods", "all"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["compute", "--potential", "stis", "--ell", "0",
                 "--methods", "all"]) == 2
    assert main(["compute", "--potential", "yukawa", "--ell", "0",
                 "--methods", "variational_closed_form"]) == 2


def _printed_row(table_id, label, cfg=None):
    """compute_table_row as if every computed value were the printed one."""
    return printed_values(table_id)[label]


def test_cli_reproduce_rejects_too_few_digits_before_computing(monkeypatch, capsys):
    rows = []

    def row(table_id, label, cfg=None):
        rows.append(label)
        return _printed_row(table_id, label)

    monkeypatch.setattr("gcrit.tables.compute_table_row", row)
    for digits in ("-1", "0", "1"):
        assert main(["reproduce", "--table", "1", "--digits", digits]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
    assert rows == []
    assert main(["reproduce", "--table", "1", "--digits", "2"]) == 0
    assert rows == list(printed_values(1))


@pytest.mark.parametrize("argv", [
    ["compute", "--potential", "square_well", "--methods", "bargmann_schwinger"],
    ["reproduce", "--table", "1"]])
def test_cli_unwritable_out_is_a_configuration_error(monkeypatch, tmp_path, capsys,
                                                     argv):
    computed = []

    def row(table_id, label, cfg=None):
        computed.append(label)
        return _printed_row(table_id, label)

    def lower(*args, _real=bounds.lower_bargmann_schwinger):
        computed.append(args)
        return _real(*args)

    monkeypatch.setattr("gcrit.tables.compute_table_row", row)
    monkeypatch.setattr(bounds, "lower_bargmann_schwinger", lower)
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write")
    assert str(out) in err
    assert main(argv + ["--out", str(tmp_path)]) == 2   # a directory
    assert capsys.readouterr().err.startswith("configuration error: cannot write")
    assert computed == []
    # a path whose parent is a file passes the check and fails only when
    # written, where the write error maps to the same exit
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--out", str(blocker / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write")
    assert computed


def test_cli_out_check_leaves_the_file_alone(tmp_path, capsys):
    # the run fails after the --out check: an existing file keeps its
    # content and a new one is not created
    cfg = tmp_path / "starved.ini"
    cfg.write_text("[potential]\nkind = yukawa\n\n[run]\nmethods = bargmann_schwinger\n\n"
                   "[quadrature]\nmax_subdivisions = 1\n")
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier\n")
    for out in (kept, tmp_path / "new.csv"):
        assert main(["compute", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical error" in capsys.readouterr().err
    assert kept.read_text() == "earlier\n"
    assert not (tmp_path / "new.csv").exists()


def test_cli_nonconvergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "starved.ini"
    cfg.write_text(
        "[potential]\nkind = yukawa\n\n"
        "[run]\nell = 0\nmethods = bargmann_schwinger\n\n"
        "[quadrature]\nmax_subdivisions = 1\n")
    assert main(["compute", "--config", str(cfg)]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["compute", "check"])
def test_cli_overflowing_grid_is_a_numerical_error(tmp_path, capsys, verb):
    # the integrand overflows on this grid and quadrature raises
    # IntegrationError, which must map to exit 3 like any non-convergence
    grid = tmp_path / "huge.csv"
    grid.write_text("radius,value\n0.1,1e308\n0.5,1e308\n1.0,0\n")
    assert main([verb, "--potential", "tabulated", "--grid-csv", str(grid),
                 "--ell", "0"]) == 3
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert "Traceback" not in err


def test_cli_overflowing_search_trial_is_rejected(capsys):
    # v = 1e9 on this shell, so the power-family integrand (r^2 v)^p and the
    # trial weight v^p overflow once p exceeds about 34; such a trial must
    # score as rejected instead of aborting the whole search
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["compute", "--potential", "shell", "--shell-width", "1e-9",
                     "--methods", "ggmt", "variational", "shooting", "--records"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    value = {row[1]: float(row[2]) for row in
             (line.split(",") for line in captured.out.splitlines()[1:])}
    assert value["ggmt"] <= value["shooting"] <= value["variational"]


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
def test_cli_infinite_tolerance_is_a_configuration_error(tmp_path, capsys, key):
    # an infinite tolerance stops refinement at the first estimate and
    # prints an inf error estimate; it must be refused as a bad config
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[potential]\nkind = exponential\n\n[quadrature]\n{key} = inf\n")
    assert main(["compute", "--config", str(cfg), "--methods",
                 "bargmann_schwinger", "--records"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert "Traceback" not in captured.err
    assert "inf" not in captured.out


def test_build_potential_dispatch():
    assert build_potential("yukawa", R=2.0).R == 2.0
    assert build_potential("stis", alpha=3.0).alpha == 3.0
    with pytest.raises(ConfigurationError):
        build_potential("shell")


def test_cli_check_square_well(capsys):
    assert main(["check", "--potential", "square_well", "--ell", "0"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_cli_check_flags_irregular_potential(tmp_path, capsys):
    grid = tmp_path / "singular.csv"
    rows = "\n".join(f"{2.0 ** -k},{(2.0 ** -k) ** -2}" for k in range(40, -1, -1))
    grid.write_text("radius,value\n" + rows + "\n")
    assert main(["check", "--potential", "tabulated",
                 "--grid-csv", str(grid), "--ell", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "regular" in out


def test_method_order_is_pinned(capsys):
    assert METHOD_NAMES == (
        "bargmann_schwinger", "second_order", "third_order", "ggmt",
        "calogero_i", "calogero_ii", "variational", "variational_closed_form",
        "shooting", "nystrom")
    assert main(["compute", "--potential", "square_well", "--ell", "0",
                 "--methods", "all", "--records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == [
        "bargmann_schwinger", "second_order", "third_order", "ggmt",
        "calogero_i", "calogero_ii", "variational", "variational_closed_form"]


def test_callers_reach_replaced_module_attributes(monkeypatch):
    # a tracer (or a spy) swaps module attributes; a caller holding function
    # objects captured at import time would bypass the swap
    calls = []
    for name in ("upper_calogero_I", "critical_coupling_shooting"):
        def counted(*args, _real=getattr(bounds, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    want = ["critical_coupling_shooting", "upper_calogero_I"]
    pot = Potential.square_well()

    sandwich(pot, 0)
    assert sorted(calls) == want
    calls.clear()
    compute_table_row(1, 0)
    assert sorted(calls) == want
    calls.clear()
    run(RunConfig(potential=pot, ells=(0,), methods=("calogero_i", "shooting")))
    assert sorted(calls) == want


@pytest.mark.parametrize("ini, flags, named", [
    ("[potential]\nkind = yukawa\nR = wide\n", [], "R = 'wide'"),
    ("[potential]\nkind = yukawa\n[run]\nell = 0 x\n", [], "ell = '0 x'"),
    ("[potential]\nkind = yukawa\n[quadrature]\nrel_tol = fast\n", [],
     "rel_tol = 'fast'"),
    ("kind = yukawa\n", [], "no section headers"),
    ("[potential]\nkind = tabulated\n", ["--grid-csv", "missing.csv"],
     "grid_csv"),
    ("[potential]\nkind = yukawa\n", ["--ell", "-1"], "ell values must be nonnegative"),
    ("[potential]\nkind = yukawa\n", ["--digits", "1"], "digits must be at least 2"),
    ("[run]\nell = 0\n", [], "field kind: no potential given"),
], ids=["R", "ell", "rel_tol", "no_header", "missing_grid", "negative_ell", "digits",
        "no_kind"])
def test_cli_malformed_config_is_a_configuration_error(tmp_path, capsys, ini,
                                                       flags, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    assert main(["compute", "--config", str(cfg), "--methods",
                 "bargmann_schwinger", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
    assert "Traceback" not in err


def test_check_defines_no_run_flags(tmp_path, capsys):
    # --methods, --format and --digits belong to compute; check refuses them
    for flag, value in (("--methods", "all"), ("--format", "md"), ("--digits", "4")):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--potential", "square_well", flag, value])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # a config file's [run] section still configures check
    cfg = tmp_path / "run.ini"
    cfg.write_text("[potential]\nkind = square_well\n\n"
                   "[run]\nell = 1\nmethods = ggmt\nformat = md\ndigits = 4\n")
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "square_well" in out and "ell=1" in out and "FAIL" not in out


def test_check_config_reads_only_what_check_uses(tmp_path, capsys):
    # methods, format and digits configure compute; check neither reads nor
    # rejects them
    cfg = tmp_path / "run.ini"
    cfg.write_text("[potential]\nkind = square_well\n\n"
                   "[run]\nell = 0\nmethods = nope\nformat = html\ndigits = x\n")
    assert main(["check", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "ell=0" in captured.out and "FAIL" not in captured.out
    assert captured.err == ""
    assert main(["compute", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("shape, quadrature", [("yukawa", "max_subdivisions = 1")])
def test_check_config_uses_its_quadrature_section(tmp_path, capsys, shape, quadrature):
    # a starved [quadrature] section fails check as it fails compute
    cfg = tmp_path / "starved.ini"
    cfg.write_text(f"[potential]\nkind = {shape}\n\n[run]\nell = 0\n\n"
                   f"[quadrature]\n{quadrature}\n")
    assert main(["check", "--config", str(cfg)]) == 3
    assert "numerical error" in capsys.readouterr().err


# a key gcrit does not read, by the verb that meets it: a misspelt key, a
# key of another section, a section gcrit has not and [DEFAULT]
@pytest.mark.parametrize("verb, ini, named", [
    ("check", "[potential]\nkind = exponential\n[quadrature]\nmax_radius = 0.5\n",
     "[quadrature] max_radius"),
    ("compute", "[potential]\nkind = yukawa\n[quadrature]\nrel_tl = 1e-6\n",
     "[quadrature] rel_tl"),
    ("check", "[potential]\nkind = yukawa\n[run]\nrel_tol = 1e-6\n", "[run] rel_tol"),
    ("compute", "[potential]\nkind = yukawa\n[quadratur]\nrel_tol = 1e-6\n",
     "[quadratur] rel_tol"),
    ("compute", "[DEFAULT]\nell = 1\n[potential]\nkind = yukawa\n", "[DEFAULT] ell"),
], ids=["check-max_radius", "compute-misspelt", "check-other_section",
        "compute-unknown_section", "compute-default_section"])
def test_cli_config_key_gcrit_does_not_read_is_a_configuration_error(tmp_path, capsys,
                                                                     verb, ini, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert main([verb, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"configuration error: config file {str(cfg)!r}: "
                            f"{named} is not a gcrit key\n")


# input read from a file, judged where it enters: (files to write, argv with
# those names, the message)
_FILE_INPUTS = {
    "empty_methods": ({"run.ini": "[potential]\nkind = yukawa\n[run]\nmethods =\n"},
                      ["compute", "--config", "run.ini"], "at least one method is required"),
    "absent_config": ({}, ["check", "--config", "absent.ini"], "cannot read config file"),
    "grid_inf": ({"grid.csv": "0.5,inf\n1.0,0\n"},
                 ["compute", "--potential", "tabulated", "--grid-csv", "grid.csv"],
                 "grid entries must be finite"),
    "grid_header_only": ({"grid.csv": "radius,value\n\n"},
                         ["compute", "--potential", "tabulated", "--grid-csv", "grid.csv"],
                         "no grid rows found"),
}


@pytest.mark.parametrize("case", sorted(_FILE_INPUTS))
def test_cli_input_from_a_file_is_judged_where_it_enters(tmp_path, capsys, case):
    files, argv, named = _FILE_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".ini", ".csv")) else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert "Traceback" not in err


def test_bad_table_id_raises_before_computing(monkeypatch):
    rows = []

    def row(table_id, label):
        rows.append(label)
        return _printed_row(table_id, label)

    monkeypatch.setattr("gcrit.tables.compute_table_row", row)
    for lookup in (printed_values, reproduce_table):
        with pytest.raises(ConfigurationError) as exc:
            lookup(5)
        assert str(exc.value) == "table id must be 1..4, got 5"
    assert rows == []


# -- the one table renderer against the writers it replaced --------------------

def reference_render_wide(records, fmt, digits):
    """cli.render_wide as first written, with its own CSV and markdown."""
    num = f"{{:.{digits}g}}"
    by_ell = {}
    for rec in records:
        col = METHODS[Method(rec.method)].column
        if col is None:
            continue
        cells = by_ell.setdefault(rec.ell, {})
        cells[col] = num.format(rec.value)
        if rec.method == Method.VARIATIONAL and rec.optimal_param is not None:
            cells["p*"] = num.format(rec.optimal_param)
    rows = [[str(ell)] + [by_ell[ell].get(c, "") for c in CSV_COLUMNS[1:]]
            for ell in sorted(by_ell)]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        return out.getvalue()
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
             "|" + "---|" * len(CSV_COLUMNS)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def reference_records(records, digits):
    """The `gcrit compute --records` writer as first written."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["ell", "method", "value", "optimal_param",
                     "error_estimate", "wall_time_s"])
    num = f"{{:.{digits}g}}"
    for r in records:
        writer.writerow([r.ell, r.method, num.format(r.value),
                         "" if r.optimal_param is None else num.format(r.optimal_param),
                         f"{r.error_estimate:.2e}", f"{r.wall_time_s:.3f}"])
    return out.getvalue()


def reference_to_csv(art, digits):
    """TableArtifact.to_csv as first written."""
    out = io.StringIO()
    fmt = f"{{:.{digits}g}}"
    header = [art.row_label]
    for c in art.columns:
        header += [f"{c}_computed", f"{c}_printed", f"{c}_rel_dev"]
    out.write(",".join(header) + "\n")
    for lbl, comp, prt, dev in zip(art.row_labels, art.computed,
                                   art.printed, art.deviations):
        cells = [fmt.format(lbl)]
        for c, p, d in zip(comp, prt, dev):
            cells += [fmt.format(c), fmt.format(p), f"{d:.2e}"]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def reference_to_markdown(art, digits):
    """TableArtifact.to_markdown as first written."""
    fmt = f"{{:.{digits}g}}"
    header = [art.row_label] + [f"{c} (dev)" for c in art.columns]
    lines = [f"### Table {art.table_id}: {art.title} "
             f"[{'PASS' if art.passed else 'FAIL'}]",
             "| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    marks = {(e.label, e.column): f" [{n}]"
             for n, e in enumerate(art.errata, 1)}
    for lbl, comp, dev in zip(art.row_labels, art.computed, art.deviations):
        cells = [fmt.format(lbl)]
        cells += [f"{fmt.format(c)} ({d:.1e}){marks.get((lbl, col), '')}"
                  for col, c, d in zip(art.columns, comp, dev)]
        lines.append("| " + " | ".join(cells) + " |")
    if art.errata:
        lines.append("")
        lines += [f"[{n}] erratum: {e.describe()}"
                  for n, e in enumerate(art.errata, 1)]
    return "\n".join(lines) + "\n"


#: ell 0 has every column but g_eq2 and a p*, ell 1 a variational bound
#: without one and a closed form (no column), ell 3 a single solver value;
#: the values span digits that --digits 2..8 round differently
RECORDS = [
    RunRecord(0, "bargmann_schwinger", 2.0, None, 2e-9, 0.0012),
    RunRecord(0, "variational", 2.47466291, 1.23456789, 2.5e-9, 1.25),
    RunRecord(0, "calogero_ii", 123456.789, 0.5, 1.2e-4, 0.0),
    RunRecord(0, "shooting", 2.4674011, None, 2.5e-11, 0.031),
    RunRecord(0, "nystrom", 2.46740115, None, 2.5e-5, 0.004),
    RunRecord(1, "variational", 9.99340001, None, 1e-8, 0.0005),
    RunRecord(1, "variational_closed_form", 9.9934, None, 0.0, 0.0),
    RunRecord(1, "ggmt", 0.000123456789, None, 1.3e-15, 12.3456),
    RunRecord(3, "nystrom", 33.2174, None, 3.3e-4, 0.0),
]


@pytest.mark.parametrize("digits", [2, 6, 8])
def test_compute_output_matches_the_reference_writers(monkeypatch, capsys, digits):
    monkeypatch.setattr("gcrit.cli.run", lambda config: RECORDS)
    argv = ["compute", "--potential", "square_well", "--digits", str(digits)]
    for fmt in ("csv", "md"):
        assert render_wide(RECORDS, fmt, digits) == reference_render_wide(RECORDS, fmt, digits)
        assert main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == reference_render_wide(RECORDS, fmt, digits)
    assert main(argv + ["--records"]) == 0
    assert capsys.readouterr().out == reference_records(RECORDS, digits)


@pytest.mark.parametrize("digits", [2, 6, 8])
def test_table_artifacts_match_the_reference_writers(monkeypatch, capsys, digits):
    def row(table_id, label, cfg=None):
        values = printed_values(table_id)[label]
        return values[:7] + (4.3968075,) if (table_id, label) == (2, 3) else values

    monkeypatch.setattr("gcrit.tables.compute_table_row", row)
    for table_id in (1, 2):
        art = reproduce_table(table_id)
        assert bool(art.errata) == (table_id == 2)
        assert art.to_csv(digits) == reference_to_csv(art, digits)
        assert art.to_markdown(digits) == reference_to_markdown(art, digits)
        argv = ["reproduce", "--table", str(table_id), "--digits", str(digits)]
        assert main(argv) == 0
        assert capsys.readouterr().out == reference_to_csv(art, digits)
        assert main(argv + ["--format", "md"]) == 0
        assert capsys.readouterr().out == reference_to_markdown(art, digits)


def test_cli_quadrature_errors_print_plain_floats(tmp_path, capsys):
    # two panels leave the error at the rounding floor 50 eps |f|, which the
    # message prints as a plain float; the search's optimum borders a trial
    # that exhausted them
    cfg = tmp_path / "starved.ini"
    cfg.write_text("[potential]\nkind = square_well\n\n[run]\nell = 0\n\n"
                   "[quadrature]\nmax_subdivisions = 2\n")
    assert main(["compute", "--config", str(cfg), "--methods", "ggmt"]) == 3
    err = capsys.readouterr().err
    assert "np.float64(" not in err
    assert err == ("numerical error: the optimum at 1.0000312677455079 borders the "
                   "trial at 1.0000314429739354, which was rejected because "
                   "quadrature budget of 2 panels exhausted "
                   "(estimate 0.4999842789843827, error 5.021590372758836e-10)\n")


def test_cli_check_fails_on_a_bound_ordering_violation(monkeypatch, capsys):
    # a lower limit above the exact value makes sandwich raise, and check
    # reports it as a failure with exit 1
    monkeypatch.setattr(bounds, "lower_bargmann_schwinger",
                        lambda pot, ell, cfg: BoundResult(
                            Method.BARGMANN_SCHWINGER, Side.LOWER, 3.0, ell))
    assert main(["check", "--potential", "square_well", "--ell", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ok   square_well: regular at origin and infinity"
    assert lines[1].startswith("FAIL bound ordering violated for square_well ell=0: "
                               "max lower 3.0, exact 2.4674")
    assert len(lines) == 2


def test_cli_check_without_a_potential_visits_every_analytic_kind(monkeypatch, capsys):
    # every kind at its parameter's default; the shell has none and sits out
    visited = []

    def stub(pot, ell, cfg):
        visited.append((pot.label(), ell, cfg))
        lows = tuple(BoundResult(m, Side.LOWER, 1.0, ell) for m in (
            Method.BARGMANN_SCHWINGER, Method.SECOND_ORDER, Method.THIRD_ORDER,
            Method.GGMT))
        return SandwichReport(pot, ell, lows,
                              (BoundResult(Method.CALOGERO_I, Side.UPPER, 2.0, ell),),
                              1.5, 1.5, 0.0)

    monkeypatch.setattr("gcrit.cli.sandwich", stub)
    assert main(["check"]) == 0
    labels = ["square_well", "exponential", "yukawa", "stis(alpha=1)"]
    assert visited == [(label, ell, DEFAULT_CONFIG) for label in labels
                       for ell in (0, 1, 2)]
    out = capsys.readouterr().out
    assert "FAIL" not in out and "shell" not in out
    assert out.count("regular at origin and infinity") == 4
    assert "stis(alpha=1) ell=2: solvers agree to 0.00e+00" in out


def _stub_sandwich(visited):
    """A sandwich that records its (label, ell) and reports passing verdicts."""
    def stub(pot, ell, cfg):
        visited.append((pot.label(), ell))
        lows = tuple(BoundResult(m, Side.LOWER, 1.0, ell) for m in (
            Method.BARGMANN_SCHWINGER, Method.SECOND_ORDER, Method.THIRD_ORDER,
            Method.GGMT))
        return SandwichReport(pot, ell, lows,
                              (BoundResult(Method.CALOGERO_I, Side.UPPER, 2.0, ell),),
                              1.5, 1.5, 0.0)
    return stub


@pytest.mark.parametrize("source, ells, want", [
    ("flags", "0 0", ["0"]), ("config", "0 1 0", ["0", "1"])])
def test_cli_compute_runs_a_repeated_ell_once(tmp_path, capsys, source, ells, want):
    # a repeated partial wave is dropped as a repeated method is: the first
    # appearance sets the order
    argv = ["compute", "--methods", "bargmann_schwinger", "--records"]
    if source == "flags":
        argv += ["--potential", "exponential", "--ell", *ells.split()]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[potential]\nkind = exponential\n\n[run]\nell = {ells}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [ell, "bargmann_schwinger"] for ell in want]


@pytest.mark.parametrize("source", ["flags", "config", "default"])
def test_cli_check_runs_a_repeated_ell_once(monkeypatch, tmp_path, capsys, source):
    visited = []
    monkeypatch.setattr("gcrit.cli.sandwich", _stub_sandwich(visited))
    if source == "flags":
        argv = ["check", "--potential", "square_well", "--ell", "0", "0"]
    elif source == "config":
        cfg = tmp_path / "run.ini"
        cfg.write_text("[potential]\nkind = square_well\n\n[run]\nell = 0 0\n")
        argv = ["check", "--config", str(cfg)]
    else:
        argv = ["check", "--ell", "1", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    ells = (0,) if source != "default" else (1,)
    labels = ["square_well"] if source != "default" else [
        "square_well", "exponential", "yukawa", "stis(alpha=1)"]
    assert visited == [(label, ell) for label in labels for ell in ells]
    assert len(out) == len(set(out)) == 5 * len(labels)


@pytest.mark.parametrize("argv", [["check", "--ell", "-1"],
                                  ["check", "--ell", "0", "-1"],
                                  ["compute", "--potential", "square_well", "--ell", "-1"]])
def test_a_negative_ell_is_judged_before_any_output(monkeypatch, capsys, argv):
    # check without a potential judges its ells as compute does, before the
    # first shape's regularity line
    visited = []
    monkeypatch.setattr("gcrit.cli.sandwich", _stub_sandwich(visited))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "configuration error: ell values must be nonnegative\n"
    assert visited == []


def test_cli_compute_out_writes_what_stdout_prints(tmp_path, capsys):
    argv = ["compute", "--potential", "exponential", "--ell", "0", "1",
            "--methods", "bargmann_schwinger", "second_order", "--format", "md"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "bounds.md"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert printed.startswith("| ell |")


# -- the error contract of `compute`, by property ------------------------------

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@given(kind=st.sampled_from(["square_well", "exponential", "yukawa", "stis", "shell"]),
       log_R=st.floats(-2.0, 2.0), ell=st.integers(0, 6),
       log_alpha=st.floats(-1.3, 1.7), log_width=st.floats(-5.0, -0.3),
       method=st.sampled_from(METHOD_NAMES))
def test_cli_compute_ends_in_an_exit_code_and_prints_only_finite_numbers(
        kind, log_R, ell, log_alpha, log_width, method):
    argv = ["compute", "--potential", kind, "--R", repr(10.0 ** log_R),
            "--ell", str(ell), "--methods", method]
    if kind == "stis":
        argv += ["--alpha", repr(10.0 ** log_alpha)]
    if kind == "shell":
        argv += ["--shell-width", repr(10.0 ** log_width)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)   # anything raised here fails the test
    # every example is a valid shape: only a method for another kind is a
    # configuration error, and any other failure is numerical
    if method == "variational_closed_form" and kind != "square_well":
        assert code == 2, (argv, code)
    else:
        assert code in (0, 3), (argv, code)
    assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def _grids(draw):
    """1-60 knots reaching up to 10^[-1, 1], values of 10^[-3, 3] with a run
    of zeros, and at least one value positive."""
    n = draw(st.integers(1, 60))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    reach = 10.0 ** draw(st.floats(-1.0, 1.0))
    total = math.fsum(steps)
    radii, acc = [], 0.0
    for step in steps:
        acc += step
        radii.append(acc / total * reach)
    values = [10.0 ** e for e in draw(st.lists(st.floats(-3.0, 3.0),
                                              min_size=n, max_size=n))]
    keep = draw(st.integers(0, n - 1))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    for i in range(lo, hi):
        if i != keep:
            values[i] = 0.0
    return list(zip(radii, values))


@given(grid=_grids(), ell=st.integers(0, 4), method=st.sampled_from(METHOD_NAMES))
def test_cli_compute_on_a_grid_ends_in_an_exit_code_and_prints_only_finite_numbers(
        tmp_path_factory, grid, ell, method):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_text("".join(f"{r!r},{v!r}\n" for r, v in grid))
    argv = ["compute", "--potential", "tabulated", "--grid-csv", str(path),
            "--ell", str(ell), "--methods", method]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)   # anything raised here fails the test
    # every example is a valid grid: only the square well's closed form is a
    # configuration error, and any other failure is numerical
    if method == "variational_closed_form":
        assert code == 2, (grid, argv, code)
    else:
        assert code in (0, 3), (grid, argv, code)
    assert not _NON_FINITE.search(out.getvalue()), (grid, argv, out.getvalue())
    assert "Traceback" not in err.getvalue()


def test_cli_prints_a_warning_as_one_plain_line(capsys):
    # the ggmt optimum sits at its capped power; Python's default would
    # print the warning's file, line and source line
    assert main(["compute", "--potential", "exponential", "--ell", "200",
                 "--methods", "ggmt"]) == 0
    assert capsys.readouterr().err == "warning: minimum sits at the upper parameter cap\n"


# -- `check` on grids and `compute` on shells, by property ---------------------

def _run_main(argv):
    """(exit code, stdout, stderr) of `main(argv)`; anything raised fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _check_grids(draw):
    """2-60 knots at distinct radii in [0.05, 10], values in [0, 5] with a
    run of zeros, the last value 0 and one value before it positive, all on
    a lattice of 0.01."""
    radii = sorted(draw(st.lists(st.integers(5, 1000), min_size=2, max_size=60,
                                 unique=True)))
    n = len(radii)
    values = draw(st.lists(st.integers(0, 500), min_size=n, max_size=n))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    values[lo:hi] = [0] * (hi - lo)
    values[draw(st.integers(0, n - 2))] = draw(st.integers(1, 500))
    values[-1] = 0
    return [(r / 100, v / 100) for r, v in zip(radii, values)]


@settings(max_examples=10)
@given(grid=_check_grids(), ell=st.integers(0, 2))
def test_cli_check_on_a_grid_reports_every_verdict(tmp_path_factory, grid, ell):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_text("".join(f"{r!r},{v!r}\n" for r, v in grid))
    code, out, err = _run_main(["check", "--potential", "tabulated",
                                "--grid-csv", str(path), "--ell", str(ell)])
    assert code in (0, 1, 2, 3), (grid, ell, code)
    assert "Traceback" not in err
    assert not _NON_FINITE.search(out), (grid, ell, out)
    lines = out.splitlines()
    assert all(line.startswith(("ok", "FAIL")) for line in lines), (grid, ell, out)
    failed = any(line.startswith("FAIL") for line in lines)
    # a run that finished exits 0 exactly when no verdict failed
    assert code not in (0, 1) or (code == 1) == failed, (grid, ell, code, out)


#: shooting's relative error against `shell_swave_threshold` at l = 0 and
#: the default log step peaks at 2.45e-9 near width 0.03 (300 widths in
#: [0.01, 0.5]) and is 2.1e-12 at width 1e-3; this allows 3x
_SHELL_SWAVE_ERROR = 3 * 2.45e-9


@settings(max_examples=10)
@given(log_width=st.floats(-12.0, math.log10(0.5)), ell=st.integers(0, 5))
def test_cli_compute_on_a_shell_ends_in_an_exit_code_and_a_finite_threshold(
        log_width, ell):
    width = 10.0 ** log_width
    code, out, err = _run_main(["compute", "--potential", "shell", "--shell-width",
                                repr(width), "--ell", str(ell), "--digits", "17",
                                "--methods", "shooting", "bargmann_schwinger",
                                "calogero_i"])
    assert code in (0, 1, 2, 3), (width, ell, code)
    assert "Traceback" not in err
    assert not _NON_FINITE.search(out), (width, ell, out)
    if ell == 0 and code == 0:
        row = next(csv.DictReader(io.StringIO(out)))
        want = shell_swave_threshold(width)
        assert abs(float(row["g_c_shoot"]) - want) <= _SHELL_SWAVE_ERROR * want, (width, out)
