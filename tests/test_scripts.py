"""Smoke tests of the study scripts: each runs and shows its documented trend."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_main(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    return header, [row.split() for row in rows]


def test_shell_saturation_bound_approaches_solver_from_above(capsys):
    header, rows = _run_main("shell_saturation", capsys)
    assert header.split()[0] == "width"
    widths = [float(row[0]) for row in rows]
    excess = [float(row[-1]) for row in rows]
    assert widths == sorted(widths, reverse=True)
    assert all(e > 0.0 for e in excess)
    assert all(narrow < wide for wide, narrow in zip(excess, excess[1:]))


def test_nystrom_convergence_error_falls_with_node_count(capsys):
    header, rows = _run_main("nystrom_convergence", capsys)
    ns = [int(col.split("=")[1]) for col in header.split()[2:]]
    assert ns == sorted(ns)
    assert len(rows) == 6
    for row in rows:
        errors = [float(e) for e in row[-len(ns):]]
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), row
        assert errors[-1] < 1e-5
