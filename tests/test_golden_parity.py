"""Tier-1 guard on the benchmark's golden baseline.

`perfbench/golden.json` records every output of the benchmark items at the
commit that defined it.  Recomputing four table rows, three sandwiches on
tabulated grids, the shooting solves of two shapes and all 60 Nystrom solves
here makes a numerical drift beyond 1e-12 relative fail the test suite, not
only the benchmark.  The file is only read.
"""

import json
import math
from pathlib import Path

import pytest

from gcrit.exact import critical_coupling_shooting
from gcrit.potentials import Potential
from gcrit.tables import compute_table_row

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = BENCH / "golden.json"
RTOL = 1e-12
#: the printed column order of a table row; table 1 has no p column
COLUMNS = ("g_BS", "g_B", "g_GGMT", "g_c", "g_New", "g_C1", "g_C2", "p")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["items"]


@pytest.mark.parametrize("table_id, label", [
    (1, 0),  # square well, l = 0
    (2, 3),  # exponential, l = 3 (the erratum row)
    (3, 0),  # Yukawa, l = 0
    (1, 5),  # square well, l = 5: its Calogero II sits 2.1e-13 from golden
])
def test_table_row_matches_golden(golden, table_id, label):
    want = golden[f"tables/{table_id}/{label}"]["out"]
    got = dict(zip(COLUMNS, compute_table_row(table_id, label)))
    assert set(got) == set(want)
    for column, ref in want.items():
        assert math.isclose(got[column], ref, rel_tol=RTOL, abs_tol=0.0), \
            (column, got[column], ref)


def _close(got: dict, want: dict):
    assert set(got) == set(want)
    for key, ref in want.items():
        if isinstance(ref, bool):
            assert got[key] is ref, key
        else:
            assert math.isclose(got[key], ref, rel_tol=RTOL, abs_tol=0.0), \
                (key, got[key], ref)


@pytest.mark.parametrize("knots, shape, ell", [
    (16, 0, 1),
    # a 216,000-node third-order read, evaluated in blocks of
    # quadrature.MAX_CALL_NODES nodes; its largest lockstep round (172
    # spans) stays below the cap
    (64, 1, 2),
    # its Calogero II sits 3.3e-13 from golden, where a threshold search
    # reaches the top of G_SEARCH_RANGE
    (28, 2, 2),
])
def test_sweep_item_matches_golden(golden, workloads, knots, shape, ell):
    # a tabulated grid, which the numerics take in its own units; the item
    # is built by the benchmark's own generator, so its grid is the golden one
    item = workloads.sweep_item(knots, shape, ell)
    _close(item.call(), golden[item.key]["out"])


@pytest.mark.parametrize("name, pot", [("yukawa", Potential.yukawa()),
                                       ("shell", Potential.shell(width=0.1))])
def test_shooting_matches_golden(golden, name, pot):
    for ell in range(6):
        want = golden[f"solvers/{name}/{ell}/shooting"]["out"]
        _close({"g": critical_coupling_shooting(pot, ell)}, want)


@pytest.mark.parametrize("name", ["square_well", "exponential", "yukawa",
                                  "stis", "shell"])
def test_nystrom_matches_golden(golden, workloads, name):
    # every nystrom400 and nystrom1600 item of the shape, l = 0..5
    items = [item for group in workloads.solver_groups() for item in group
             if item.key.startswith(f"solvers/{name}/") and "/nystrom" in item.key]
    assert len(items) == 12
    for item in items:
        _close(item.call(), golden[item.key]["out"])
