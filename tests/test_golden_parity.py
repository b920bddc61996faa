"""Tier-1 guard on the benchmark's golden baseline.

`perfbench/golden.json` records every output of the benchmark items at the
commit that defined it.  Recomputing three table rows here makes a numerical
drift beyond 1e-12 relative fail the test suite, not only the benchmark.
The file is only read.
"""

import json
import math
from pathlib import Path

import pytest

from gcrit.tables import compute_table_row

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
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
])
def test_table_row_matches_golden(golden, table_id, label):
    want = golden[f"tables/{table_id}/{label}"]["out"]
    got = dict(zip(COLUMNS, compute_table_row(table_id, label)))
    assert set(got) == set(want)
    for column, ref in want.items():
        assert math.isclose(got[column], ref, rel_tol=RTOL, abs_tol=0.0), \
            (column, got[column], ref)
