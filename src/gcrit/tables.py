"""Reproduction of the four published comparison tables.

The printed reference values are embedded as data (five significant digits)
unchanged from the publication and are never recomputed; a reproduction run
fills the same grid with freshly computed numbers and reports per-cell
relative deviations.  Tables 1-3 sweep the partial wave for the square well,
exponential and Yukawa shapes; table 4 sweeps the cutoff multiplier of the
inverse-square shape at l = 0.

One published cell is a misprint and is judged against a corrected value
listed in `ERRATA`: the optimal power of table 2 at l = 3, printed as 4.4015,
whereas the exponential variational bound has a closed form in Gamma and
2F1 functions whose minimizer is p* = 4.39680745645 (the five other printed
powers of that table agree with it to five digits).  The erratum corrects the
reference to 4.3968; `printed_values` and the artifact's `printed` grid keep
the published 4.4015.  tests/test_erratum.py derives p* from the closed form
with mpmath and fails if the erratum is removed, wrong or no longer needed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .bounds import METHODS, Method
from .errors import ConfigurationError
from .potentials import Kind, Potential

G_COLUMN_TOL = 2e-4   # printed precision is 5 significant digits
P_COLUMN_TOL = 1e-3   # the optimal power sits in a flat minimum

# the coupling columns in their printed order, each with the method filling
# it; tables 2-4 add the variational method's optimal power as column "p"
_G_COLUMNS = {"g_BS": Method.BARGMANN_SCHWINGER, "g_B": Method.THIRD_ORDER,
              "g_GGMT": Method.GGMT, "g_c": Method.SHOOTING, "g_New": Method.VARIATIONAL,
              "g_C1": Method.CALOGERO_I, "g_C2": Method.CALOGERO_II}

_TABLE_1 = {
    0: (2.0, 2.4662, 2.3593, 2.4674, 2.4747, 2.6667, 4.0),
    1: (6.0, 9.8132, 9.1220, 9.8696, 9.9934, 11.719, 10.068),
    2: (10.0, 19.895, 18.454, 20.191, 20.604, 25.413, 20.895),
    3: (14.0, 32.383, 30.245, 33.217, 34.099, 43.570, 35.424),
    4: (18.0, 47.064, 44.425, 48.831, 50.357, 66.089, 53.519),
    5: (22.0, 63.788, 60.947, 66.954, 69.295, 92.909, 75.114),
}

_TABLE_2 = {
    0: (1.0, 1.4422, 1.4383, 1.4458, 1.4467, 1.6755, 1.5442, 1.4686),
    1: (3.0, 6.8546, 7.0232, 7.0491, 7.0584, 9.7188, 7.7262, 2.4313),
    2: (5.0, 15.257, 16.277, 16.313, 16.334, 24.724, 19.794, 3.4103),
    3: (7.0, 26.265, 29.218, 29.259, 29.289, 46.985, 37.791, 4.4015),
    4: (9.0, 39.616, 45.849, 45.893, 45.932, 76.586, 61.758, 5.3874),
    5: (11.0, 55.120, 66.173, 66.219, 66.264, 113.55, 91.708, 6.3804),
}

_TABLE_3 = {
    0: (1.0, 1.6689, 1.6643, 1.6798, 1.6826, 2.0505, 1.6810, 1.7217),
    1: (3.0, 8.5999, 9.0384, 9.0820, 9.1039, 13.390, 10.706, 3.1281),
    2: (5.0, 19.553, 21.839, 21.895, 21.937, 35.255, 28.374, 4.5302),
    3: (7.0, 33.931, 40.074, 40.136, 40.194, 67.914, 54.819, 5.9344),
    4: (9.0, 51.368, 63.744, 63.809, 63.880, 111.42, 90.071, 7.3404),
    5: (11.0, 71.615, 92.850, 92.918, 92.998, 165.80, 134.14, 8.7481),
}

_TABLE_4 = {
    0.1: (227.22, 282.11, 269.84, 282.26, 283.12, 306.01, 440.67, 1.2329),
    0.5: (13.864, 17.613, 16.842, 17.626, 17.683, 19.311, 24.664, 1.2608),
    1.0: (5.1774, 6.7253, 6.4307, 6.7319, 6.7550, 7.4520, 8.6588, 1.2889),
    5.0: (1.0434, 1.4837, 1.4214, 1.4875, 1.4939, 1.7201, 1.5799, 1.4159),
    10.0: (0.67168, 1.0066, 0.96638, 1.0107, 1.0156, 1.1998, 1.0304, 1.5004),
    50.0: (0.33882, 0.58085, 0.56233, 0.58684, 0.59085, 0.74673, 0.59855, 1.7633),
}

#: per table: title, row label (l, or the shape's parameter at l = 0), data,
#: whether it has the p column, and the shape kind
_SPECS = {
    1: ("square well", "ell", _TABLE_1, False, Kind.SQUARE_WELL),
    2: ("exponential", "ell", _TABLE_2, True, Kind.EXPONENTIAL),
    3: ("yukawa", "ell", _TABLE_3, True, Kind.YUKAWA),
    4: ("stis (ell=0)", "alpha", _TABLE_4, True, Kind.STIS),
}


@dataclass(frozen=True)
class Erratum:
    """A published cell that reproduction judges against a corrected value."""

    table_id: int
    label: float
    column: str
    published: float
    corrected: float

    def describe(self) -> str:
        row_label = _SPECS[self.table_id][1]
        return (f"{row_label}={self.label:g} {self.column}: published "
                f"{self.published:g}, judged against {self.corrected:g}")


ERRATA = (Erratum(2, 3.0, "p", 4.4015, 4.3968),)


def printed_values(table_id: int) -> dict:
    """The embedded reference rows of one table, keyed by row label."""
    if table_id not in _SPECS:
        raise ConfigurationError(f"table id must be 1..4, got {table_id!r}")
    return dict(_SPECS[table_id][2])


def render(header, rows, fmt: str) -> str:
    """A table of string cells, one newline-terminated line per row: CSV
    when `fmt` is "csv", else markdown.  Every table gcrit prints is this."""
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        return out.getvalue()
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TableArtifact:
    """Computed and published grids of one table.

    `printed` holds the published values; `deviations` and `passed` are
    measured against them except in the cells named by `errata`, which are
    judged against the corrected value.
    """

    table_id: int
    title: str
    row_label: str
    columns: tuple[str, ...]
    row_labels: tuple[float, ...]
    computed: tuple[tuple[float, ...], ...]
    printed: tuple[tuple[float, ...], ...]
    deviations: tuple[tuple[float, ...], ...]
    tolerances: tuple[float, ...]
    passed: bool
    errata: tuple[Erratum, ...] = ()

    @property
    def max_deviation(self) -> float:
        return max(max(row) for row in self.deviations)

    def cell(self, label, column):
        i = self.row_labels.index(float(label))
        j = self.columns.index(column)
        return self.computed[i][j]

    def to_csv(self, digits: int = 6) -> str:
        fmt = f"{{:.{digits}g}}"
        header = [self.row_label]
        for c in self.columns:
            header += [f"{c}_computed", f"{c}_printed", f"{c}_rel_dev"]
        rows = []
        for lbl, comp, prt, dev in zip(self.row_labels, self.computed,
                                       self.printed, self.deviations):
            cells = [fmt.format(lbl)]
            for c, p, d in zip(comp, prt, dev):
                cells += [fmt.format(c), fmt.format(p), f"{d:.2e}"]
            rows.append(cells)
        return render(header, rows, "csv")

    def to_markdown(self, digits: int = 6) -> str:
        fmt = f"{{:.{digits}g}}"
        header = [self.row_label] + [f"{c} (dev)" for c in self.columns]
        marks = {(e.label, e.column): f" [{n}]"
                 for n, e in enumerate(self.errata, 1)}
        rows = []
        for lbl, comp, dev in zip(self.row_labels, self.computed, self.deviations):
            cells = [fmt.format(lbl)]
            cells += [f"{fmt.format(c)} ({d:.1e}){marks.get((lbl, col), '')}"
                      for col, c, d in zip(self.columns, comp, dev)]
            rows.append(cells)
        text = (f"### Table {self.table_id}: {self.title} "
                f"[{'PASS' if self.passed else 'FAIL'}]\n" + render(header, rows, "md"))
        if self.errata:
            text += "\n" + "".join(f"[{n}] erratum: {e.describe()}\n"
                                   for n, e in enumerate(self.errata, 1))
        return text


def compute_table_row(table_id: int, label: float) -> tuple[float, ...]:
    """One freshly computed row in the printed column order."""
    _, row_label, _, has_p, kind = _SPECS[table_id]
    pot, ell = ((Potential(kind), int(label)) if row_label == "ell"
                else (Potential(kind, **{row_label: float(label)}), 0))
    results = {m: METHODS[m].compute(pot, ell) for m in _G_COLUMNS.values()}
    row = tuple(r.value for r in results.values())
    if has_p:
        row += (results[Method.VARIATIONAL].optimal_param,)
    return row


def reproduce_table(table_id: int) -> TableArtifact:
    """Recompute one table and compare every cell against the printed value."""
    data = printed_values(table_id)
    title, row_label, _, has_p, _ = _SPECS[table_id]
    columns = tuple(_G_COLUMNS) + (("p",) if has_p else ())
    tolerances = (G_COLUMN_TOL,) * len(_G_COLUMNS) + ((P_COLUMN_TOL,) if has_p else ())
    labels = tuple(data.keys())
    errata = tuple(e for e in ERRATA if e.table_id == table_id)
    reference = {k: list(v) for k, v in data.items()}
    for e in errata:
        reference[e.label][columns.index(e.column)] = e.corrected
    computed = []
    deviations = []
    for label in labels:
        row = compute_table_row(table_id, label)
        computed.append(row)
        deviations.append(tuple(abs(c - p) / abs(p)
                                for c, p in zip(row, reference[label])))
    passed = all(d <= t
                 for dev_row in deviations
                 for d, t in zip(dev_row, tolerances))
    return TableArtifact(
        table_id=table_id, title=title, row_label=row_label, columns=columns,
        row_labels=tuple(float(k) for k in labels),
        computed=tuple(computed),
        printed=tuple(tuple(map(float, data[k])) for k in labels),
        deviations=tuple(deviations),
        tolerances=tolerances,
        passed=passed,
        errata=errata,
    )
