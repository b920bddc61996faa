"""The three benchmark workloads: seeded inputs, one program call per item,
and the program's own verdict on each item.

Every item calls the package through a module attribute looked up at call
time (``tables.compute_table_row``, ``bounds.sandwich``,
``exact.critical_coupling_shooting``), so the traced run's wrappers see the
same calls the untraced run makes.

A workload is run in passes.  A pass is a fixed amount of work: the seed only
reorders it (``tables``, ``solvers``) or draws equally sized random shapes for
it (``sweep``), so pass times compare across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gcrit import bounds, exact, tables
from gcrit.bounds import Method
from gcrit.potentials import Potential

# -- tables ----------------------------------------------------------------

TABLE_IDS = (1, 2, 3, 4)
#: the printed column order of every table; table 1 has no p column
TABLE_COLUMNS = ("g_BS", "g_B", "g_GGMT", "g_c", "g_New", "g_C1", "g_C2", "p")

# -- sweep -----------------------------------------------------------------

SWEEP_KNOTS = (16, 28, 64)
SWEEP_ELLS = (0, 1, 2)
#: distinct shapes per knot count; the golden baseline holds every
#: (knots, shape, ell) combination, so any seed's items can be checked
SWEEP_POOL = 8
#: root of the seed sequence that draws the pool shapes
SWEEP_POOL_ROOT = 20240817
#: sandwiches per knot count in one pass
SWEEP_PER_KNOTS = 2
#: check predicates of ``gcrit check``
MONOTONE_TOL = 1e-9
SOLVER_AGREEMENT = 1e-5

# -- solvers ---------------------------------------------------------------

SOLVER_SHAPES = {
    "square_well": Potential.square_well,
    "exponential": Potential.exponential,
    "yukawa": Potential.yukawa,
    "stis": lambda: Potential.stis(alpha=1.0),
    "shell": lambda: Potential.shell(width=0.1),
}
SOLVER_ELLS = (0, 1, 2, 3, 4, 5)
NYSTROM_NODES = (400, 1600)
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class Item:
    """One timed unit of work.

    ``call`` runs the program and returns its named outputs; ``verdict``
    applies the program's own acceptance rule to them.  ``context`` is shared
    by the items of one pass (solver agreement needs the shooting value).
    """

    key: str
    call: Callable[[], dict]
    verdict: Callable[[dict, dict], bool]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# tables: reproduce_table(1..4), one row per item
# ---------------------------------------------------------------------------

def _table_item(table_id: int, label) -> Item:
    def call():
        row = tables.compute_table_row(table_id, label)
        return dict(zip(TABLE_COLUMNS, row))

    def verdict(out, _context):
        # the per-cell rule of tables.reproduce_table, which judges a whole
        # table at once and has no per-row form to call
        printed = tables.printed_values(table_id)[label]
        tols = ((tables.G_COLUMN_TOL,) * 7 + (tables.P_COLUMN_TOL,))
        return all(_rel(out[c], p) <= t
                   for c, p, t in zip(TABLE_COLUMNS, printed, tols))

    return Item(f"tables/{table_id}/{label:g}", call, verdict)


def table_items() -> list[Item]:
    return [_table_item(tid, label)
            for tid in TABLE_IDS for label in tables.printed_values(tid)]


def tables_pass(seed: int, index: int) -> list[Item]:
    """All 24 rows, in an order drawn from (seed, pass index)."""
    items = table_items()
    order = np.random.default_rng((seed, index)).permutation(len(items))
    return [items[i] for i in order]


def tables_warmup() -> Item:
    return _table_item(1, 0)


# ---------------------------------------------------------------------------
# sweep: sandwich() on random compact tabulated bump mixtures
# ---------------------------------------------------------------------------

def bump_mixture(rng: np.random.Generator, n_knots: int) -> list[tuple[float, float]]:
    """A smooth nonnegative bump mixture on a compact support.

    The grid generator of acceptance criterion 7 with a variable knot count:
    one or two Gaussian bumps on [0.02, r_max], r_max in [2, 4], with the
    last knot pinned to zero so the support ends at r_max.
    """
    r_max = float(rng.uniform(2.0, 4.0))
    r = np.linspace(0.02, r_max, n_knots)
    v = np.zeros_like(r)
    for _ in range(int(rng.integers(1, 3))):
        center = rng.uniform(0.2, 0.8) * r_max
        width = rng.uniform(0.2, 0.5) * r_max
        v += rng.uniform(0.5, 2.0) * np.exp(-((r - center) / width) ** 2)
    v[-1] = 0.0
    return [(float(a), float(b)) for a, b in zip(r, v)]


def sweep_grid(n_knots: int, shape: int) -> list[tuple[float, float]]:
    """Pool shape ``shape`` with ``n_knots`` knots."""
    return bump_mixture(np.random.default_rng((SWEEP_POOL_ROOT, n_knots, shape)),
                        n_knots)


def _sandwich_outputs(rep) -> dict:
    out = {"exact_shooting": rep.exact_shooting,
           "exact_nystrom": rep.exact_nystrom,
           "ordering_ok": rep.ordering_ok()}
    for b in rep.lowers + rep.uppers:
        out[b.method.value] = b.value
        if b.optimal_param is not None:
            out[f"{b.method.value}.param"] = b.optimal_param
    return out


def _check_verdict(pot: Potential):
    """The predicates of ``gcrit check`` (``cli._cmd_check``) on one sandwich.

    Regularity and ordering call the program; the lower-sequence, GGMT and
    solver-agreement predicates are written inline in ``_cmd_check`` and are
    repeated here with its tolerances.
    """
    def verdict(out, _context):
        seq = [out[Method.BARGMANN_SCHWINGER.value], out[Method.SECOND_ORDER.value],
               out[Method.THIRD_ORDER.value]]
        monotone = (seq[0] <= seq[1] * (1 + MONOTONE_TOL)
                    and seq[1] <= seq[2] * (1 + MONOTONE_TOL))
        ggmt = out[Method.GGMT.value] >= seq[0] * (1 - MONOTONE_TOL)
        agree = _rel(out["exact_nystrom"], out["exact_shooting"]) <= SOLVER_AGREEMENT
        return (pot.validate_regularity(0.5).ok and out["ordering_ok"]
                and monotone and ggmt and agree)
    return verdict


def sweep_item(n_knots: int, shape: int, ell: int) -> Item:
    pot = Potential.tabulated(sweep_grid(n_knots, shape))

    def call():
        return _sandwich_outputs(bounds.sandwich(pot, ell))

    return Item(f"sweep/{n_knots}/{shape}/{ell}", call, _check_verdict(pot))


def sweep_pass(seed: int, index: int) -> list[Item]:
    """Per knot count, two distinct shapes with two distinct ells, all drawn
    from (seed, pass index); six sandwiches in a drawn order."""
    rng = np.random.default_rng((seed, index))
    items = []
    for k in SWEEP_KNOTS:
        shapes = rng.choice(SWEEP_POOL, size=SWEEP_PER_KNOTS, replace=False)
        ells = rng.permutation(SWEEP_ELLS)
        items += [sweep_item(k, int(s), int(ell)) for s, ell in zip(shapes, ells)]
    return [items[i] for i in rng.permutation(len(items))]


def sweep_all_items() -> list[Item]:
    return [sweep_item(k, s, ell) for k in SWEEP_KNOTS
            for s in range(SWEEP_POOL) for ell in SWEEP_ELLS]


def sweep_warmup() -> Item:
    return sweep_item(SWEEP_KNOTS[0], 0, 0)


# ---------------------------------------------------------------------------
# solvers: shooting and Nystrom on the built-in shapes
# ---------------------------------------------------------------------------

def _closed_form(name: str, ell: int) -> float | None:
    if name == "square_well":
        return exact.square_well_exact(ell)
    if name == "exponential" and ell == 0:
        return exact.exponential_exact_swave()
    if name == "stis" and ell == 0:
        return exact.stis_exact_swave(1.0)
    return None


def _shooting_item(name: str, pot: Potential, ell: int) -> Item:
    def call():
        return {"g": exact.critical_coupling_shooting(pot, ell)}

    def verdict(out, context):
        context[(name, ell)] = out["g"]
        ref = _closed_form(name, ell)
        return ref is None or _rel(out["g"], ref) <= CLOSED_FORM_TOL

    return Item(f"solvers/{name}/{ell}/shooting", call, verdict)


def _nystrom_item(name: str, pot: Potential, ell: int, n: int) -> Item:
    def call():
        return {"g": exact.critical_coupling_nystrom(pot, ell, n)}

    def verdict(out, context):
        return _rel(out["g"], context[(name, ell)]) <= SOLVER_AGREEMENT

    return Item(f"solvers/{name}/{ell}/nystrom{n}", call, verdict)


def _solver_group(name: str, ell: int) -> list[Item]:
    """Shooting first: the Nystrom verdicts compare against its value."""
    pot = SOLVER_SHAPES[name]()
    return ([_shooting_item(name, pot, ell)]
            + [_nystrom_item(name, pot, ell, n) for n in NYSTROM_NODES])


def solver_groups() -> list[list[Item]]:
    return [_solver_group(name, ell)
            for name in SOLVER_SHAPES for ell in SOLVER_ELLS]


def solvers_pass(seed: int, index: int) -> list[Item]:
    """Every (shape, ell) group, groups in an order drawn from the seed."""
    groups = solver_groups()
    order = np.random.default_rng((seed, index)).permutation(len(groups))
    return [item for i in order for item in groups[i]]


def solvers_warmup() -> Item:
    return _shooting_item("square_well", Potential.square_well(), 0)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[int, int], list[Item]]
    warmup: Callable[[], Item]
    all_items: Callable[[], list[Item]]


WORKLOADS = {
    "tables": Workload("tables", tables_pass, tables_warmup, table_items),
    "sweep": Workload("sweep", sweep_pass, sweep_warmup, sweep_all_items),
    "solvers": Workload("solvers", solvers_pass, solvers_warmup,
                        lambda: [i for g in solver_groups() for i in g]),
}
