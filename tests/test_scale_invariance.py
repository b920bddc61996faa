"""The critical coupling of V = -g v(r) is dimensionless: the radius scale R
of a built-in shape must not change any computed number.

The numerics run on each shape's unit-radius view, so every limit and both
solvers return the same bits at any R, and a matching radius comes back as R
times its unit-radius value.  The shape itself is checked against the
per-kind formulas it replaced, written out below as the reference.
"""

import math

import numpy as np
import pytest

from gcrit.bounds import METHODS, Method, upper_calogero_II
from gcrit.cli import main
from gcrit.potentials import Kind, Potential

SHAPES = {
    "square_well": Potential.square_well,
    "exponential": Potential.exponential,
    "yukawa": Potential.yukawa,
    "stis": lambda R: Potential.stis(1.0, R=R),
}
#: methods whose optimal parameter is a length (the matching radius)
MATCHING_RADIUS = {Method.CALOGERO_I, Method.CALOGERO_II}
EXTREME_R = (1e-6, 1e6)


def _every_method(pot, ell):
    """(value, optimal parameter) of every method that applies to any shape."""
    out = {}
    for method, spec in METHODS.items():
        if spec.kind is None:
            res = spec.compute(pot, ell)
            out[method] = (res.value, res.optimal_param)
    return out


@pytest.mark.parametrize("name, ell", [("square_well", 0), ("exponential", 0),
                                       ("yukawa", 0), ("stis", 0),
                                       ("exponential", 3)])
def test_every_method_is_the_same_at_every_R(name, ell):
    want = _every_method(SHAPES[name](1.0), ell)
    for R in EXTREME_R:
        got = _every_method(SHAPES[name](R), ell)
        for method, (value, param) in want.items():
            assert got[method][0] == value, (R, method, got[method][0], value)
            if method in MATCHING_RADIUS:
                param = R * param
            assert got[method][1] == param, (R, method, got[method][1], param)


@pytest.mark.parametrize("args", [
    ["compute", "--potential", "yukawa", "--methods", "all", "shooting", "nystrom"],
    ["check", "--potential", "exponential", "--ell", "0"],
], ids=["compute", "check"])
def test_cli_output_is_the_same_at_extreme_R(capsys, args):
    outputs = []
    for R in ("1", "1e-6" if args[0] == "compute" else "1e6"):
        assert main([*args, "--R", R]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def reference_shape(pot, r):
    """v(r) by kind, as each analytic shape was first written at radius R."""
    R = pot.R
    if pot.kind is Kind.SQUARE_WELL:
        return np.where(r <= R, R ** -2, 0.0)
    if pot.kind is Kind.EXPONENTIAL:
        return np.exp(-r / R) / R ** 2
    if pot.kind is Kind.YUKAWA:
        return np.exp(-r / R) / (r * R)
    if pot.kind is Kind.STIS:
        return np.where(r <= pot.alpha * R, (R + r) ** -2.0, 0.0)
    w = pot.shell_width
    inside = (r >= R) & (r <= R + w)
    return np.where(inside, 1.0 / (w * R), 0.0)


FROZEN_SHAPES = {
    "square_well": Potential.square_well,
    "exponential": Potential.exponential,
    "yukawa": Potential.yukawa,
    "stis(0.3)": lambda R: Potential.stis(0.3, R=R),
    "stis(5)": lambda R: Potential.stis(5.0, R=R),
    "shell(0.1)": lambda R: Potential.shell(0.1 * R, R=R),
    "shell(1e-3)": lambda R: Potential.shell(1e-3 * R, R=R),
}


def _radii(pot):
    """A log grid, every support end and breakpoint with its neighbours, and
    radii between consecutive ones (the shell's support is narrow)."""
    edges = sorted([*pot.breakpoints(), *([pot.cutoff] if pot.is_compact else [])])
    near = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
    inside = [np.linspace(a, b, 9)[1:-1] for a, b in zip(edges, edges[1:])]
    grid = pot.R * np.geomspace(1e-9, 50.0, 400)
    return np.sort(np.concatenate([grid, edges, near, *inside]))


@pytest.mark.parametrize("name", list(FROZEN_SHAPES))
def test_shape_equals_the_per_kind_formulas(name):
    pot = FROZEN_SHAPES[name](1.0)
    r = _radii(pot)
    assert np.array_equal(pot.evaluate(r), reference_shape(pot, r))


@pytest.mark.parametrize("R", [0.5, 2.0, 1e-6, 1e6])
@pytest.mark.parametrize("name", list(FROZEN_SHAPES))
def test_shape_matches_the_per_kind_formulas_at_any_R(name, R):
    pot = FROZEN_SHAPES[name](R)
    r = _radii(pot)
    if not math.log2(R).is_integer():
        # r/R and the unit support end round on their own, so a radius at a
        # jump can fall on either side of it: compare away from the jumps
        edges = np.array([pot.cutoff or np.inf, *pot.breakpoints()])
        r = r[np.min(np.abs(r[:, None] / edges[None, :] - 1.0), axis=1) > 1e-12]
    got, want = pot.evaluate(r), reference_shape(pot, r)
    assert np.array_equal(got == 0.0, want == 0.0)
    live = want > 0
    assert np.max(np.abs(got[live] / want[live] - 1.0)) <= 1e-15


#: the 3-knot grid (0.5, 1), (1, 1), (2, 0)
THREE_KNOTS = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.0)]


@pytest.mark.parametrize("length, strength", [(1.0, 2e-6), (1.0, 1e6), (1e8, 1e-16)])
def test_calogero_II_on_the_3_knot_grid_in_other_units(length, strength):
    # radii times `length` and values times `strength` divide the threshold
    # by strength * length^2.  At strengths 1e6 and 2e-6 it lies near an end
    # of G_SEARCH_RANGE; in units 1e8 the first matching radii tried need a
    # strength near the top end, 1e6
    want = upper_calogero_II(Potential.tabulated(THREE_KNOTS), 0).value
    pot = Potential.tabulated([(length * r, strength * v) for r, v in THREE_KNOTS])
    got = upper_calogero_II(pot, 0).value
    assert math.isclose(got * strength * length ** 2, want, rel_tol=1e-11)
