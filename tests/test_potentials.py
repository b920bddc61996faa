import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrit.errors import ConfigurationError, DomainError, TruncationError
from gcrit.exact import critical_coupling_nystrom, critical_coupling_shooting
from gcrit.potentials import AngularMomentum, Kind, Potential

ALL_BUILTINS = [
    Potential.square_well(),
    Potential.exponential(),
    Potential.yukawa(),
    Potential.stis(alpha=1.0),
    Potential.shell(width=0.05),
]


def test_square_well_inside_and_out():
    pot = Potential.square_well()
    assert pot.evaluate(0.5) == 1.0
    assert pot.evaluate(1.0) == 1.0
    assert pot.evaluate(1.0000001) == 0.0


def test_stis_cutoff():
    pot = Potential.stis(alpha=5.0)
    assert pot.evaluate(6.0) == 0.0
    assert math.isclose(pot.evaluate(3.0), (1.0 + 3.0) ** -2, rel_tol=1e-15)


def test_yukawa_at_scale_radius():
    pot = Potential.yukawa()
    assert math.isclose(pot.evaluate(1.0), math.exp(-1.0), rel_tol=1e-15)


def test_exponential_scaling():
    pot = Potential.exponential(R=2.0)
    assert math.isclose(pot.evaluate(2.0), math.exp(-1.0) / 4.0, rel_tol=1e-15)


def test_shell_normalization():
    pot = Potential.shell(width=0.25, R=2.0)
    assert pot.evaluate(1.99) == 0.0
    assert pot.evaluate(2.1) == 1.0 / (0.25 * 2.0)
    assert pot.evaluate(2.26) == 0.0


def test_tabulated_interpolation():
    grid = [(0.5, 2.0), (1.0, 1.0), (2.0, 0.0)]
    pot = Potential.tabulated(grid)
    for r, v in grid:
        assert pot.evaluate(r) == v
    assert pot.evaluate(0.75) == 1.5
    assert pot.evaluate(0.1) == 2.0   # held constant below the first knot
    assert pot.evaluate(3.0) == 0.0   # zero beyond the last knot
    assert pot.R == 2.0


def test_evaluate_rejects_nonpositive_radius():
    pot = Potential.yukawa()
    with pytest.raises(DomainError):
        pot.evaluate(0.0)
    with pytest.raises(DomainError):
        pot.evaluate(np.array([1.0, -2.0]))


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        Potential.square_well(R=-1.0)
    with pytest.raises(ConfigurationError):
        Potential.stis(alpha=-2.0)
    with pytest.raises(ConfigurationError):
        Potential.tabulated([])
    with pytest.raises(ConfigurationError):
        Potential.tabulated([(1.0, 1.0), (0.5, 2.0)])  # radii must increase
    with pytest.raises(ConfigurationError):
        Potential.tabulated([(0.5, -1.0), (1.0, 0.0)])
    with pytest.raises(ConfigurationError):
        Potential(Kind.SQUARE_WELL, alpha=3.0)  # stray parameter
    with pytest.raises(ConfigurationError, match="must not all be zero"):
        Potential.tabulated([(1.0, 0.0)])


@given(st.floats(0.01, 50.0))
def test_shapes_nonnegative(r):
    for pot in ALL_BUILTINS:
        assert pot.evaluate(r) >= 0.0


@given(st.floats(0.01, 20.0), st.floats(0.3, 3.0))
def test_stis_branches(r, alpha):
    pot = Potential.stis(alpha=alpha)
    if r <= alpha:
        assert math.isclose(pot.evaluate(r), (1.0 + r) ** -2, rel_tol=1e-14)
    else:
        assert pot.evaluate(r) == 0.0


def test_support_radius_compact():
    assert Potential.square_well().support_radius(1e-9) == 1.0
    assert Potential.stis(alpha=10.0).support_radius(1e-9) == 10.0
    assert Potential.shell(width=0.5).support_radius(1e-9) == 1.5


def test_support_radius_exponential_tail():
    # independent oracle: bisection on r e^(-r) = 1e-12 over [1, 100]
    lo, hi = 1.0, 100.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) > 1e-12:
            lo = mid
        else:
            hi = mid
    expected = 0.5 * (lo + hi)
    got = Potential.exponential().support_radius(1e-12)
    assert math.isclose(got, expected, rel_tol=1e-9)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Potential.exponential().support_radius(0.0), DomainError,
     "tail_tol must be positive"),
    (lambda: Potential(Kind.TABULATED), ConfigurationError,
     "tabulated potential requires a nonempty grid"),
], ids=["support_radius", "tabulated_without_grid"])
def test_shape_inputs_outside_their_domain_raise_their_documented_error(call, error,
                                                                        message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_support_radius_respects_radius_cap():
    with pytest.raises(TruncationError):
        Potential.exponential().support_radius(1e-12, max_radius=10.0)


def reference_tail_radius(pot, tail_tol, max_radius):
    """The tail radius search as it was written out by hand before the shared
    bracket-and-bisect search, kept as the reference that search must match;
    its inward halving lands on the floor 0.5e-12 R rather than passing it,
    its outward doubling lands on max_radius or on the last radius of the
    inward walk, and it never returns more than max_radius."""
    def excess(r):
        return r * pot.evaluate(r) - tail_tol

    lo, top = pot.R, math.inf
    if excess(lo) <= 0:
        # already below at the scale radius: walk inward for a bracket
        floor = 0.5e-12 * pot.R
        while excess(lo) <= 0:
            if lo <= floor:
                return pot.R
            top, lo = lo, max(0.5 * lo, floor)
    hi = min(2.0 * lo, top, max_radius)
    while hi <= lo or excess(hi) > 0:
        if hi >= max_radius:
            raise TruncationError(
                f"tail of r*v never drops below {tail_tol} within r <= {max_radius}")
        hi = min(2.0 * hi, max_radius)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return hi


def _tail_outcome(search):
    try:
        return search()
    except TruncationError as exc:
        return type(exc), str(exc)


# (shape, tail_tol, max_radius): the doubling walk, its cap, a cap below 2R
# with the crossing past it and before it, the inward walk (ln 2), its
# exhaustion (R), and a walk that starts past the cap
TAIL_CASES = {
    "exponential/1e-12": (Potential.exponential, 1e-12, 1e4),
    "exponential/1e-13": (Potential.exponential, 1e-13, 1e4),
    "exponential/R=2.5": (lambda: Potential.exponential(R=2.5), 1e-12, 1e4),
    "yukawa/1e-12": (Potential.yukawa, 1e-12, 1e4),
    "yukawa/1e-13": (Potential.yukawa, 1e-13, 1e4),
    "yukawa/R=0.3": (lambda: Potential.yukawa(R=0.3), 1e-13, 1e4),
    "exponential/cap": (Potential.exponential, 1e-12, 10.0),
    "exponential/cap below 2R": (Potential.exponential, 1e-12, 1.5),
    "yukawa/past a cap below 2R": (Potential.yukawa, 0.2, 1.5),
    "yukawa/within a cap below 2R": (Potential.yukawa, 0.3, 1.5),
    "yukawa/inward past the cap": (lambda: Potential.yukawa(R=4.0), 0.125, 2.0),
    "yukawa/inward within the cap": (lambda: Potential.yukawa(R=4.0), 0.125, 3.0),
    "yukawa/inward": (Potential.yukawa, 0.5, 1e4),
    "yukawa/inward R=4": (lambda: Potential.yukawa(R=4.0), 0.125, 1e4),
    "yukawa/exhausted": (Potential.yukawa, 2.0, 1e4),
}


def _traced_tail(monkeypatch, search):
    """The outcome of search() and the radii it evaluates the shape at."""
    radii = []
    evaluate = Potential.evaluate

    def spy(self, r):
        radii.append(float(r))
        return evaluate(self, r)

    with monkeypatch.context() as m:
        m.setattr(Potential, "evaluate", spy)
        return _tail_outcome(search), radii


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_tail_radius_matches_the_hand_written_search(monkeypatch, case):
    make, tail_tol, max_radius = TAIL_CASES[case]
    got, radii = _traced_tail(monkeypatch,
                              lambda: make().support_radius(tail_tol, max_radius))
    want, want_radii = _traced_tail(
        monkeypatch, lambda: reference_tail_radius(make(), tail_tol, max_radius))
    assert got == want
    # the same radii in the same order, none of them evaluated twice
    assert radii == list(dict.fromkeys(want_radii))
    if case == "yukawa/inward":
        assert math.isclose(got, math.log(2.0), rel_tol=1e-11)
    if case == "yukawa/exhausted":
        assert got == 1.0
    if "past" in case:   # the crossing lies beyond the cap
        assert got[0] is TruncationError
    if case == "yukawa/within a cap below 2R":
        assert math.isclose(got, math.log(1.0 / 0.3), rel_tol=1e-11)
    if case == "yukawa/inward within the cap":
        assert math.isclose(got, 4.0 * math.log(2.0), rel_tol=1e-11)


def test_regularity_builtins_pass():
    for pot in ALL_BUILTINS:
        rep = pot.validate_regularity(0.5)
        assert rep.ok, pot.label()


def test_regularity_inverse_square_mimic_fails_at_origin():
    # grid samples of v = r^-2 down to 2^-40: r^1.5 v grows toward the origin
    grid = [(2.0 ** -k, (2.0 ** -k) ** -2) for k in range(40, -1, -1)]
    rep = Potential.tabulated(grid).validate_regularity(0.5)
    assert not rep.origin_ok
    assert not rep.ok


def test_regularity_eps_domain():
    with pytest.raises(DomainError):
        Potential.yukawa().validate_regularity(0.0)
    with pytest.raises(DomainError):
        Potential.yukawa().validate_regularity(1.5)


def test_angular_momentum():
    assert AngularMomentum(0).L == 0.5
    assert AngularMomentum(3).L == 3.5
    with pytest.raises(DomainError):
        AngularMomentum(-1)
    with pytest.raises(DomainError):
        AngularMomentum(1.5)


def test_breakpoints():
    assert Potential.square_well().breakpoints() == ()
    assert Potential.shell(width=0.1).breakpoints() == (1.0,)
    pot = Potential.tabulated([(0.5, 1.0), (1.0, 2.0), (2.0, 0.0)])
    assert pot.breakpoints() == (0.5, 1.0)


def _old_domain_error(arr):
    """The domain check of Potential.evaluate before it became two reductions."""
    return bool(arr.size and (np.any(arr <= 0) or not np.all(np.isfinite(arr))))


@pytest.mark.parametrize("pot", [Potential.exponential(), Potential.square_well(),
                                 Potential.tabulated([(0.5, 1.0), (2.0, 0.0)])])
def test_evaluate_domain_check_matches_the_old_predicate(pot):
    bad = [0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf]
    good = [5e-324, 1e-300, 0.5, 1.0, 1e300]
    cases = [np.array(v) for v in bad + good]
    for v in bad + good:
        cases.append(np.array([0.7, v, 2.0]))
        cases.append(np.array([[1.0, 2.0], [v, 0.3]]))
    cases.append(np.array([[0.5, math.nan], [math.inf, -1.0]]))
    for arr in cases:
        if _old_domain_error(arr):
            with pytest.raises(DomainError, match="radius must be positive and finite"):
                pot.evaluate(arr)
        else:
            assert np.shape(pot.evaluate(arr)) == arr.shape
    for v in bad:
        with pytest.raises(DomainError, match="radius must be positive and finite"):
            pot.evaluate(v)
    for shape in ((0,), (0, 3)):
        assert pot.evaluate(np.empty(shape)).shape == shape


def test_a_potential_is_a_pure_value():
    # solves and tail searches leave no state behind on the shape they read
    pot = Potential.exponential()
    before = pickle.dumps(pot)
    critical_coupling_shooting(pot, 0)
    critical_coupling_nystrom(pot, 0, n=400)
    critical_coupling_nystrom(pot, 0, n=1600)
    pot.support_radius(1e-12)
    assert pickle.dumps(pot) == before


# -- one shape model: the grid is a `SHAPES` entry like every analytic kind ----

def reference_grid_geometry(pot):
    """The tabulated branches of `Potential` as they were written out before
    the grid became a `SHAPES` entry: the reference every member must match,
    value for value and type for type."""
    radii = np.array([p[0] for p in pot.grid], dtype=float)
    values = np.array([p[1] for p in pot.grid], dtype=float)
    return {"cutoff": pot.grid[-1][0],
            "breakpoints": tuple(r for r, _ in pot.grid[:-1]),
            "start_radius": 1e-6 * pot.grid[-1][0],
            "v": lambda r: np.interp(r, radii, values, left=values[0], right=0.0),
            "unit": pot, "scale": 1.0, "label": "tabulated"}


def reference_analytic_geometry(pot):
    """The analytic kinds as they were written out before the grid became a
    `SHAPES` entry: v(x, q) at unit radius, and every length times R."""
    R = pot.R
    q = {Kind.STIS: pot.alpha,
         Kind.SHELL: None if pot.shell_width is None else pot.shell_width / R}.get(pot.kind)
    v, end, breaks, start = {
        Kind.SQUARE_WELL: (lambda x: np.where(x <= 1.0, 1.0, 0.0), 1.0, (), 1e-6),
        Kind.EXPONENTIAL: (lambda x: np.exp(-x), None, (), 1e-6),
        Kind.YUKAWA: (lambda x: np.exp(-x) / x, None, (), 1e-8),
        Kind.STIS: (lambda x: np.where(x <= q, (1.0 + x) ** -2.0, 0.0), q, (), 1e-6),
        Kind.SHELL: (lambda x: np.where((x >= 1.0) & (x <= 1.0 + q),
                                        1.0 / ((1.0 + q) - 1.0), 0.0),
                     None if q is None else 1.0 + q, (1.0,), 1e-6),
    }[pot.kind]
    param = {Kind.STIS: "alpha", Kind.SHELL: "shell_width"}.get(pot.kind)
    return {"cutoff": None if end is None else end * R,
            "breakpoints": tuple(b * R for b in breaks),
            "start_radius": start * R,
            "v": (lambda r: v(r)) if R == 1.0 else (lambda r: v(r / R) / R ** 2),
            "unit": pot if R == 1.0 else Potential(pot.kind, R=1.0,
                                                   **({param: q} if param else {})),
            "scale": R,
            "label": (f"stis(alpha={pot.alpha:g})" if pot.kind is Kind.STIS
                      else f"shell(width={pot.shell_width:g})" if pot.kind is Kind.SHELL
                      else pot.kind.value)}


def _assert_geometry(pot, want, radii):
    for name in ("cutoff", "start_radius", "scale"):
        got = getattr(pot, name)
        assert got == want[name] and type(got) is type(want[name]), name
    got = pot.breakpoints()
    assert got == want["breakpoints"]
    assert [type(b) for b in got] == [type(b) for b in want["breakpoints"]]
    if want["unit"] is pot:
        assert pot.unit is pot
    else:
        assert pot.unit == want["unit"]
    assert pot.label() == want["label"]
    got_v, want_v = pot.evaluate(radii), want["v"](radii)
    assert got_v.dtype == want_v.dtype and np.array_equal(got_v, want_v)
    for r in radii[::7]:
        got_r = pot.evaluate(float(r))
        assert type(got_r) is float and got_r == float(want["v"](np.asarray(r)))


def _grid_ladder(grid):
    """Radii from a quarter of the first knot to four times the last, the
    knots and the midpoints between them."""
    knots = np.array([r for r, _ in grid])
    mids = 0.5 * (knots[1:] + knots[:-1])
    ladder = np.geomspace(0.25 * knots[0], 4.0 * knots[-1], 97)
    return np.concatenate([ladder, knots, mids])


def test_every_kind_is_a_shape_entry():
    from gcrit.potentials import SHAPES
    assert set(SHAPES) == set(Kind)


def test_pool_grids_match_the_written_out_grid_branches(workloads):
    grids = [workloads.sweep_grid(k, s) for k in workloads.SWEEP_KNOTS
             for s in range(workloads.SWEEP_POOL)]
    assert len(grids) == 24   # the distinct grids of the 72 sweep-pool items
    for grid in grids:
        pot = Potential.tabulated(grid)
        _assert_geometry(pot, reference_grid_geometry(pot), _grid_ladder(pot.grid))


@pytest.mark.parametrize("grid", [
    [(0.7, 2.0)],
    [(0.5, 1.0), (1.0, 1.0), (2.0, 0.0)],
], ids=["1-knot", "3-knot"])
def test_small_grids_match_the_written_out_grid_branches(grid):
    pot = Potential.tabulated(grid)
    _assert_geometry(pot, reference_grid_geometry(pot), _grid_ladder(pot.grid))


@pytest.mark.parametrize("R", [1.0, 2.5, 1e-3])
@pytest.mark.parametrize("make", [
    Potential.square_well, Potential.exponential, Potential.yukawa,
    lambda R: Potential.stis(alpha=2.0, R=R),
    lambda R: Potential.shell(width=0.3 * R, R=R),
], ids=["square_well", "exponential", "yukawa", "stis", "shell"])
def test_analytic_kinds_match_the_written_out_branches(make, R):
    pot = make(R)
    edges = [*pot.breakpoints(), *([pot.cutoff] if pot.is_compact else [])]
    radii = np.concatenate([np.geomspace(1e-3 * R, 50.0 * R, 97), edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    _assert_geometry(pot, reference_analytic_geometry(pot), radii)


def test_a_grid_on_another_kind_is_a_foreign_parameter():
    with pytest.raises(ConfigurationError,
                       match="grid is only meaningful for tabulated, not square_well"):
        Potential(Kind.SQUARE_WELL, grid=((1.0, 1.0),))
