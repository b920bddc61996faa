import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcrit import optimize
from gcrit.errors import AccuracyError, DomainError, IntegrationError
from gcrit.optimize import bisect, bracket, brentq, minimize_scalar_log


def test_log_quadratic():
    res = minimize_scalar_log(lambda x: (math.log(x) - math.log(3.0)) ** 2,
                              1e-2, 1e2)
    assert math.isclose(res.x, 3.0, rel_tol=1e-5)
    assert not res.edge_hit


@given(st.floats(0.05, 80.0))
def test_shifted_parabola(m):
    res = minimize_scalar_log(lambda x: (x - m) ** 2 + 1.0, 1e-2, 1e2)
    assert math.isclose(res.x, m, rel_tol=1e-4)


def test_expansion_beyond_initial_bracket():
    res = minimize_scalar_log(lambda x: (math.log(x) - math.log(500.0)) ** 2,
                              1e-2, 1e2)
    assert math.isclose(res.x, 500.0, rel_tol=1e-4)


def test_hard_edge_minimum_allowed():
    with pytest.warns(UserWarning):
        res = minimize_scalar_log(lambda x: 1.0 / x, 1.0, 50.0, hard_edges=True)
    assert res.edge_hit
    assert res.x > 45.0


def test_unbracketable_raises():
    with pytest.raises(AccuracyError):
        minimize_scalar_log(lambda x: -x, 1e-2, 1e2)


def test_invalid_range():
    with pytest.raises(AccuracyError):
        minimize_scalar_log(lambda x: x, 1.0, 0.5)


# ---------------------------------------------------------------------------
# bracket and bisect
# ---------------------------------------------------------------------------

LO_END, HI_END = 1e-3, 1e3


def _tried(f, search, *args):
    """What search(f, *args) returns, and the points it tried f at, in order."""
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    return search(traced, *args), points


@given(st.floats(-8.0, 8.0), st.floats(-3.0, 3.0), st.sampled_from([2.0, 4.0]),
       st.floats(1.01, 4.0))
# a step up that would pass the last point of the walk down, where f >= 0
@example(3.0, 3.0, 2.0, 3.0)
@example(0.0, 1.0, 2.0, 4.0)
def test_bracket_stays_in_range_and_holds_the_sign_change(log_t, log_x, shrink, grow):
    t, x = 10.0 ** log_t, 10.0 ** log_x
    (lo, hi), points = _tried(lambda y: y - t, bracket, x, shrink, grow, LO_END, HI_END)
    assert points[0] == x
    assert all(LO_END <= y <= HI_END for y in points)
    assert len(points) == len(set(points))   # no point is tried twice
    if lo is None:
        # the walk down ends on the low end with f >= 0 there
        assert hi == min(points) == LO_END and hi >= t
    elif hi is None:
        # the walk up ends on the high end with f < 0 there
        assert lo == max(points) == HI_END and lo < t
    else:
        assert lo - t < 0 <= hi - t
        # one step up at most, and no point tried between lo and hi
        assert hi <= lo * grow
        assert hi == min(y for y in points if y > lo)


def test_bracket_returns_none_at_both_ends():
    (lo, hi), points = _tried(lambda y: 1.0, bracket, 1.0, 4.0, 4.0, LO_END, HI_END)
    assert lo is None and hi == LO_END
    assert points == [4.0 ** -k for k in range(5)] + [LO_END]
    (lo, hi), points = _tried(lambda y: -1.0, bracket, 1.0, 4.0, 2.0, LO_END, HI_END)
    assert hi is None and lo == HI_END
    assert points == [2.0 ** k for k in range(10)] + [HI_END]


@pytest.mark.parametrize("nudge", [0.0, 1e-9])
def test_bracket_tries_a_point_on_an_end_but_not_past_it(nudge):
    low = 2.0 ** -10 * (1.0 + nudge)
    (lo, hi), points = _tried(lambda y: 1.0, bracket, 1.0, 2.0, 2.0, low, 1.0)
    assert min(points) == hi == low and len(points) == 11
    high = 2.0 ** 10 * (1.0 - nudge)
    (lo, hi), points = _tried(lambda y: -1.0, bracket, 1.0, 2.0, 2.0, 1.0, high)
    assert max(points) == lo == high and len(points) == 11


def test_bracket_steps_up_by_grow_after_walking_down():
    (lo, hi), points = _tried(lambda y: y - 0.3, bracket, 1.0, 2.0, 1.5, LO_END, HI_END)
    assert points == [1.0, 0.5, 0.25, 0.375]
    assert (lo, hi) == (0.25, 0.375)
    # with grow == shrink the step up lands on the last point of the walk
    # down, which is not tried again
    (lo, hi), points = _tried(lambda y: y - 0.1, bracket, 1.0, 4.0, 4.0, LO_END, HI_END)
    assert points == [1.0, 0.25, 0.0625]
    assert (lo, hi) == (0.0625, 0.25)


def test_bracket_that_walks_down_to_past_the_high_end_steps_up_no_more():
    (lo, hi), points = _tried(lambda y: y - 5e3, bracket, 1e4, 2.0, 2.0, LO_END, HI_END)
    assert points == [1e4, 5e3, 2.5e3]
    assert (lo, hi) == (2.5e3, None)


@given(st.floats(-6.0, 6.0), st.floats(1e-14, 1e-2))
def test_bisect_stops_at_the_requested_relative_width(log_t, rel_tol):
    t = 10.0 ** log_t
    brackets = [(0.3 * t, 4.0 * t)]

    def f(y):
        lo, hi = brackets[-1]
        brackets.append((lo, y) if y >= t else (y, hi))
        return y - t

    lo, hi = bisect(f, *brackets[0], rel_tol)
    assert (lo, hi) == brackets[-1]
    assert lo < t <= hi
    assert hi - lo <= rel_tol * hi
    # every bracket before the last was wider than that
    assert all(b - a > rel_tol * b for a, b in brackets[:-1])


def test_bisect_stops_after_200_halvings():
    (lo, hi), points = _tried(lambda y: y - 1.0, bisect, 0.5, 2.0, 0.0)
    assert len(points) == 200
    assert lo < 1.0 <= hi


# ---------------------------------------------------------------------------
# brentq: the port against scipy's own, as the slow path it replaces
# ---------------------------------------------------------------------------

#: (rtol, xtol) of the shooting polish and of the closed-form references
GCRIT_TOLERANCES = [(1e-12, 5e-324), (8.9e-16, 1e-300)]

#: bounded shapes of the scaled offset u = (x - root) / width, u in [-10, 10]
#: mostly; the staircases take few values, so interpolations divide by zero
SHAPE_FUNCTIONS = [
    lambda u: u,
    lambda u: u * u * u,
    lambda u: math.tanh(u),
    lambda u: u * abs(u) + 1e-3 * u,
    lambda u: math.expm1(u),
    lambda u: math.atan(u) ** 5,
    lambda u: math.copysign(1.0 + math.floor(4.0 * abs(u)), u),
    lambda u: math.ceil(8.0 * u) / 8.0,
    lambda u: u ** 5 - 1e-9,
]


def _traced(f):
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    return traced, points


def _outcome(solve, f, a, b, rtol, xtol):
    """(root or the error kind, points f was evaluated at) of one solve."""
    traced, points = _traced(f)
    try:
        root = solve(traced, a, b, rtol=rtol, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        kind = "sign" if "sign" in str(exc) else "budget"
        return kind, [x.hex() for x in points]
    return float(root).hex(), [x.hex() for x in points]


def _fuzz_case(rng):
    """f, a, b, rtol, xtol of one seeded bracket."""
    rtol, xtol = rng.choice(GCRIT_TOLERANCES)
    shape = rng.choice(SHAPE_FUNCTIONS)
    width = 10.0 ** rng.uniform(-300.0, 300.0)
    draw = rng.random()
    if draw < 0.15:
        root = 0.0      # steps of delta round to zero near a root at 0
    elif draw < 0.25:
        root = rng.choice([1.0, -1.0]) * 5e-324 * rng.randint(1, 1 << 20)
    else:
        root = rng.choice([1.0, -1.0]) * width * 10.0 ** rng.uniform(-3.0, 3.0)
    scale = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-300.0, 295.0)
    a = root - width * rng.uniform(0.0, 10.0)
    b = root + width * rng.uniform(0.0, 10.0)
    if rng.random() < 0.05:     # both ends on one side of the root
        a, b = b, b + width * rng.uniform(0.1, 10.0)
    if rng.random() < 0.5:
        a, b = b, a

    def f(x):
        return scale * shape((x - root) / width)

    end = rng.random()
    if end < 0.03:
        zero, at = rng.choice([0.0, -0.0]), rng.choice([a, b])
        return (lambda x: zero if x == at else f(x)), a, b, rtol, xtol
    return f, a, b, rtol, xtol


def test_brentq_matches_scipy_on_a_seeded_fuzz(monkeypatch):
    from scipy.optimize import brentq as scipy_brentq

    zero_divisions = []
    divide = optimize._divide

    def counting(n, d):
        if d == 0:
            zero_divisions.append((n, d))
        return divide(n, d)

    monkeypatch.setattr(optimize, "_divide", counting)
    rng = random.Random(20261019)
    kinds = {"root": 0, "sign": 0, "budget": 0}
    for case in range(10_000):
        f, a, b, rtol, xtol = _fuzz_case(rng)
        want = _outcome(scipy_brentq, f, a, b, rtol, xtol)
        got = _outcome(brentq, f, a, b, rtol, xtol)
        assert got == want, (case, a, b, rtol, xtol)
        kinds[want[0] if want[0] in kinds else "root"] += 1
    # every way out, and the zero denominators, came up often
    assert min(kinds.values()) >= 50, kinds
    assert len(zero_divisions) >= 50


def test_brentq_on_ends_where_f_is_zero():
    for zero in (0.0, -0.0):
        for rtol, xtol in GCRIT_TOLERANCES:
            f, points = _traced(lambda x: zero if x == 1.0 else x - 1.5)
            assert brentq(f, 1.0, 2.0, rtol=rtol, xtol=xtol) == 1.0
            assert points == [1.0, 2.0]
            f, points = _traced(lambda x: zero if x == 2.0 else x - 1.5)
            assert brentq(f, 1.0, 2.0, rtol=rtol, xtol=xtol) == 2.0
            assert points == [1.0, 2.0]


#: roots and evaluation counts of scipy 1.17's brentq, written out
LITERAL_ROOTS = [
    (lambda x: x * x - 2.0, 1.0, 2.0, 1e-12, 5e-324, 1.4142135623731364, 8),
    (math.cos, 1.0, 2.0, 8.9e-16, 1e-300, 1.5707963267948966, 7),
    (lambda x: x ** 3 - x - 1.0, 1.0, 2.0, 8.9e-16, 1e-300, 1.324717957244746, 10),
    (lambda x: math.exp(x) - 1e-300, -800.0, 0.0, 1e-12, 5e-324,
     -690.7755278982228, 31),
]


@pytest.mark.parametrize("f, a, b, rtol, xtol, root, evaluations", LITERAL_ROOTS)
def test_brentq_literal_roots(f, a, b, rtol, xtol, root, evaluations):
    traced, points = _traced(f)
    assert brentq(traced, a, b, rtol=rtol, xtol=xtol) == root
    assert len(points) == evaluations


def test_brentq_converts_numpy_values_to_python_floats():
    def f(x):
        assert type(x) is float
        return np.float64(x) ** 3 - np.float64(2.0)

    root = brentq(f, 1.0, 2.0, rtol=8.9e-16, xtol=1e-300)
    assert type(root) is float
    assert root == brentq(lambda x: x ** 3 - 2.0, 1.0, 2.0, rtol=8.9e-16, xtol=1e-300)


# the error contract: gcrit's documented types, which cli.main maps to exit
# codes, where scipy raises ValueError and RuntimeError

def test_brentq_ends_of_equal_sign_raise_accuracy_error():
    with pytest.raises(AccuracyError, match="same sign"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, rtol=1e-12, xtol=5e-324)


def test_brentq_without_convergence_raises_accuracy_error():
    # a sign function only ever bisects, and the bracket shrinks towards the
    # root at 0 that no relative tolerance reaches in 100 halvings
    f, points = _traced(lambda x: math.copysign(1.0, x))
    with pytest.raises(AccuracyError, match="100 iterations") as err:
        brentq(f, -1.0, 2.0, rtol=1e-12, xtol=5e-324)
    assert len(points) == 102
    assert err.value.best_estimate == points[-1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["a", "b", "inside"])
def test_brentq_non_finite_value_raises_integration_error(bad, where):
    def f(x):
        if (where, x) in (("a", -1.0), ("b", 2.0)) or (where == "inside" and -1.0 < x < 2.0):
            return bad
        return x

    with pytest.raises(IntegrationError, match="not finite"):
        brentq(f, -1.0, 2.0, rtol=1e-12, xtol=5e-324)


@pytest.mark.parametrize("rtol, xtol", [(1e-12, 0.0), (1e-12, -1.0), (1e-12, math.nan),
                                        (1e-16, 1e-300), (math.nan, 1e-300)])
def test_brentq_bad_tolerances_raise_domain_error(rtol, xtol):
    f, points = _traced(lambda x: x)
    with pytest.raises(DomainError):
        brentq(f, -1.0, 2.0, rtol=rtol, xtol=xtol)
    assert points == []
