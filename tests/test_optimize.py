import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrit.errors import AccuracyError
from gcrit.optimize import bisect, bracket, drive, minimize_scalar_log


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


def _tried(f, steps):
    """What drive(f, steps) returns, and the points it sent f, in order."""
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    return drive(traced, steps), points


@given(st.floats(-8.0, 8.0), st.floats(-3.0, 3.0), st.sampled_from([2.0, 4.0]),
       st.floats(1.01, 4.0))
def test_bracket_stays_in_range_and_holds_the_sign_change(log_t, log_x, shrink, grow):
    t, x = 10.0 ** log_t, 10.0 ** log_x
    (lo, hi), points = _tried(lambda y: y - t, bracket(x, shrink, grow, LO_END, HI_END))
    assert points[0] == x
    assert all(LO_END <= y <= HI_END for y in points)
    assert len(points) == len(set(points))   # no point is tried twice
    if lo is None:
        # the walk down ends at the low end with f >= 0 at its last point
        assert hi == min(points) and hi >= t and hi / shrink < LO_END
    elif hi is None:
        # the walk up ends at the high end with f < 0 at its last point
        assert lo == max(points) and lo < t and lo * grow > HI_END
    else:
        assert hi == lo * grow
        assert lo - t < 0 <= hi - t


def test_bracket_returns_none_at_both_ends():
    (lo, hi), points = _tried(lambda y: 1.0, bracket(1.0, 4.0, 4.0, LO_END, HI_END))
    assert lo is None and hi == 4.0 ** -4 and points == [4.0 ** -k for k in range(5)]
    (lo, hi), points = _tried(lambda y: -1.0, bracket(1.0, 4.0, 2.0, LO_END, HI_END))
    assert hi is None and lo == 2.0 ** 9 and points == [2.0 ** k for k in range(10)]


@pytest.mark.parametrize("nudge", [0.0, 1e-9])
def test_bracket_tries_a_point_on_an_end_but_not_past_it(nudge):
    low = 2.0 ** -10 * (1.0 + nudge)
    (lo, hi), points = _tried(lambda y: 1.0, bracket(1.0, 2.0, 2.0, low, 1.0))
    assert min(points) == hi == (2.0 ** -10 if nudge == 0.0 else 2.0 ** -9)
    high = 2.0 ** 10 * (1.0 - nudge)
    (lo, hi), points = _tried(lambda y: -1.0, bracket(1.0, 2.0, 2.0, 1.0, high))
    assert max(points) == lo == (2.0 ** 10 if nudge == 0.0 else 2.0 ** 9)


def test_bracket_steps_up_by_grow_after_walking_down():
    (lo, hi), points = _tried(lambda y: y - 0.3, bracket(1.0, 2.0, 1.5, LO_END, HI_END))
    assert points == [1.0, 0.5, 0.25, 0.375]
    assert (lo, hi) == (0.25, 0.375)
    # with grow == shrink the step up lands on the last point of the walk
    # down, which is not tried again
    (lo, hi), points = _tried(lambda y: y - 0.1, bracket(1.0, 4.0, 4.0, LO_END, HI_END))
    assert points == [1.0, 0.25, 0.0625]
    assert (lo, hi) == (0.0625, 0.25)


@given(st.floats(-6.0, 6.0), st.floats(1e-14, 1e-2))
def test_bisect_stops_at_the_requested_relative_width(log_t, rel_tol):
    t = 10.0 ** log_t
    brackets = [(0.3 * t, 4.0 * t)]

    def f(y):
        lo, hi = brackets[-1]
        brackets.append((lo, y) if y >= t else (y, hi))
        return y - t

    lo, hi = drive(f, bisect(*brackets[0], rel_tol))
    assert (lo, hi) == brackets[-1]
    assert lo < t <= hi
    assert hi - lo <= rel_tol * hi
    # every bracket before the last was wider than that
    assert all(b - a > rel_tol * b for a, b in brackets[:-1])


def test_bisect_stops_after_200_halvings():
    (lo, hi), points = _tried(lambda y: y - 1.0, bisect(0.5, 2.0, 0.0))
    assert len(points) == 200
    assert lo < 1.0 <= hi
