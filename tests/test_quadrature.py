import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrit.errors import AccuracyError, ConfigurationError, DomainError
from gcrit.quadrature import (FixedRule, QuadratureConfig, integrate,
                              integrate_semi_infinite, nested_double,
                              nested_triple)

CFG = QuadratureConfig()


def close(a, b, rel=1e-10, abs_=1e-13):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def box(f, hi=1.0):
    """Indicator-limited weight: f(x) on [0, hi], zero beyond."""
    return lambda x: np.where(x <= hi, f(x), 0.0)


def test_polynomial():
    res = integrate(lambda x: x * x, 0.0, 1.0, CFG)
    assert close(res.value, 1.0 / 3.0)
    assert res.error_estimate < 1e-12
    assert res.evaluations >= 15


def test_integrable_endpoint_singularity():
    res = integrate(lambda x: x ** -0.5, 0.0, 1.0, CFG)
    assert close(res.value, 2.0, rel=1e-9)


def test_endpoints_never_evaluated():
    def f(x):
        assert np.all((x > 0.0) & (x < 1.0))
        return x ** -0.25

    res = integrate(f, 0.0, 1.0, CFG)
    assert close(res.value, 4.0 / 3.0, rel=1e-9)


def test_semi_infinite_exponentials():
    assert close(integrate_semi_infinite(lambda x: np.exp(-x), 0.0, CFG).value, 1.0)
    # first-moment integrand of a Coulomb-screened shape: x * v with v = e^-x / x
    assert close(
        integrate_semi_infinite(lambda x: x * np.exp(-x) / x, 0.0, CFG).value, 1.0)
    # x^3 e^(-2x): Gamma(4) / 2^4
    assert close(
        integrate_semi_infinite(lambda x: x ** 3 * np.exp(-2 * x), 0.0, CFG).value,
        6.0 / 16.0)


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0, CFG)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf, CFG)


def test_budget_exhaustion_carries_best_estimate():
    tiny = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=40)
    with pytest.raises(AccuracyError) as err:
        integrate(lambda x: x ** -0.95, 0.0, 1.0, tiny)
    assert err.value.best_estimate is not None
    assert 10.0 < err.value.best_estimate < 21.0  # true value is 20
    assert err.value.error_estimate > 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ConfigurationError):
        QuadratureConfig(max_subdivisions=0)


def test_nested_double_indicator_times_square():
    # inner integral x^3/3, outer over [0, 1] -> 1/12
    val = nested_double(box(lambda x: np.ones_like(x)), box(lambda y: y * y), CFG)
    assert close(val, 1.0 / 12.0, rel=1e-9)
    # same through the exact-truncation path
    val = nested_double(lambda x: np.ones_like(x), lambda y: y * y, CFG, upper=1.0)
    assert close(val, 1.0 / 12.0, rel=1e-10)


def test_nested_double_exponential_symmetry():
    val = nested_double(lambda x: np.exp(-x), lambda y: np.exp(-y), CFG)
    assert close(val, 0.5, rel=1e-9)


def test_nested_double_singular_outer_weight():
    # inner antiderivative (2/5) x^(5/2); outer (2/5) int x^2 = 2/15
    val = nested_double(box(lambda x: x ** -0.5), box(lambda y: y ** 1.5), CFG,
                        upper=1.0)
    assert close(val, 2.0 / 15.0, rel=1e-9)


def test_nested_triple_ordered_simplex():
    one = lambda x: np.ones_like(x)
    val = nested_triple(box(one), box(one), box(one), CFG, upper=1.0)
    assert close(val, 1.0 / 6.0, rel=1e-10)


def test_nested_triple_mixed_powers():
    # innermost y^3/3, middle x^5/15, outer 1/90
    val = nested_triple(box(lambda x: np.ones_like(x)),
                        box(lambda y: y),
                        box(lambda z: z * z), CFG, upper=1.0)
    assert close(val, 1.0 / 90.0, rel=1e-9)


def test_nested_triple_exponential_symmetry():
    e = lambda x: np.exp(-x)
    val = nested_triple(e, e, e, CFG)
    assert close(val, 1.0 / 6.0, rel=1e-9)


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(alpha, beta):
    f = lambda x: x * x
    g = lambda x: np.exp(-x) * x
    lhs = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, CFG).value
    rhs = (alpha * integrate(f, 0.0, 2.0, CFG).value
           + beta * integrate(g, 0.0, 2.0, CFG).value)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-11)


@given(st.floats(0.2, 4.0), st.floats(0.1, 3.0))
def test_exchange_symmetry_exponential_family(c, lam):
    w = lambda x: c * np.exp(-lam * x)
    val = nested_double(w, w, CFG)
    assert math.isclose(val, 0.5 * (c / lam) ** 2, rel_tol=1e-8)


@given(st.floats(0.3, 2.5))
def test_triple_symmetry_exponential_family(lam):
    w = lambda x: np.exp(-lam * x)
    val = nested_triple(w, w, w, CFG)
    assert math.isclose(val, (1.0 / lam) ** 3 / 6.0, rel_tol=1e-8)


def test_breakpoint_seeding_matches_plain():
    f = lambda x: np.where(x < 0.377, 1.3, 0.2)
    plain = integrate(f, 0.0, 1.0, CFG).value
    seeded = integrate(f, 0.0, 1.0, CFG, points=(0.377,)).value
    exact = 0.377 * 1.3 + (1.0 - 0.377) * 0.2
    assert close(seeded, exact, rel=1e-12)
    assert close(plain, exact, rel=1e-9)


@pytest.mark.parametrize("upper", [3.0, None])
def test_fixed_rule_reuses_the_adaptive_partition(upper):
    def family(c):
        return lambda x: np.exp(-c * x) * np.sqrt(x) / (1.0 + x)

    points = (0.5, 2.0)
    rule = FixedRule(family(1.0), CFG, upper=upper, points=points)
    if upper is None:
        want = integrate_semi_infinite(family(1.0), 0.0, CFG, points=points)
    else:
        want = integrate(family(1.0), 0.0, upper, CFG, points=points)
    assert rule.total == want.value  # the very same adaptive pass
    assert np.all(rule.nodes > 0.0)
    if upper is not None:
        assert np.all(rule.nodes < upper)
    # the cached nodes integrate the same integrand and its neighbours
    assert close(rule.integral(family(1.0)(rule.nodes)), want.value, rel=1e-14)
    for c in (0.8, 1.25):
        if upper is None:
            ref = integrate_semi_infinite(family(c), 0.0, CFG, points=points)
        else:
            ref = integrate(family(c), 0.0, upper, CFG, points=points)
        assert close(rule.integral(family(c)(rule.nodes)), ref.value, rel=1e-9)
