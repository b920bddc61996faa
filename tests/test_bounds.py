import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrit import bounds as bounds_module
from gcrit import quadrature
from gcrit.bounds import (G_SEARCH_RANGE, MONOTONE_TOL, SOLVER_AGREEMENT,
                          BoundResult, Method, SandwichReport, Side,
                          _calogero_II_integrand,
                          _rel_cfg, lower_bargmann_schwinger, lower_ggmt,
                          lower_ggmt_at, lower_second_order, lower_third_order,
                          sandwich, upper_calogero_I, upper_calogero_I_at,
                          upper_calogero_II, upper_calogero_II_at,
                          upper_variational, upper_variational_at,
                          upper_variational_square_well)
from gcrit.cli import main
from gcrit.errors import (AccuracyError, DomainError, IntegrationError,
                          InvariantViolation, SearchRangeError)
from gcrit.potentials import Potential
from gcrit.quadrature import (DEFAULT_CONFIG, FixedRule, QuadratureConfig,
                              integrate, integrate_semi_infinite)

SW = Potential.square_well()
EXP = Potential.exponential()
YUK = Potential.yukawa()
PRINTED_TOL = 1e-4  # five significant digits in the reference tables


def test_first_moment_values():
    assert math.isclose(lower_bargmann_schwinger(SW, 0).value, 2.0, rel_tol=1e-12)
    assert math.isclose(lower_bargmann_schwinger(YUK, 2).value, 5.0, rel_tol=1e-12)
    # truncated inverse-square shape, alpha = 1: 1 / (ln 2 - 1/2)
    got = lower_bargmann_schwinger(Potential.stis(1.0), 0).value
    assert math.isclose(got, 1.0 / (math.log(2.0) - 0.5), rel_tol=1e-11)


def test_first_moment_result_fields():
    res = lower_bargmann_schwinger(SW, 1)
    assert res.method is Method.BARGMANN_SCHWINGER
    assert res.side is Side.LOWER
    assert res.ell == 1
    assert res.optimal_param is None


def test_second_order_square_well():
    assert math.isclose(lower_second_order(SW, 0).value, math.sqrt(6.0), rel_tol=1e-9)
    # nested moment for ell = 1 evaluates to 1/90 analytically
    assert math.isclose(lower_second_order(SW, 1).value, math.sqrt(90.0), rel_tol=1e-9)


def test_third_order_square_well():
    assert math.isclose(lower_third_order(SW, 0).value, 15.0 ** (1.0 / 3.0), rel_tol=1e-9)
    assert math.isclose(lower_third_order(SW, 1).value, 945.0 ** (1.0 / 3.0), rel_tol=1e-9)


def test_second_order_sits_between_neighbors():
    lo = lower_bargmann_schwinger(EXP, 0).value
    mid = lower_second_order(EXP, 0).value
    hi = lower_third_order(EXP, 0).value
    assert lo < mid < hi


def test_power_family_reduces_to_first_moment_at_unit_power():
    for pot in (SW, EXP, YUK, Potential.stis(1.0)):
        at1 = lower_ggmt_at(pot, 0, 1.0).value
        bs = lower_bargmann_schwinger(pot, 0).value
        assert math.isclose(at1, bs, rel_tol=1e-9), pot.label()


def test_power_family_printed_values():
    assert math.isclose(lower_ggmt(SW, 0).value, 2.3593, rel_tol=PRINTED_TOL)
    assert math.isclose(lower_ggmt(YUK, 5).value, 92.850, rel_tol=PRINTED_TOL)


def test_power_family_never_below_first_moment():
    for pot, ell in ((SW, 2), (EXP, 1), (YUK, 0)):
        assert lower_ggmt(pot, ell).value >= lower_bargmann_schwinger(pot, ell).value * (1 - 1e-9)


def test_power_family_domain():
    with pytest.raises(DomainError):
        lower_ggmt_at(SW, 0, 0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: BoundResult(Method.GGMT, Side.LOWER, 0.0, 0), AccuracyError,
     "ggmt produced a non-positive bound 0.0"),
    (lambda: upper_calogero_I_at(EXP, 0, 0.0), DomainError,
     "matching radius a must be positive"),
    (lambda: upper_calogero_II_at(EXP, 0, -1.0), DomainError,
     "matching radius a must be positive"),
], ids=["zero_bound", "calogero_I_radius", "calogero_II_radius"])
def test_bound_inputs_outside_their_domain_raise_their_documented_error(call, error,
                                                                        message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


# every fixed-parameter limit, with (pot, ell, param, cfg) as its positional form
AT_BOUNDS = {"ggmt": lower_ggmt_at, "calogero_i": upper_calogero_I_at,
             "calogero_ii": upper_calogero_II_at, "variational": upper_variational_at}


@pytest.mark.parametrize("name", sorted(AT_BOUNDS))
def test_every_fixed_parameter_limit_takes_cfg_fourth(name):
    at = AT_BOUNDS[name]
    cfg = DEFAULT_CONFIG.loosened(rel_tol=1e-6, max_subdivisions=600)
    assert cfg != DEFAULT_CONFIG
    assert at(EXP, 1, 1.5, cfg) == at(EXP, 1, 1.5, cfg=cfg)


@pytest.mark.parametrize("name", sorted(AT_BOUNDS))
def test_an_infinite_fixed_parameter_is_a_domain_error(name):
    # an input error, not a numerical failure of the integrals it leads to
    with pytest.raises(DomainError, match="must be finite$"):
        AT_BOUNDS[name](EXP, 0, math.inf)


def test_rel_cfg_keeps_a_config_at_or_below_its_floor():
    for abs_tol in (1e-280, 1e-300):
        cfg = QuadratureConfig(abs_tol=abs_tol)
        assert _rel_cfg(cfg) is cfg
    assert _rel_cfg(DEFAULT_CONFIG).abs_tol == 1e-280


def reference_calogero_I_at(pot, ell, a, cfg=DEFAULT_CONFIG):
    """`upper_calogero_I_at` on a decaying shape as it was written out before
    `integrate` took an open upper end: the outer integral is a second call,
    to `integrate_semi_infinite`."""
    unit, x = pot.unit, a / pot.scale
    k = 2 * ell + 1

    def inner(r):
        return r * unit.evaluate(r) * (r / x) ** k

    def outer(r):
        return r * unit.evaluate(r) * (x / r) ** k

    rcfg, points = _rel_cfg(cfg), unit.breakpoints()
    total = integrate(inner, 0.0, x, rcfg, points=points).value
    total += integrate_semi_infinite(outer, x, rcfg, points=points).value
    return k / total


@pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("pot", [EXP, YUK], ids=["exponential", "yukawa"])
def test_matching_radius_I_on_a_decaying_shape_is_the_two_call_reference(pot, a):
    for ell in (0, 2):
        assert upper_calogero_I_at(pot, ell, a).value == reference_calogero_I_at(pot, ell, a)


def test_matching_radius_I_square_well_analytic():
    # I(a) = a - 2 a^2 / 3 for the unit square well at ell = 0
    res = upper_calogero_I_at(SW, 0, 0.5)
    assert math.isclose(res.value, 1.0 / (0.5 - 2.0 * 0.25 / 3.0), rel_tol=1e-10)
    best = upper_calogero_I(SW, 0)
    assert math.isclose(best.value, 8.0 / 3.0, rel_tol=1e-8)
    assert math.isclose(best.optimal_param, 0.75, rel_tol=1e-4)


def test_matching_radius_I_printed():
    assert math.isclose(upper_calogero_I(EXP, 1).value, 9.7188, rel_tol=PRINTED_TOL)
    assert math.isclose(upper_calogero_I(Potential.stis(0.1), 0).value, 306.01,
                        rel_tol=PRINTED_TOL)


def test_matching_radius_II_square_well_analytic():
    # at fixed a the condition reads a g / (1 + a^2 g) = 1, so g = 1/(a(1-a))
    res = upper_calogero_II_at(SW, 0, 0.5)
    assert math.isclose(res.value, 4.0, rel_tol=1e-9)
    res = upper_calogero_II_at(SW, 0, 0.25)
    assert math.isclose(res.value, 1.0 / (0.25 * 0.75), rel_tol=1e-9)
    best = upper_calogero_II(SW, 0)
    assert math.isclose(best.value, 4.0, rel_tol=1e-8)
    assert math.isclose(best.optimal_param, 0.5, rel_tol=1e-3)


def test_matching_radius_II_rejects_a_trial_strength_not_above_zero():
    # in a subprocess with a timeout: a NaN trial once searched forever
    code = ("import math\n"
            "from gcrit import Potential, upper_calogero_II_at\n"
            "from gcrit.errors import DomainError\n"
            "for g in (math.nan, 0.0, -1.0):\n"
            "    try:\n"
            "        upper_calogero_II_at(Potential.exponential(), 0, 1.0, g_trial=g)\n"
            "    except DomainError as exc:\n"
            "        print(exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "trial strength g_trial must be positive\n" * 3


@pytest.mark.parametrize("w", [0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_matching_radius_II_shell_closed_form(w):
    # on the shell of width w at l = 0 the threshold at fixed a is
    # g(a) = 1/(a(1 - a/w)), least at a = w/2 with g = 4/w; at w = 1e-5 the
    # search's last step up lands on G_SEARCH_RANGE's top, 1e6
    best = upper_calogero_II(Potential.shell(w), 0)
    assert math.isclose(best.value, 4.0 / w, rel_tol=1e-10)
    assert math.isclose(best.optimal_param, w / 2, rel_tol=1e-5)


@pytest.mark.parametrize("w", ["1e-7", "1e-9"])
def test_matching_radius_II_shell_past_the_search_range_exits_3(capsys, w):
    # 4/w lies above G_SEARCH_RANGE, so every trial of the search is rejected
    assert main(["compute", "--potential", "shell", "--shell-width", w,
                 "--methods", "calogero_ii"]) == 3
    captured = capsys.readouterr()
    assert "never reached 1 below g = 1e+06" in captured.err
    assert "Traceback" not in captured.err


def test_matching_radius_II_printed():
    assert math.isclose(upper_calogero_II(YUK, 0).value, 1.6810, rel_tol=PRINTED_TOL)
    assert math.isclose(upper_calogero_II(EXP, 5).value, 91.708, rel_tol=PRINTED_TOL)


@given(st.floats(0.05, 40.0), st.integers(0, 5))
def test_variational_square_well_identity(p, ell):
    # analytic reduction: L (p + L + 1) (p + 1) / p
    L = ell + 0.5
    expected = L * (p + L + 1.0) * (p + 1.0) / p
    got = upper_variational_at(SW, ell, p).value
    assert math.isclose(got, expected, rel_tol=1e-9)


def test_variational_minimum_matches_closed_form():
    for ell in (0, 1):
        num = upper_variational(SW, ell)
        closed = upper_variational_square_well(ell)
        assert math.isclose(num.value, closed.value, rel_tol=1e-8)
        assert abs(num.optimal_param - closed.optimal_param) < 1e-4
    assert math.isclose(upper_variational_square_well(0).value,
                        0.5 * (math.sqrt(1.5) + 1.0) ** 2, rel_tol=1e-14)


def test_variational_printed_values():
    res = upper_variational(EXP, 2)
    assert math.isclose(res.value, 16.334, rel_tol=PRINTED_TOL)
    assert math.isclose(res.optimal_param, 3.4103, rel_tol=1e-3)


def test_variational_handles_small_power():
    # integrand has an integrable x^(p/2 - 1) ramp at the origin
    res = upper_variational_at(YUK, 0, 0.4)
    assert res.value > 1.6798  # any trial power stays above the true threshold


def test_variational_domain():
    with pytest.raises(DomainError):
        upper_variational_at(SW, 0, -1.0)


def test_sufficient_condition():
    # the sufficient condition g >= bound at p* holds for the square well at
    # g = 2.48 and not at 2.40
    assert 2.40 < upper_variational_at(SW, 0, 1.2247448713915890).value <= 2.48


@pytest.mark.parametrize("g,p", [(1.2, 1.5), (1.6, 1.5), (2.5, 2.0)])
def test_sufficient_condition_matches_direct_evaluation(g, p):
    # evaluate the condition's left side directly from the strength-scaled
    # weights x^q |V|^((q+1)/2) with |V| = g v, instead of through the
    # fixed-power upper limit
    import numpy as np

    from gcrit.quadrature import integrate_semi_infinite, nested_double

    pot, ell = EXP, 0
    L = ell + 0.5

    def weight(q):
        def f(x):
            x = np.asarray(x, dtype=float)
            return x ** q * (g * pot.evaluate(x)) ** (0.5 * (q + 1.0))
        return f

    fp = weight(p)
    numerator = nested_double(lambda x: fp(x) * x ** (-L),
                              lambda y: fp(y) * y ** L)
    denominator = L * integrate_semi_infinite(weight(2.0 * p - 1.0), 0.0).value
    lhs = numerator / denominator
    assert math.isclose(lhs, g / upper_variational_at(pot, ell, p).value,
                        rel_tol=1e-8)


def test_sandwich_square_well():
    rep = sandwich(SW, 2)
    assert rep.ordering_ok()
    assert rep.max_lower <= 20.191 * (1 + 1e-4)
    assert rep.min_upper >= 20.191 * (1 - 1e-4)
    assert math.isclose(rep.exact_shooting, 20.191, rel_tol=1e-4)
    assert {b.method for b in rep.lowers} == {
        Method.BARGMANN_SCHWINGER, Method.SECOND_ORDER, Method.THIRD_ORDER,
        Method.GGMT}
    assert {b.method for b in rep.uppers} == {
        Method.CALOGERO_I, Method.CALOGERO_II, Method.VARIATIONAL}
    assert rep.by_method(Method.GGMT).optimal_param is not None


def _report(bs=1.0, second=1.0, third=1.0, ggmt=1.0, shooting=1.5, nystrom=1.5):
    """A hand-built report with these lower limits and solver values."""
    lows = tuple(BoundResult(m, Side.LOWER, v, 0) for m, v in (
        (Method.BARGMANN_SCHWINGER, bs), (Method.SECOND_ORDER, second),
        (Method.THIRD_ORDER, third), (Method.GGMT, ggmt)))
    ups = (BoundResult(Method.CALOGERO_I, Side.UPPER, 2.0, 0),)
    return SandwichReport(SW, 0, lows, ups, shooting, nystrom, 0.0)


def test_report_by_method_of_an_absent_method_raises_key_error():
    with pytest.raises(KeyError) as exc:
        _report().by_method(Method.VARIATIONAL)
    assert exc.value.args == (Method.VARIATIONAL,)


def test_report_lower_sequence_is_monotone_to_its_tolerance():
    assert MONOTONE_TOL == 1e-9
    assert _report(1.0, 1.2, 1.3).lower_sequence == (1.0, 1.2, 1.3)
    assert _report(1.0, 1.2, 1.3).lower_sequence_ok()
    assert _report(1.0, 1.0 - 0.5e-9, 1.0 - 0.9e-9).lower_sequence_ok()
    assert not _report(1.0, 1.0 - 2e-9, 1.3).lower_sequence_ok()
    assert not _report(1.0, 1.2, 1.2 * (1 - 2e-9)).lower_sequence_ok()


def test_report_ggmt_is_at_least_the_first_moment_to_its_tolerance():
    assert _report(ggmt=1.2).ggmt_ok()
    assert _report(ggmt=1.0 - 0.5e-9).ggmt_ok()
    assert not _report(ggmt=1.0 - 2e-9).ggmt_ok()
    # the second- and third-order limits play no part
    assert _report(second=0.5, third=0.5, ggmt=1.0).ggmt_ok()


def test_report_solvers_agree_to_their_tolerance():
    assert SOLVER_AGREEMENT == 1e-5
    rep = _report(shooting=2.0, nystrom=2.0 - 3e-5)
    assert math.isclose(rep.solver_gap, 1.5e-5, rel_tol=1e-9)
    assert not rep.solvers_agree()
    assert _report(shooting=2.0, nystrom=2.0 + 1.9e-5).solvers_agree()
    assert not _report(shooting=2.0, nystrom=2.0 + 2.1e-5).solvers_agree()


def test_scale_invariance_smoke():
    for R in (0.5, 2.0):
        scaled = Potential.yukawa(R=R)
        assert math.isclose(lower_bargmann_schwinger(scaled, 0).value, 1.0,
                            rel_tol=1e-10)
        assert math.isclose(upper_variational(scaled, 0).value,
                            upper_variational(YUK, 0).value, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# Calogero II: frozen-rule search against the adaptive reference
# ---------------------------------------------------------------------------

def _bump_grid(n_knots, seed):
    """A smooth compact bump mixture (the acceptance criterion 7 generator)."""
    rng = np.random.default_rng(seed)
    r_max = float(rng.uniform(2.0, 4.0))
    r = np.linspace(0.02, r_max, n_knots)
    v = np.zeros_like(r)
    for _ in range(int(rng.integers(1, 3))):
        center = rng.uniform(0.2, 0.8) * r_max
        width = rng.uniform(0.2, 0.5) * r_max
        v += rng.uniform(0.5, 2.0) * np.exp(-((r - center) / width) ** 2)
    v[-1] = 0.0
    return Potential.tabulated(list(zip(r.tolist(), v.tolist())))


def _calogero_II_lhs(pot, ell, a, g, cfg):
    """Left side of the nonlinear sufficient condition at (a, g), from one
    adaptive quadrature."""
    return a * pot.support_integral(_calogero_II_integrand(pot, ell, a, g), _rel_cfg(cfg))


def reference_bracket(pot, ell, a, g_trial, cfg=DEFAULT_CONFIG, visited=None):
    """The final (lo, hi) of the threshold search with adaptive quadrature at
    every trial g: the search as it was before the frozen rule and the
    lockstep walk, kept as the slow path both must match.  `visited`
    collects the strengths it asks for."""
    visited = [] if visited is None else visited

    def excess(g):
        visited.append(g)
        return _calogero_II_lhs(pot, ell, a, g, cfg) - 1.0

    return plain_search(excess, g_trial)


def plain_search(excess, g_start):
    """The final (lo, hi) of the threshold search on `excess`, walked by
    factors of 4 and then plainly bisected: the reference search of both
    `reference_bracket` and the frozen rule's Newton replay."""
    g_lo, g_hi = G_SEARCH_RANGE
    lo = hi = min(max(g_start, g_lo), g_hi)
    f = excess(lo)
    # a step lands on an end of G_SEARCH_RANGE rather than passing it
    if f < 0:
        while f < 0:
            if hi >= g_hi:
                raise SearchRangeError(
                    f"sufficient condition never reached 1 below g = {g_hi:g}")
            lo = hi
            hi = min(4.0 * hi, g_hi)
            f = excess(hi)
    else:
        while excess(lo) >= 0:
            if lo <= g_lo:
                raise SearchRangeError(
                    f"sufficient condition already holds at g = {g_lo:g}")
            hi = lo
            lo = max(lo / 4.0, g_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    return lo, hi


def reference_calogero_II(pot, ell, a, g_trial, cfg=DEFAULT_CONFIG):
    """Threshold by adaptive quadrature at every trial g: the search as it
    was before the frozen rule, kept as the slow path the rule must match."""
    return reference_bracket(pot, ell, a, g_trial, cfg)[1]


# shape, and its optimal matching radius for l = 0 and l = 3
CALOGERO_II_SHAPES = {
    "square_well": (SW, {0: 0.5, 3: 0.603}),
    "exponential": (EXP, {0: 1.594, 3: 1.391}),
    "yukawa": (YUK, {0: 0.641, 3: 0.693}),
    "shell": (Potential.shell(0.1), {0: 0.05, 3: 0.678}),
    "tabulated16": (_bump_grid(16, 16), {0: 1.264, 3: 1.132}),
    "tabulated64": (_bump_grid(64, 64), {0: 1.608, 3: 1.408}),
}


def _outcome(fn):
    try:
        return fn()
    except SearchRangeError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", sorted(CALOGERO_II_SHAPES))
@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("a_factor", [0.25, 1.0, 1.6, 4.0])
def test_calogero_II_frozen_rule_matches_adaptive(shape, ell, a_factor):
    pot, a_opt = CALOGERO_II_SHAPES[shape]
    a = a_factor * a_opt[ell]
    start = _outcome(lambda: upper_calogero_II_at(pot, ell, a).value)
    if isinstance(start, str):
        # no threshold in range: the same error as the adaptive search
        assert start == _outcome(lambda: reference_calogero_II(pot, ell, a, 1.0))
        return
    for g_trial in (start / 32.0, 32.0 * start):
        got = upper_calogero_II_at(pot, ell, a, g_trial=g_trial).value
        want = reference_calogero_II(pot, ell, a, g_trial)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (g_trial, got, want)


@pytest.mark.parametrize("shape", ["square_well", "shell", "tabulated16",
                                   "tabulated64", "exponential"])
@pytest.mark.parametrize("ell", [0, 3])
def test_calogero_II_beyond_support_raises_like_adaptive(shape, ell):
    pot, _ = CALOGERO_II_SHAPES[shape]
    a = 50.0 * (pot.cutoff if pot.is_compact else 2.0)
    with pytest.raises(SearchRangeError) as got:
        upper_calogero_II_at(pot, ell, a)
    with pytest.raises(SearchRangeError) as want:
        reference_calogero_II(pot, ell, a, 1.0)
    assert str(got.value) == str(want.value)


def test_calogero_II_verification_catches_a_biased_rule(monkeypatch):
    pot, a_opt = CALOGERO_II_SHAPES["tabulated64"]
    a = a_opt[3]
    searches = []
    bracket = bounds_module._bracket_threshold

    def counted(excess, g_start, slope=None):
        searches.append(g_start)
        return bracket(excess, g_start, slope)

    monkeypatch.setattr(bounds_module, "_bracket_threshold", counted)
    want = reference_calogero_II(pot, 3, a, 1.0)
    assert math.isclose(upper_calogero_II_at(pot, 3, a).value, want,
                        rel_tol=1e-12, abs_tol=0.0)
    assert len(searches) == 1  # the frozen rule passed its checks

    integral = FixedRule.integral
    monkeypatch.setattr(FixedRule, "integral",
                        lambda self, values: integral(self, values) * (1.0 + 1e-6))
    searches.clear()
    assert upper_calogero_II_at(pot, 3, a).value == want
    # rejected, rejected again on the rule rebuilt at its bracket, then the
    # adaptive search
    assert len(searches) == 3


# ---------------------------------------------------------------------------
# Calogero II: Brent's root and the replayed bisection against plain bisection
# ---------------------------------------------------------------------------

# (shape, l, a, g_trial) of two 15-node rules (one Kronrod panel), the
# smallest rule a frozen search runs on; a Newton root, stopped before its
# last step, once carried the replay into the neighbouring leaf on both
FIFTEEN_NODES = {
    "square_well/0": (SW, 0, 0.49962331121955766, 4.000064697551281),
    "stis/0": (Potential.stis(0.1), 0, 0.04995412824297655, 440.66654713620915),
}
REPLAYS = {f"{shape}/{ell}/{factor}": (pot, ell, factor * a_opt[ell], 1.0)
           for shape, (pot, a_opt) in CALOGERO_II_SHAPES.items()
           for ell in (0, 3) for factor in (0.25, 1.0, 1.6, 4.0)}
REPLAYS.update({f"15-node/{name}": case for name, case in FIFTEEN_NODES.items()})


@pytest.mark.parametrize("case", sorted(REPLAYS))
def test_calogero_II_newton_replay_is_plain_bisection(monkeypatch, case):
    pot, ell, a, g0 = REPLAYS[case]
    unit, x = pot.unit, a / pot.scale
    rule = FixedRule(_calogero_II_integrand(unit, ell, x, g0), _rel_cfg(DEFAULT_CONFIG),
                     **unit.support)
    sums = []
    integral = FixedRule.integral
    monkeypatch.setattr(FixedRule, "integral",
                        lambda self, values: sums.append(None) or integral(self, values))

    def search(run):
        """run's outcome on a fresh frozen excess and slope of the rule, and
        the frozen sums it took."""
        sums.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            excess, slope, _ = bounds_module._frozen_calogero_II(
                unit, ell, x, rule, g0, x * rule.total - 1.0)
            return search_outcome(lambda: run(excess, slope)), len(sums)

    want, plain = search(lambda excess, _: plain_search(excess, g0))
    got, replayed = search(lambda excess, slope:
                           bounds_module._bracket_threshold(excess, g0, slope))
    assert got == want
    if isinstance(want[0], float):
        assert replayed < plain, (replayed, plain)
    else:   # out of range before any bisection
        assert replayed == plain


@pytest.mark.parametrize("case", sorted(FIFTEEN_NODES))
def test_calogero_II_on_a_15_node_rule_is_the_adaptive_search(case):
    pot, ell, a, g_trial = FIFTEEN_NODES[case]
    got = upper_calogero_II_at(pot, ell, a, g_trial=g_trial).value
    assert got == reference_calogero_II(pot, ell, a, g_trial)


def _bisections(monkeypatch):
    """Record the function of each `optimize.bisect` call of
    `_bracket_threshold`."""
    calls = []
    bisect = bounds_module.bisect

    def spy(f, lo, hi, rel_tol):
        calls.append(f)
        return bisect(f, lo, hi, rel_tol)

    monkeypatch.setattr(bounds_module, "bisect", spy)
    return calls


def test_a_replayed_leaf_that_is_no_sign_change_goes_to_plain_bisection(monkeypatch):
    # a stated rounding of 0 on an excess that dips below 0 again just past
    # its root, within a leaf's width: the replay's leaf straddles the root
    # Brent finds but ends in the dip
    def excess(g):
        return -1.0 if 3.0 + 5e-13 <= g < 3.0 + 3e-12 else g - 3.0

    calls = _bisections(monkeypatch)
    got = bounds_module._bracket_threshold(excess, 1.0, lambda g: (1.0, 0.0))
    assert got == plain_search(excess, 1.0)
    assert len(calls) == 2 and calls[1] is excess   # the replay, then plain bisection


def _raises_accuracy_error(*args, **kwargs):
    raise AccuracyError("brentq: no convergence in 100 iterations")


@pytest.mark.parametrize("failure", ["brentq", "zero_slope", "nan_slope"])
def test_a_failed_root_goes_to_plain_bisection(monkeypatch, failure):
    # Brent's method raising AccuracyError, or a slope at its root that is
    # not above 0, leaves no band to replay in
    slope = {"zero_slope": 0.0, "nan_slope": math.nan}.get(failure, 1.0)
    if failure == "brentq":
        monkeypatch.setattr(bounds_module, "brentq", _raises_accuracy_error)

    def excess(g):
        return math.log(g / 3.0)

    calls = _bisections(monkeypatch)
    got = bounds_module._bracket_threshold(excess, 1.0, lambda g: (slope, 0.0))
    assert got == plain_search(excess, 1.0)
    assert calls == [excess]


@pytest.mark.parametrize("g_start", [1.0, 0.7, 2.0])
def test_the_band_holds_every_sign_change_within_the_stated_rounding(g_start):
    # the excess g - 3 +- 1e-10 changes sign three times within 1e-10 of 3:
    # up at 3 - 1e-10, down at 3 - 8e-11 and up at 3 + 3e-11; Brent's root is
    # the first, plain bisection ends at the last, and only a band that holds
    # all three replays plain bisection's path
    def excess(g):
        return g - 3.0 + (-1e-10 if 3.0 - 8e-11 <= g < 3.0 + 3e-11 else 1e-10)

    want = plain_search(excess, g_start)
    assert want[1] > 3.0
    assert bounds_module._bracket_threshold(excess, g_start, lambda g: (1.0, 1e-10)) == want


# ---------------------------------------------------------------------------
# Calogero II: the fallback walk against the sequential adaptive search
# ---------------------------------------------------------------------------

SEARCH_CFG = DEFAULT_CONFIG.loosened(rel_tol=1e-8, max_subdivisions=600)
_SEARCH_ERRORS = (SearchRangeError, AccuracyError, IntegrationError)


def search_outcome(search):
    """search()'s (lo, hi), or the type and message of the error it raises."""
    try:
        return search()
    except _SEARCH_ERRORS as exc:
        return type(exc), str(exc)


def observed_walk(pot, ell, a, g_trial, cfg, trap=(), walk=None):
    """Run upper_calogero_II_at and return the outcome of each of its
    searches, as search_outcome gives it, and the set of strengths each
    lockstep pass evaluated; a lockstep member at a strength in `trap` meets
    a NaN (the frozen rule does not).  `walk` collects, if the search on
    adaptive values runs, the list of the passes it made."""
    searches, passes = [], []
    walk = [] if walk is None else walk
    bracket = bounds_module._bracket_threshold
    lockstep = bounds_module.lockstep
    terms = bounds_module._calogero_II_terms

    def counted(excess, g_start, slope=None):
        start = len(passes)
        try:
            searches.append(bracket(excess, g_start, slope))
        except Exception as exc:
            searches.append((type(exc), str(exc)))
            raise
        finally:
            if slope is None:   # the search on adaptive values
                walk.append(passes[start:])
        return searches[-1]

    def observed(f, m, *args, **kwargs):
        passes.append(set())
        return lockstep(f, m, *args, **kwargs)

    def trapped(v, t, a, g):
        out = terms(v, t, a, g)
        if isinstance(g, np.ndarray):   # a lockstep member per node
            passes[-1].update(g.tolist())
            out = np.where(np.isin(g, list(trap)), np.nan, out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bounds_module, "_bracket_threshold", counted)
        m.setattr(bounds_module, "lockstep", observed)
        m.setattr(bounds_module, "_calogero_II_terms", trapped)
        search_outcome(lambda: upper_calogero_II_at(pot, ell, a, cfg, g_trial=g_trial))
    return searches, passes


def _biased(factor):
    """A FixedRule.integral off by `factor`, which the checks reject."""
    integral = FixedRule.integral
    return lambda self, values: integral(self, values) * factor


def _nan_after(calls):
    """A FixedRule.integral that turns NaN after `calls` calls, so that the
    frozen search is rejected before it ends."""
    integral = FixedRule.integral
    seen = []

    def nan_after(self, values):
        seen.append(None)
        return integral(self, values) if len(seen) <= calls else math.nan
    return nan_after


# (shape, l, a, g_trial, a maker of the FixedRule.integral to use or None,
# the number of searches): searches whose first frozen rule is rejected
FALLBACKS = {
    # the rule is off by ~1e-9 at both ends of its bracket (search config);
    # the rule rebuilt at that bracket confirms, and no walk runs
    "natural/exponential/3": (EXP, 3, 0.834, 1.0, None, 2),
    # a rule off by 1e-6 parts, rebuilt just as biased: the frozen search,
    # the rebuilt one, then the walk
    "biased/tabulated64/3": (CALOGERO_II_SHAPES["tabulated64"][0], 3, 1.408, 1.0,
                             lambda: _biased(1.0 + 1e-6), 3),
    "biased/yukawa/0": (YUK, 0, 0.641, 40.0, lambda: _biased(1.0 - 1e-6), 3),
    "biased/shell/3": (Potential.shell(0.1), 3, 0.678, 1.0,
                       lambda: _biased(1.0 + 1e-6), 3),
    # the rule brackets a threshold that adaptive quadrature never reaches
    "range/square_well/0": (SW, 0, 25.0, 1.0, lambda: _biased(1e3), 3),
    # a non-finite frozen sum goes straight to the walk
    "nan/exponential/0": (EXP, 0, 1.594, 1.0, lambda: _nan_after(5), 2),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_calogero_II_fallback_walk_matches_sequential_search(monkeypatch, case):
    pot, ell, a, g_trial, integral, count = FALLBACKS[case]
    want = search_outcome(lambda: reference_bracket(pot, ell, a, g_trial, SEARCH_CFG))
    if integral is not None:
        monkeypatch.setattr(FixedRule, "integral", integral())
    walk = []
    searches, passes = observed_walk(pot, ell, a, g_trial, SEARCH_CFG, walk=walk)
    assert len(searches) == count
    assert searches[-1] == want
    evaluated = [g for p in passes for g in p]
    assert len(evaluated) == len(set(evaluated))   # each strength once
    assert g_trial not in evaluated   # the rule's own pass is the value there
    if case.startswith("natural"):
        assert walk == []   # confirmed on the rebuilt rule
    else:
        # the walk evaluates one strength per lockstep pass
        [made] = walk
        assert made and all(len(p) == 1 for p in made), [len(p) for p in made]
    if case.startswith("range"):
        assert want[0] is SearchRangeError


@pytest.mark.parametrize("case", ["biased/tabulated64/3", "biased/yukawa/0"])
def test_calogero_II_walk_ignores_errors_it_never_visits(monkeypatch, case):
    # a strength the checks evaluated but the sequential search never asks
    # for may neither raise nor change the bracket
    pot, ell, a, g_trial, integral, _ = FALLBACKS[case]
    visited = []
    want = search_outcome(
        lambda: reference_bracket(pot, ell, a, g_trial, SEARCH_CFG, visited))
    if integral is not None:
        monkeypatch.setattr(FixedRule, "integral", integral())
    _, passes = observed_walk(pot, ell, a, g_trial, SEARCH_CFG)
    # strengths evaluated but the sequential search never asks for
    trap = set().union(*passes) - set(visited)
    assert trap
    walk = []
    searches, passes = observed_walk(pot, ell, a, g_trial, SEARCH_CFG, trap, walk)
    assert trap & set().union(*passes)   # some of their integrals did fail
    assert len(walk) == 1
    assert searches[-1] == want


@pytest.mark.parametrize("case", ["biased/tabulated64/3", "biased/yukawa/0"])
def test_calogero_II_walk_raises_an_error_it_visits(monkeypatch, case):
    # the complement: a strength the sequential search asks for meets a NaN
    # in its adaptive integral, so the walk raises that error
    pot, ell, a, g_trial, integral, _ = FALLBACKS[case]
    visited = []
    search_outcome(lambda: reference_bracket(pot, ell, a, g_trial, SEARCH_CFG, visited))
    if integral is not None:
        monkeypatch.setattr(FixedRule, "integral", integral())
    # the rule's own pass is the value at g_trial, which no lockstep repeats
    trap = set(visited) - {g_trial}
    walk = []
    searches, passes = observed_walk(pot, ell, a, g_trial, SEARCH_CFG, trap, walk)
    assert trap & set().union(*passes)
    assert len(walk) == 1
    assert searches[-1][0] is IntegrationError


# the fallback cases, one whose first rule stands, and one out of range
JUDGED = {**FALLBACKS,
          "stands/yukawa/0": (YUK, 0, 0.641, 1.0, None, 1),
          "stands/square_well/3": (SW, 3, 50.0, 1.0, None, 1)}


@pytest.mark.parametrize("case", sorted(JUDGED))
def test_a_frozen_outcome_stands_exactly_when_its_deciding_samples_keep_their_side(
        monkeypatch, case):
    # the deciding samples are (lo, hi) of a bracket, or the last sample of
    # a SearchRangeError; a rejected outcome rebuilds the rule at the last
    # of them, and after a second rejection the search on adaptive values
    # decides
    pot, ell, a, g_trial, integral, _ = JUDGED[case]
    if integral is not None:
        monkeypatch.setattr(FixedRule, "integral", integral())
    rules, walks = [], []   # [g_rule, sampled, outcome] of each frozen search
    frozen = bounds_module._frozen_calogero_II
    bracket = bounds_module._bracket_threshold

    def spied(unit, ell, x, rule, g_rule, f_rule):
        excess, slope, sampled = frozen(unit, ell, x, rule, g_rule, f_rule)
        rules.append([g_rule, sampled, None])
        return excess, slope, sampled

    def judged(excess, g_start, slope=None):
        if slope is None:
            walks.append(g_start)
            return bracket(excess, g_start)
        try:
            rules[-1][2] = bracket(excess, g_start, slope)
        except _SEARCH_ERRORS as exc:
            rules[-1][2] = type(exc), str(exc)
            raise
        return rules[-1][2]

    monkeypatch.setattr(bounds_module, "_frozen_calogero_II", spied)
    monkeypatch.setattr(bounds_module, "_bracket_threshold", judged)
    result = search_outcome(
        lambda: upper_calogero_II_at(pot, ell, a, SEARCH_CFG, g_trial=g_trial))
    monkeypatch.undo()

    def adaptive(g):
        try:
            return _calogero_II_lhs(pot, ell, a, g, SEARCH_CFG) - 1.0
        except _SEARCH_ERRORS:
            return math.nan

    assert rules[0][0] == g_trial and len(rules) <= 2
    for k, (g_rule, sampled, outcome) in enumerate(rules):
        last = k == len(rules) - 1
        if outcome[0] is IntegrationError:   # a non-finite frozen sum
            assert last and len(walks) == 1
            continue
        decided = outcome if isinstance(outcome[0], float) else [list(sampled)[-1]]
        if all(adaptive(g) >= 0 if sampled[g] >= 0 else adaptive(g) < 0
               for g in decided):
            assert last and walks == []
            if outcome[0] is SearchRangeError:
                assert result == outcome
            else:
                assert result.value == outcome[1]
        elif last:
            assert len(walks) == 1
        else:
            assert rules[k + 1][0] == decided[-1]


def test_variational_overflowing_shape_raises_without_warning():
    # e^-x / x overflows at the subnormal nodes the trial density bisects to
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            upper_variational_at(YUK, 0, 0.01)


# ---------------------------------------------------------------------------
# freeze, then verify: bound searches with and without the panel-tree replay
# ---------------------------------------------------------------------------

REPLAY_SEARCHES = {
    "ggmt": lower_ggmt,
    "calogero_i": upper_calogero_I,
    "calogero_ii": upper_calogero_II,
    "variational": upper_variational,
}
REPLAY_SHAPES = {
    "exponential": EXP,
    "yukawa": YUK,
    "stis": Potential.stis(1.0),
    "shell": Potential.shell(0.1),
    "tabulated28": _bump_grid(28, 28),
}


def _without_replay(monkeypatch):
    """Swap the search's replay for a block that replays and records nothing."""
    monkeypatch.setattr(bounds_module, "replaying",
                        lambda trees: contextlib.nullcontext({}))


@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("shape", sorted(REPLAY_SHAPES))
@pytest.mark.parametrize("method", sorted(REPLAY_SEARCHES))
def test_bound_search_replay_is_bit_for_bit(monkeypatch, method, shape, ell):
    search, pot = REPLAY_SEARCHES[method], REPLAY_SHAPES[shape]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = search(pot, ell)
        _without_replay(monkeypatch)
        want = search(pot, ell)
    assert (got.value, got.optimal_param) == (want.value, want.optimal_param)


def test_replay_halves_the_integrand_calls_of_a_search(monkeypatch):
    panels = quadrature._panels
    calls = []

    def counted(f, spans):
        calls.append(len(spans))
        return panels(f, spans)

    monkeypatch.setattr(quadrature, "_panels", counted)
    got = upper_variational(EXP, 0)
    replayed = len(calls)
    calls.clear()
    _without_replay(monkeypatch)
    assert upper_variational(EXP, 0) == got
    assert 2 * replayed <= len(calls), (replayed, len(calls))


def _quadratic_bound(x, cfg):
    """An upper limit with its minimum 2 at x = 3, and one integral per trial."""
    integrate(lambda r: r * r, 0.0, 1.0, cfg)
    return BoundResult(Method.CALOGERO_I, Side.UPPER, 2.0 + math.log(x / 3.0) ** 2, 0,
                       optimal_param=x)


def test_the_replay_memory_is_set_only_within_a_search():
    seen = []

    def at(x, cfg):
        seen.append(quadrature._trees.get())
        return _quadratic_bound(x, cfg)

    assert quadrature._trees.get() is None
    res = bounds_module._optimize_bound(at, DEFAULT_CONFIG, 0.1, 10.0, 1e-9)
    assert math.isclose(res.optimal_param, 3.0, rel_tol=1e-5)
    assert None not in seen
    # each trial records its own trees and replays those of the trial before
    assert seen[1][0] is seen[0][1] and seen[2][0] is seen[1][1]
    assert quadrature._trees.get() is None

    def failing(after):
        def at(x, cfg):
            if len(seen) >= after:
                raise ZeroDivisionError("not a rejection")
            seen.append(None)
            return _quadratic_bound(x, cfg)
        return at

    for after in (0, 5, 42):   # the first trial, a later one, the final one
        seen.clear()
        with pytest.raises(ZeroDivisionError):
            bounds_module._optimize_bound(failing(after), DEFAULT_CONFIG, 0.1, 10.0, 1e-9)
        assert quadrature._trees.get() is None


def test_a_search_whose_every_trial_is_rejected_names_the_last_rejection():
    tried = []

    def at(x, cfg):
        tried.append(x)
        raise SearchRangeError(f"nothing at {x!r}")

    with pytest.raises(AccuracyError) as info:
        bounds_module._optimize_bound(at, DEFAULT_CONFIG, 0.1, 10.0, 1e-9)
    assert str(info.value) == ("every trial of the search was rejected, the last "
                               f"because nothing at {tried[-1]!r}")
    # a search that accepted a trial keeps the optimizer's own message
    with pytest.raises(AccuracyError, match="failed to bracket"):
        bounds_module._optimize_bound(
            lambda x, cfg: BoundResult(Method.CALOGERO_I, Side.UPPER, 1.0 / x, 0),
            DEFAULT_CONFIG, 0.1, 10.0, 1e-9)


def _spy_objective(monkeypatch):
    """Record (x, objective(x)) for every trial of the next searches."""
    scores = []
    real = bounds_module.minimize_scalar_log

    def spied(objective, lo, hi, **kwargs):
        def recorded(x):
            scores.append((x, objective(x)))
            return scores[-1][1]
        return real(recorded, lo, hi, **kwargs)

    monkeypatch.setattr(bounds_module, "minimize_scalar_log", spied)
    return scores


def test_a_trial_not_above_the_floor_is_rejected(monkeypatch):
    # a lower limit with its maximum 2 at x = 3; the floor 1 rejects every
    # trial with |log(x/3)| >= 1
    scores = _spy_objective(monkeypatch)
    floors = []

    def floor(cfg):
        floors.append(cfg)
        return 1.0

    def at(x, cfg):
        return BoundResult(Method.GGMT, Side.LOWER, 2.0 / (1.0 + math.log(x / 3.0) ** 2),
                           0, optimal_param=x)

    res = bounds_module._optimize_bound(at, DEFAULT_CONFIG, 0.1, 10.0, 1e-9, floor=floor)
    assert math.isclose(res.optimal_param, 3.0, rel_tol=1e-5)
    assert floors == [DEFAULT_CONFIG.loosened(1e-9, bounds_module._SEARCH_PANELS)]
    rejected = [x for x, score in scores if score == math.inf]
    assert rejected and len(rejected) < len(scores)
    for x, score in scores:
        value = at(x, None).value
        assert score == (math.inf if value <= 1.0 else -value), x


def test_a_search_with_every_trial_below_the_floor_names_the_floor(monkeypatch):
    scores = _spy_objective(monkeypatch)

    def at(x, cfg):
        return BoundResult(Method.GGMT, Side.LOWER, 0.5, 0, optimal_param=x)

    with pytest.raises(AccuracyError) as info:
        bounds_module._optimize_bound(at, DEFAULT_CONFIG, 0.1, 10.0, 1e-9,
                                      floor=lambda cfg: 0.5)
    assert str(info.value) == ("every trial of the search was rejected, the last "
                               "because bound 0.5 not above the floor 0.5")
    assert scores and all(score == math.inf for _, score in scores)


# an upper limit 2 + log(x / optimum)^2 whose trials in a region are rejected;
# _SAMPLE is the tenth of the 13 scan samples of [0.1, 10], so a region
# starting there leaves it the only rejected trial of the final bracket
_SAMPLE = math.exp(math.log(0.1) + (math.log(10.0) - math.log(0.1)) * 9 / 12)
_REJECTING_SEARCHES = {
    "nothing rejected": (3.0, lambda x: False, False),
    "rejected above the optimum": (1.5, lambda x: x >= 3.0, False),
    "rejected below the optimum": (2.0, lambda x: x <= 0.5, False),
    "optimum in a rejected region above": (6.0, lambda x: x >= 3.0, True),
    "optimum in a rejected region below": (0.2, lambda x: x <= 0.5, True),
    "optimum in a region rejected from a sample up": (6.0, lambda x: x >= _SAMPLE, True),
}


@pytest.mark.parametrize("case", sorted(_REJECTING_SEARCHES))
def test_an_optimum_beside_a_rejected_trial_raises(monkeypatch, case):
    optimum, rejects, raises = _REJECTING_SEARCHES[case]
    scores = _spy_objective(monkeypatch)
    spied, searches = bounds_module.minimize_scalar_log, []

    def search(*args, **kwargs):
        searches.append(spied(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(bounds_module, "minimize_scalar_log", search)

    def at(x, cfg):
        if rejects(x):
            raise SearchRangeError(f"nothing at {x!r}")
        return BoundResult(Method.CALOGERO_I, Side.UPPER,
                           2.0 + math.log(x / optimum) ** 2, 0, optimal_param=x)

    try:
        got = bounds_module._optimize_bound(at, DEFAULT_CONFIG, 0.1, 10.0, 1e-9)
    except AccuracyError as exc:
        got = str(exc)
    # the rule written out: the last rejected trial inside the final bracket
    (best,) = searches
    lo, hi = best.bracket
    assert lo <= best.x <= hi and math.log(hi / lo) <= 1e-6
    beside = [x for x, score in scores if score == math.inf and lo <= x <= hi]
    assert bool(beside) == raises
    assert any(score == math.inf for _, score in scores) == (case != "nothing rejected")
    if beside:
        assert got == (f"the optimum at {best.x!r} borders the trial at {beside[-1]!r}, "
                       f"which was rejected because nothing at {beside[-1]!r}")
    else:
        assert got == at(best.x, None)
        assert math.isclose(best.x, optimum, rel_tol=1e-6)


def test_sandwich_raises_when_a_lower_limit_passes_the_exact_value(monkeypatch):
    # METHODS looks the limit up at call time, so the patch reaches sandwich
    monkeypatch.setattr(bounds_module, "lower_bargmann_schwinger",
                        lambda pot, ell, cfg: BoundResult(
                            Method.BARGMANN_SCHWINGER, Side.LOWER, 3.0, ell))
    with pytest.raises(InvariantViolation) as info:
        sandwich(SW, 0)
    assert str(info.value).startswith(
        "bound ordering violated for square_well ell=0: max lower 3.0, exact 2.4674")
