import heapq
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcrit import bounds, quadrature
from gcrit.errors import (AccuracyError, ConfigurationError, DomainError,
                          IntegrationError)
from gcrit.potentials import Potential
from gcrit.quadrature import (FixedRule, QuadratureConfig, integrate,
                              integrate_semi_infinite, nested_double,
                              nested_triple)

CFG = QuadratureConfig()
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_config_rejects_non_finite_tolerances():
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            QuadratureConfig(rel_tol=bad)
        with pytest.raises(ConfigurationError):
            QuadratureConfig(abs_tol=bad)


# ---------------------------------------------------------------------------
# freeze, then verify: the batched engine against one integrand call per panel
# ---------------------------------------------------------------------------

def reference_panel(f, a, b):
    """One Gauss-Kronrod 15(7) panel from its own integrand call."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    x = center + half * quadrature._NODES
    fv = np.asarray(f(x), dtype=float)
    if fv.shape != (15,):
        fv = np.broadcast_to(fv, (15,)).astype(float)
    if not np.all(np.isfinite(fv)):
        raise IntegrationError(
            f"integrand returned a non-finite value in [{a!r}, {b!r}]")
    resk = half * float(quadrature._WK @ fv)
    resg = half * float(quadrature._WG @ fv)
    resabs = half * float(quadrature._WK @ np.abs(fv))
    mean = resk / (b - a)
    resasc = half * float(quadrature._WK @ np.abs(fv - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * quadrature._EPS * resabs)
    return resk, err


def reference_adaptive(f, a, b, cfg, points=()):
    """The adaptive engine with one integrand call per panel."""
    edges = quadrature._initial_edges(a, b, points)
    heap = []
    count = 0
    evals = 0
    total = 0.0
    toterr = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = reference_panel(f, lo, hi)
        evals += 15
        heapq.heappush(heap, (-err, count, lo, hi, val))
        count += 1
        total += val
        toterr += err
    while toterr > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if len(heap) >= cfg.max_subdivisions:
            raise AccuracyError(
                f"quadrature budget of {cfg.max_subdivisions} panels exhausted "
                f"(estimate {total!r}, error {toterr!r})",
                best_estimate=total, error_estimate=toterr)
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise AccuracyError(
                f"quadrature panel [{lo!r}, {hi!r}] is too narrow to halve "
                f"(estimate {total!r}, error {toterr!r})",
                best_estimate=total, error_estimate=toterr)
        total -= val
        toterr += neg_err
        for (p, q) in ((lo, mid), (mid, hi)):
            v, e = reference_panel(f, p, q)
            evals += 15
            heapq.heappush(heap, (-e, count, p, q, v))
            count += 1
            total += v
            toterr += e
    panels = sorted((lo, hi, val, -neg) for neg, _, lo, hi, val in heap)
    value = sum(p[2] for p in panels)
    error = sum(p[3] for p in panels)
    if error > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise AccuracyError(
            f"quadrature error over the final panels exceeds the tolerance "
            f"(estimate {value!r}, error {error!r})",
            best_estimate=value, error_estimate=error)
    return panels, value, error, evals


def reference_cumulative_call(self, x):
    """A cumulative-integral read with one product over all partial panels."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    xs = np.clip(xs, self.lo, self.hi)
    idx = np.searchsorted(self._lefts, xs, side="right") - 1
    idx = np.clip(idx, 0, len(self._lefts) - 1)
    out = self._prefix[idx].copy()
    starts = self._lefts[idx]
    widths = xs - starts
    live = widths > 0
    if np.any(live):
        centers = starts[live] + 0.5 * widths[live]
        halves = 0.5 * widths[live]
        nodes = centers[:, None] + halves[:, None] * quadrature._NODES[None, :]
        fv = np.asarray(self._w(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out[live] += halves * (fv @ quadrature._WK)
    return float(out[0]) if scalar else out


def reference_product_call(self, t, runs=None):
    return self.w(t) * self.inner(t)


def outcome(compute):
    """compute()'s value, or the type, message and estimates of its error."""
    try:
        return compute()
    except (AccuracyError, IntegrationError) as exc:
        return (type(exc), str(exc), getattr(exc, "best_estimate", None),
                getattr(exc, "error_estimate", None))


def batched_and_reference(compute):
    """outcome(compute) on the batched engine, then with the reference
    engine (one integrand call per panel) swapped in."""
    got = outcome(compute)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrature, "_adaptive", reference_adaptive)
        m.setattr(quadrature.CumulativeIntegral, "__call__", reference_cumulative_call)
        m.setattr(quadrature._Product, "__call__", reference_product_call)
        want = outcome(compute)
    return got, want


@pytest.fixture(scope="module")
def sweep_grid():
    """The benchmark's tabulated-grid generator, imported read-only."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as m:
        m.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
    return lambda knots, shape: Potential.tabulated(workloads.sweep_grid(knots, shape))


def _cases(sweep_grid):
    """(name, integrand, a, b, points): each integrand on its axis."""
    yukawa = Potential.yukawa()
    lo, hi, wrap, seeds = quadrature._axis(None, yukawa.breakpoints())
    cases = [
        ("polynomial", lambda x: x ** 3 - 2.0 * x + 1.0, 0.0, 2.0, (0.5, 1.3)),
        ("constant", lambda x: 2.5, 0.0, 3.0, (1.0,)),
        ("yukawa", wrap(lambda r: r * yukawa.evaluate(r)), lo, hi, seeds),
    ]
    for knots, shape in ((16, 0), (16, 6), (64, 1), (64, 3)):
        pot = sweep_grid(knots, shape)
        cases.append((f"grid{knots}/{shape}", lambda r, pot=pot: r * pot.evaluate(r),
                      0.0, pot.cutoff, pot.breakpoints()))
    return cases


def test_batched_adaptive_matches_reference(sweep_grid):
    for name, f, a, b, points in _cases(sweep_grid):
        got = quadrature._adaptive(f, a, b, CFG, points)
        want = reference_adaptive(f, a, b, CFG, points)
        assert got == want, name


def test_batched_integrals_match_reference(sweep_grid):
    for name, f, a, b, points in _cases(sweep_grid):
        got, want = batched_and_reference(lambda: integrate(f, a, b, CFG, points))
        assert got == want, name
        got, want = batched_and_reference(lambda: FixedRule(f, CFG, b, points))
        assert got.total == want.total, name
        assert np.array_equal(got.nodes, want.nodes), name
        assert np.array_equal(got.weights, want.weights), name
    for pot in (Potential.yukawa(), Potential.exponential()):
        f = lambda r: r * pot.evaluate(r)
        got, want = batched_and_reference(
            lambda: integrate_semi_infinite(f, 0.0, CFG, points=pot.breakpoints()))
        assert got == want
        got, want = batched_and_reference(
            lambda: FixedRule(f, CFG, points=pot.breakpoints()))
        assert got.total == want.total
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.weights, want.weights)


def test_batched_nested_integrals_match_reference(sweep_grid):
    e = lambda x: np.exp(-x)
    got, want = batched_and_reference(lambda: nested_double(e, lambda y: y * e(y), CFG))
    assert got == want
    got, want = batched_and_reference(lambda: nested_triple(e, e, e, CFG))
    assert got == want
    # a triple whose innermost reads move by one ulp unless each is summed
    # in one product per outer panel, as one call per panel summed them
    got, want = batched_and_reference(lambda: nested_triple(
        lambda x: np.exp(-2.3437682124459513 * x) * x ** 0.9037738059951288,
        lambda y: np.exp(-1.3872299458750215 * y) * np.sqrt(y),
        lambda z: np.exp(-0.3428160781763829 * z) * (1.0 + z * z),
        CFG, upper=3.832222234210461))
    assert got == want
    for pot in (sweep_grid(16, 0), sweep_grid(64, 1), Potential.yukawa()):
        for ell in range(4):
            for bound in (bounds.lower_second_order, bounds.lower_third_order):
                got, want = batched_and_reference(lambda: bound(pot, ell).value)
                assert got == want, (pot.label, ell, bound.__name__)


@pytest.mark.parametrize("shape", ["yukawa", "grid16/6"])
def test_batched_variational_form_matches_reference(sweep_grid, shape):
    # both shapes hold a value that one product over every partial panel of
    # a batch would move by one ulp
    pot = Potential.yukawa() if shape == "yukawa" else sweep_grid(16, 6)
    for ell in range(4):
        for p in (0.3, 1.0, 2.7):
            got, want = batched_and_reference(
                lambda: bounds.upper_variational_at(pot, ell, p).value)
            assert got == want, (ell, p)


def test_nonfinite_panel_error_matches_reference():
    # two bad initial panels, [0.3, 0.4] and [0.6, 0.7]: the first is named
    bad = lambda x: np.where(((x > 0.3) & (x < 0.4)) | ((x > 0.6) & (x < 0.7)),
                             np.nan, 1.0)
    points = [k / 10 for k in range(1, 10)]
    got, want = batched_and_reference(lambda: integrate(bad, 0.0, 1.0, CFG, points))
    assert got == want
    assert got[0] is IntegrationError and "[0.3, 0.4]" in got[1]
    # finite on [0, 1] and on [0.5, 1], but NaN at the centres of both
    # children of [0, 0.5]: the left child is named
    singular = lambda x: np.where((x == 0.125) | (x == 0.375), np.nan, x ** -0.5)
    got, want = batched_and_reference(lambda: integrate(singular, 0.0, 1.0, CFG))
    assert got == want
    assert got[0] is IntegrationError and "[0.0, 0.25]" in got[1]


def test_budget_exhaustion_matches_reference():
    tiny = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=40)
    got, want = batched_and_reference(lambda: integrate(lambda x: x ** -0.95, 0.0, 1.0, tiny))
    assert got == want
    assert got[0] is AccuracyError


def test_one_integrand_call_per_refinement_step(sweep_grid):
    pot = sweep_grid(64, 1)
    calls = []

    def counted(r):
        calls.append(r.size)
        return pot.evaluate(r) ** 0.3  # a trial weight: the grid's kinks split

    res = integrate(counted, 0.0, pot.cutoff, CFG, points=pot.breakpoints())
    initial = len(quadrature._initial_edges(0.0, pot.cutoff, pot.breakpoints())) - 1
    assert initial == 64  # one per gap between the 63 knots inside the support
    assert res.evaluations > 15 * initial
    assert len(calls) <= 1 + (res.evaluations // 15 - initial) // 2
    assert calls[0] == 15 * initial
    assert all(n % 30 == 0 for n in calls[1:])
    want = reference_adaptive(counted, 0.0, pot.cutoff, CFG, pot.breakpoints())
    assert res.evaluations == want[3]


def test_cumulative_read_calls_its_weight_once():
    calls = {"w2": 0, "w3": 0}

    def weight(name, f):
        def w(x):
            calls[name] += 1
            return f(x)
        return w

    inner = quadrature.CumulativeIntegral(weight("w3", lambda z: z * z), 0.0, 1.0, CFG)
    middle = quadrature.CumulativeIntegral(
        quadrature._Product(weight("w2", np.sqrt), inner), 0.0, 1.0, CFG)
    x = np.linspace(0.0, 1.0, 15 * 7)
    for runs in (None, [15] * 7):
        calls.update(w2=0, w3=0)
        middle(x, runs=runs)
        assert calls == {"w2": 1, "w3": 1}



# ---------------------------------------------------------------------------
# freeze, then verify: evaluating ahead along a chain of splits
# ---------------------------------------------------------------------------

def counting(f):
    """f wrapped to record the size of each call, and that record."""
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return f(x)
    return counted, calls


def _budget(n):
    return QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=n)


# (budget, compute(f), f): integrals that bisect towards one end until they
# fail, after about one split per panel of the budget
CHAINS = {
    "x^-0.95/40": (40, lambda f: integrate(f, 0.0, 1.0, _budget(40)),
                   lambda x: x ** -0.95),
    "x^-0.95/600": (600, lambda f: integrate(f, 0.0, 1.0, _budget(600)),
                    lambda x: x ** -0.95),
    # (1 - t)^-0.95 on the mapped axis; a node rounds to t = 1 (x = inf)
    "semi-infinite/600": (600, lambda f: integrate_semi_infinite(
        f, 0.0, QuadratureConfig(max_subdivisions=600)), lambda x: (1.0 + x) ** -1.05),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_takes_logarithmically_many_calls(name):
    budget, compute, f = CHAINS[name]
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = batched_and_reference(lambda: compute(f))
        counted, calls = counting(f)
        outcome(lambda: compute(counted))
    assert got == want
    assert got[0] in (AccuracyError, IntegrationError)
    # one call per split took 40, 600 and 48 calls
    assert len(calls) <= math.ceil(math.log2(budget)) + 2, calls


def test_nonfinite_value_past_a_converged_chain_is_never_used():
    # x^-0.5 converges after bisecting towards 0, and the last look-ahead
    # reaches deeper than that; the integrand is NaN only there
    lowest = []

    def probe(x):
        lowest.append(x.min())
        return x ** -0.5

    want = reference_adaptive(probe, 0.0, 1.0, CFG)
    floor = min(lowest)
    nan_nodes = []

    def bad(x):
        nan_nodes.append(np.count_nonzero(x < floor))
        return np.where(x < floor, np.nan, x ** -0.5)

    assert quadrature._adaptive(bad, 0.0, 1.0, CFG) == want
    got, want = batched_and_reference(lambda: integrate(bad, 0.0, 1.0, CFG))
    assert got == want
    assert isinstance(got, quadrature.IntegralResult)
    assert sum(nan_nodes) > 0  # the look-ahead did evaluate there


def test_alternating_chains_evaluate_ahead():
    # |x - 0.3|^-0.5 seeded at 0.3: the chains towards 0.3 from either side
    # take turns until a node rounds to 0.3; one call per split took 91 calls
    f = lambda x: np.abs(x - 0.3) ** -0.5
    counted, calls = counting(f)
    with np.errstate(divide="ignore"):
        got, want = batched_and_reference(
            lambda: integrate(f, 0.0, 1.0, CFG, points=(0.3,)))
        outcome(lambda: integrate(counted, 0.0, 1.0, CFG, points=(0.3,)))
    assert got == want
    assert got[0] is IntegrationError
    assert len(calls) < 91


@pytest.mark.parametrize("shape, ell", [("exponential", 3), ("yukawa", 0)])
def test_lookahead_variational_trials_match_reference(shape, ell):
    # the first trial powers of the variational search, whose densities
    # r^(2p-1) v^p bisect towards the origin, some until the budget runs out
    pot = getattr(Potential, shape)()
    for p in (0.01, 0.0215, 0.046, 0.1):
        with np.errstate(over="ignore"):  # e^-x / x at the smallest nodes
            got, want = batched_and_reference(
                lambda: bounds.upper_variational_at(pot, ell, p).value)
        assert got == want, p
    f = lambda x: x ** -0.5
    assert quadrature._adaptive(f, 0.0, 1.0, CFG) == reference_adaptive(f, 0.0, 1.0, CFG)


# ---------------------------------------------------------------------------
# freeze, then verify: a lockstep pass against one integrate call per member
# ---------------------------------------------------------------------------

def family(fs, calls=None):
    """The lockstep integrand f(x, k) of the integrands fs; `calls` records
    the size of each call."""
    def f(x, k):
        if calls is not None:
            calls.append(x.size)
        out = np.empty_like(x)
        for j, fj in enumerate(fs):
            sel = k == j
            if sel.any():
                out[sel] = fj(x[sel])
        return out
    return f


def lockstep_outcomes(fs, cfg, upper, points=()):
    """outcome() of each member of one lockstep pass over fs."""
    def unpack(res):
        return outcome(lambda: _raise(res) if isinstance(res, Exception) else res)
    return [unpack(res) for res in quadrature.lockstep(family(fs), len(fs), cfg,
                                                       upper=upper, points=points)]


def _raise(exc):
    raise exc


def own_outcomes(fs, cfg, upper, points=()):
    """outcome() of the integrate call of each integrand of fs on its own."""
    if upper is None:
        return [outcome(lambda: integrate_semi_infinite(f, 0.0, cfg, points=points))
                for f in fs]
    return [outcome(lambda: integrate(f, 0.0, upper, cfg, points)) for f in fs]


def _variants(f):
    """f and integrands built on it that converge after different numbers
    of rounds, one of them bisecting towards the origin."""
    return [f, lambda x: 3.7 * f(x), lambda x: f(x) * x ** -0.5,
            lambda x: f(x) * np.exp(-4.0 * x), lambda x: f(x) * np.sqrt(x)]


def test_lockstep_members_match_their_own_integrate(sweep_grid):
    for name, f, a, b, points in _cases(sweep_grid):
        if name == "yukawa":
            continue   # on its mapped axis; the semi-infinite case is below
        assert a == 0.0
        fs = _variants(f)
        assert lockstep_outcomes(fs, CFG, b, points) == own_outcomes(fs, CFG, b, points), name
    for pot in (Potential.yukawa(), Potential.exponential()):
        fs = _variants(lambda r, pot=pot: r * pot.evaluate(r))
        points = pot.breakpoints()
        assert lockstep_outcomes(fs, CFG, None, points) == own_outcomes(fs, CFG, None, points)


def test_lockstep_keeps_each_members_errors():
    # one pass whose members converge, exhaust the budget, meet a NaN at
    # once or after several rounds, and bisect towards an edge until a node
    # rounds onto it
    tiny = _budget(40)
    fs = [lambda x: x * x,
          lambda x: x ** -0.95,
          lambda x: x ** -0.5,
          lambda x: np.where(x > 0.9, np.nan, x),
          lambda x: np.where(x < 1e-6, np.nan, x ** -0.5),
          lambda x: np.abs(x - 0.3) ** -0.5]
    kinds = set()
    with np.errstate(divide="ignore", invalid="ignore"):
        for cfg in (CFG, tiny):
            got = lockstep_outcomes(fs, cfg, 1.0, (0.3,))
            want = own_outcomes(fs, cfg, 1.0, (0.3,))
            assert got == want
            kinds.update(w[0] if isinstance(w, tuple) else type(w) for w in want)
    assert kinds == {quadrature.IntegralResult, AccuracyError, IntegrationError}


def test_lockstep_calls_its_integrand_once_per_round(sweep_grid):
    pot = sweep_grid(64, 1)
    fs = [lambda r, p=p: pot.evaluate(r) ** p for p in (0.3, 1.0, 2.0)]
    fs.append(lambda r: r ** -0.5 * pot.evaluate(r))
    own = []
    for f in fs:
        counted, calls = counting(f)
        integrate(counted, 0.0, pot.cutoff, CFG, pot.breakpoints())
        own.append(len(calls))
    calls = []
    quadrature.lockstep(family(fs, calls), len(fs), CFG, upper=pot.cutoff,
                        points=pot.breakpoints())
    # the pass lasts as long as its slowest member, one call per round
    assert len(calls) == max(own) > min(own)
    assert calls[0] == len(fs) * 15 * 64   # every member's initial panels


# ---------------------------------------------------------------------------
# freeze, then verify: a replayed panel tree against no replay
# ---------------------------------------------------------------------------

AXIS = (0.0, 1.0)
TINY = 2.0 ** -30   # below it the "non-finite" integrands are NaN


def _smooth(x):
    return np.exp(-3.0 * x) * np.cos(5.0 * x)


def _towards_origin(x):
    return x ** -0.5 * np.exp(-x)


def _nan_near_origin(f):
    return lambda x: np.where(x < TINY, np.nan, f(x))


def _rule(f, cfg):
    """A semi-infinite FixedRule whose integrand on the mapped axis is f."""
    rule = FixedRule(lambda r: f(r / (1.0 + r)) / (1.0 + r) ** 2, cfg)
    return rule.total, rule.nodes.tolist(), rule.weights.tolist()


#: computations on the axis (0, 1), each of one integrand f under a config
REPLAYED = {
    "integrate": lambda f, cfg: (integrate(f, 0.0, 1.0, cfg),
                                 quadrature._adaptive(f, 0.0, 1.0, cfg, (0.3,))),
    "nested_double": lambda f, cfg: nested_double(f, f, cfg, upper=1.0),
    "FixedRule": _rule,
}

#: a tree on AXIS whose spans go down to widths far below TINY
CHAIN_TREE = [span for k in range(1, 60) for span in ((0.0, 2.0 ** -k), (2.0 ** -k, 2.0 ** (1 - k)))]


def _priming(kind, compute):
    """(integrand, config, trees to replay) for each kind of memory: the
    integrand's own trees; trees of an unrelated integrand on the same axis;
    a tree with panels where the integrand is NaN, which the refinement
    never uses; an integrand that exhausts its budget, primed with its trees
    at a larger budget."""
    if kind == "nonfinite":
        return _nan_near_origin(_smooth), CFG, {AXIS: [CHAIN_TREE] * 3}
    f, cfg, source = {"same": (_smooth, CFG, _smooth),
                      "unrelated": (_smooth, CFG, _towards_origin),
                      "budget": (lambda x: x ** -0.95, _budget(40), lambda x: x ** -0.95)}[kind]
    with quadrature.replaying({}) as trees:
        outcome(lambda: compute(source, CFG))
    return f, cfg, trees


def replayed(compute, trees):
    """outcome(compute) within `quadrature.replaying(trees)`."""
    with quadrature.replaying(trees):
        return outcome(compute)


@pytest.mark.parametrize("kind", ["same", "unrelated", "nonfinite", "budget"])
@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_a_replayed_tree_changes_no_result(name, kind):
    compute = REPLAYED[name]
    f, cfg, trees = _priming(kind, compute)
    assert trees and all(trees.values())
    counted, calls = counting(f)
    want = outcome(lambda: compute(counted, cfg))
    plain = len(calls)
    calls.clear()
    got = replayed(lambda: compute(counted, cfg), trees)
    assert got == want
    if kind == "budget":
        assert got[0] is AccuracyError
    if kind == "same":   # the replay pays: fewer integrand calls
        assert len(calls) < plain, (len(calls), plain)


def test_nonfinite_panels_of_a_replayed_tree_are_evaluated():
    nan_nodes = []

    def f(x):
        nan_nodes.append(np.count_nonzero(x < TINY))
        return _nan_near_origin(_smooth)(x)

    got = replayed(lambda: quadrature._adaptive(f, 0.0, 1.0, CFG), {AXIS: [CHAIN_TREE]})
    assert sum(nan_nodes) > 0
    assert got == quadrature._adaptive(_smooth, 0.0, 1.0, CFG)


@pytest.mark.parametrize("kind", ["same", "unrelated", "nonfinite", "budget"])
def test_lockstep_replays_the_latest_tree_of_its_block(kind):
    def members(f):
        return [f, lambda x: 2.5 * f(x), lambda x: f(x) * np.sqrt(x)]

    def compute(f, cfg):
        return [outcome(lambda: _raise(r) if isinstance(r, Exception) else r)
                for r in quadrature.lockstep(family(members(f)), 3, cfg, upper=1.0)]

    f, cfg, trees = _priming(kind, lambda f, cfg: quadrature._adaptive(f, 0.0, 1.0, cfg))
    calls = []
    want = compute(f, cfg)
    with quadrature.replaying({}) as latest:
        latest[AXIS] = [trees[AXIS][-1]]   # as if a rule had just been built
        calls_before = len(calls)
        got = [outcome(lambda: _raise(r) if isinstance(r, Exception) else r)
               for r in quadrature.lockstep(family(members(f), calls), 3, cfg, upper=1.0)]
    assert got == want
    if kind == "same":
        plain = []
        quadrature.lockstep(family(members(f), plain), 3, cfg, upper=1.0)
        assert len(calls) - calls_before < len(plain)
    if kind == "budget":
        assert all(g[0] is AccuracyError for g in got[:2])


# ---------------------------------------------------------------------------
# one stopping rule: a result is returned only within its tolerance
# ---------------------------------------------------------------------------

def _capped(x):
    """|x - 1/3|^-0.9 capped at 1e300: integral 18.5622... over [0, 1]."""
    with np.errstate(divide="ignore"):
        return np.minimum(np.abs(x - 1 / 3) ** -0.9, 1e300)


def _point_mass(x):
    return np.where(x == 1.0, 1.0, 0.0)


#: two rounding widths above 1; a point mass at 1 over (1, _TWO_ULPS)
_TWO_ULPS = 1.0 + 2 * 2.0 ** -52


def test_running_sums_that_cancel_do_not_return_a_result():
    # the panel at the cap carries an error near 1e300 times its width; once
    # it is split, the running error sum holds only rounding and ends the
    # loop, while the errors of the final panels sum to 0.07
    got, want = batched_and_reference(lambda: integrate(_capped, 0.0, 1.0, CFG))
    assert got == want
    kind, message, estimate, error = got
    assert kind is AccuracyError
    assert message.startswith("quadrature error over the final panels exceeds the "
                              "tolerance (estimate ")
    assert math.isclose(estimate, 18.1378, rel_tol=1e-5)
    assert math.isclose(error, 0.0707, rel_tol=1e-3)
    assert error > CFG.rel_tol * abs(estimate)


def test_a_panel_too_narrow_to_halve_raises():
    # both halves of (1, 1 + 2 ulp) are one rounding width wide; the point
    # mass keeps their errors above the tolerance
    cfg = QuadratureConfig(abs_tol=1e-300)
    got, want = batched_and_reference(lambda: integrate(_point_mass, 1.0, _TWO_ULPS, cfg))
    assert got == want
    kind, message, estimate, error = got
    assert kind is AccuracyError
    assert message.startswith(
        "quadrature panel [1.0, 1.0000000000000002] is too narrow to halve (estimate ")
    assert error > max(cfg.abs_tol, cfg.rel_tol * abs(estimate))


def test_lockstep_members_stop_short_as_their_own_integrate():
    fs = [lambda x: x * x, _capped, lambda x: x ** -0.5]
    assert lockstep_outcomes(fs, CFG, 1.0) == own_outcomes(fs, CFG, 1.0)
    assert lockstep_outcomes(fs, CFG, 1.0)[1][0] is AccuracyError


def test_nodes_stay_off_an_end_at_zero_only():
    # floats are dense near 0, so the bisection towards it converges
    res = integrate(lambda x: x ** -0.5, 0.0, 1.0, CFG)
    assert math.isclose(res.value, 2.0, rel_tol=1e-10)
    assert res.error_estimate <= CFG.rel_tol * res.value
    # near 1 a panel 64 ulps wide puts its outermost node on the end
    with np.errstate(divide="ignore"):
        got, want = batched_and_reference(
            lambda: integrate(lambda x: (x - 1.0) ** -0.5, 1.0, 2.0, CFG))
    assert got == want
    assert got[:2] == (IntegrationError, "integrand returned a non-finite value "
                       "in [1.0, 1.0000000000000142]")


def test_error_estimates_are_python_floats():
    # a constant integrand: the rounding floor 50 eps |f| is every panel's error
    res = integrate(lambda x: np.full_like(x, 3.0), 0.0, 1.0, CFG)
    assert res.error_estimate > 0.0
    assert type(res.error_estimate) is float
    got = outcome(lambda: integrate(lambda x: np.full_like(x, 3.0), 0.0, 1.0,
                                    QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300,
                                                     max_subdivisions=1)))
    assert got[0] is AccuracyError and "np.float64" not in got[1]
    assert type(got[3]) is float


# the exit code of each method on a grid of magnitude 1e300: one integrand,
# product or sum of the engine overflows, and so does Nystrom's power iteration
_HUGE_GRID_EXITS = {"second_order": 3, "third_order": 3, "ggmt": 0,
                    "variational": 3, "nystrom": 3}


@pytest.mark.parametrize("method", list(_HUGE_GRID_EXITS))
def test_an_overflow_prints_no_warning(tmp_path, method):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.5,1e300\n1.0,1e300\n2.0,0\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gcrit.cli", "compute", "--potential", "tabulated",
         "--grid-csv", str(grid), "--methods", method],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == _HUGE_GRID_EXITS[method]
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
