"""Lower and upper limits on the critical coupling constant.

Every operation takes a unit-strength shape v and a partial wave l and
returns a dimensionless bound on the smallest strength g at which
V = -g v(r) first binds an l-wave state.  Lower limits come from necessary
conditions for binding (moment inequalities of first, second and third
order, and a one-parameter family with an optimized power p >= 1); upper
limits come from sufficient conditions (two classical matching-radius
criteria and a variational bound built on the trial density
f(r)^2 ~ r^(2p-1) v(r)^p, minimized over p > 0).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import quadrature
from .errors import (AccuracyError, DomainError, IntegrationError,
                     InvariantViolation, SearchRangeError)
from .exact import critical_coupling_nystrom, critical_coupling_shooting
from .optimize import bisect, bracket, brentq, minimize_scalar_log
from .potentials import AngularMomentum, Kind, Potential
from .quadrature import (DEFAULT_CONFIG, FixedRule, QuadratureConfig, integrate,
                         lockstep, nested_double, nested_triple, replaying)


class Method(str, Enum):
    BARGMANN_SCHWINGER = "bargmann_schwinger"
    SECOND_ORDER = "second_order"
    THIRD_ORDER = "third_order"
    GGMT = "ggmt"
    CALOGERO_I = "calogero_i"
    CALOGERO_II = "calogero_ii"
    VARIATIONAL = "variational"
    VARIATIONAL_CLOSED_FORM = "variational_closed_form"
    SHOOTING = "shooting"
    NYSTROM = "nystrom"


class Side(str, Enum):
    LOWER = "lower"
    UPPER = "upper"
    EXACT = "exact"   # a solver's value of the critical coupling itself


@dataclass(frozen=True)
class BoundResult:
    method: Method
    side: Side
    value: float
    ell: int
    optimal_param: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise AccuracyError(
                f"{self.method.value} produced a non-positive bound {self.value!r}")


# Bound values are ratios of shape integrals whose magnitudes can legitimately
# be far below any fixed absolute tolerance (strong powers of the shape), so
# the defining integrals are resolved in relative terms: the absolute floor is
# dropped to just above the underflow limit and only silences integrals that
# are exactly zero.
_ABS_FLOOR = 1e-280


def _rel_cfg(cfg: QuadratureConfig) -> QuadratureConfig:
    if cfg.abs_tol <= _ABS_FLOOR:
        return cfg
    return replace(cfg, abs_tol=_ABS_FLOOR)


def _positive(value: float, what: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise AccuracyError(f"{what} evaluated to {value!r}")
    return value


_SEARCH_PANELS = 600  # panel budget of each trial during a parameter search


def _optimize_bound(at, cfg: QuadratureConfig, lo: float, hi: float,
                    rel_tol: float, hard_edges: bool = False,
                    floor=None) -> BoundResult:
    """The strongest bound at(x, cfg) over x in [lo, hi]: the largest lower
    limit or the smallest upper one.

    The search runs on a log axis with every trial at a loosened copy of
    cfg (rel_tol, at most _SEARCH_PANELS panels).  A trial that exhausts a
    budget or range, meets a vanishing integral or an overflowing integrand,
    or whose value is not above floor(search config), scores as infinitely
    bad; when the search cannot bracket a minimum because every trial did,
    the AccuracyError names the last rejection.  A rejected trial inside
    the search's final bracket means the optimum may be the edge of a
    rejected region rather than a minimum, so it raises AccuracyError too,
    naming that trial and why it was rejected.  The bound is then
    recomputed at the optimum with cfg itself.

    Each trial, and the final one, replays the panel trees of the trial
    before it (`quadrature.replaying`), which changes no bit of any result.
    """
    search_cfg = cfg.loosened(rel_tol=rel_tol, max_subdivisions=_SEARCH_PANELS)
    low = 0.0 if floor is None else floor(search_cfg)
    trees = {}
    accepted = False
    rejected = []   # (x, why it was rejected) of every rejected trial, in order

    def trial(x, c):
        nonlocal trees
        with replaying(trees) as trees:
            return at(x, c)

    def objective(x):
        nonlocal accepted
        try:
            res = trial(x, search_cfg)
        except (AccuracyError, IntegrationError, SearchRangeError) as exc:
            rejected.append((x, str(exc)))   # exc's traceback would hold this frame
            return math.inf
        if not res.value > low:
            rejected.append((x, f"bound {res.value!r} not above the floor {low!r}"))
            return math.inf
        accepted = True
        return -res.value if res.side is Side.LOWER else res.value

    try:
        best = minimize_scalar_log(objective, lo, hi, hard_edges=hard_edges)
    except AccuracyError as exc:
        if accepted:
            raise
        raise AccuracyError(f"every trial of the search was rejected, the last "
                            f"because {rejected[-1][1]}") from exc
    x_lo, x_hi = best.bracket
    for x, why in reversed(rejected):
        if x_lo <= x <= x_hi:
            raise AccuracyError(f"the optimum at {best.x!r} borders the trial at "
                                f"{x!r}, which was rejected because {why}")
    return trial(best.x, cfg)


# ---------------------------------------------------------------------------
# lower limits
# ---------------------------------------------------------------------------

def lower_bargmann_schwinger(pot: Potential, ell: int,
                             cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """First-moment necessary condition: g >= (2l+1) / integral of r v(r)."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    moment = _positive(pot.support_integral(lambda r: r * pot.evaluate(r), _rel_cfg(cfg)),
                       "first moment of the shape")
    return BoundResult(Method.BARGMANN_SCHWINGER, Side.LOWER,
                       (2 * ell + 1) / moment, ell)


def lower_second_order(pot: Potential, ell: int,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Second-order nested-moment necessary condition."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    raw = nested_double(
        lambda x: x ** (-2.0 * ell) * pot.evaluate(x),
        lambda y: y ** (2.0 * ell + 2.0) * pot.evaluate(y),
        _rel_cfg(cfg), **pot.support)
    d2 = _positive(2.0 / (2 * ell + 1) ** 2 * raw, "second-order moment")
    return BoundResult(Method.SECOND_ORDER, Side.LOWER, d2 ** -0.5, ell)


def lower_third_order(pot: Potential, ell: int,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Third-order nested-moment necessary condition."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    raw = nested_triple(
        lambda x: x ** (-2.0 * ell) * pot.evaluate(x),
        lambda y: y * pot.evaluate(y),
        lambda z: z ** (2.0 * ell + 2.0) * pot.evaluate(z),
        _rel_cfg(cfg), **pot.support)
    d3 = _positive(6.0 / (2 * ell + 1) ** 3 * raw, "third-order moment")
    return BoundResult(Method.THIRD_ORDER, Side.LOWER, d3 ** (-1.0 / 3.0), ell)


def _ggmt_log_constant(p: float, ell: int) -> float:
    """log of (p-1)^(p-1) Gamma(2p) / ((2l+1)^(2p-1) p^p Gamma(p)^2).

    The factor (p-1)^(p-1) tends to 1 as p -> 1, handled explicitly so the
    p = 1 member reduces exactly to the first-moment condition.
    """
    edge = 0.0 if p <= 1.0 + 1e-14 else (p - 1.0) * math.log(p - 1.0)
    return (edge + math.lgamma(2.0 * p) - (2.0 * p - 1.0) * math.log(2 * ell + 1)
            - p * math.log(p) - 2.0 * math.lgamma(p))


GGMT_P_MAX = 50.0  # beyond this (r^2 v)^p underflows before it informs


def lower_ggmt_at(pot: Potential, ell: int, p: float,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Power-family necessary condition at fixed exponent p >= 1."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    if not p >= 1.0:
        raise DomainError("the power-family condition requires p >= 1")
    if p == math.inf:
        raise DomainError("the power-family exponent p must be finite")

    def integrand(r):
        # overflows at large p on a tall shape; quadrature rejects the inf
        return (r * r * pot.evaluate(r)) ** p / r

    moment = _positive(pot.support_integral(integrand, _rel_cfg(cfg)),
                       f"power moment at p={p}")
    value = math.exp(-(_ggmt_log_constant(p, ell) + math.log(moment)) / p)
    return BoundResult(Method.GGMT, Side.LOWER, value, ell, optimal_param=p)


def lower_ggmt(pot: Potential, ell: int,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Strongest member of the power family over p in [1, GGMT_P_MAX]."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    return _optimize_bound(lambda p, c: lower_ggmt_at(pot, ell, p, c), cfg,
                           1.0, GGMT_P_MAX, 1e-9, hard_edges=True)


# ---------------------------------------------------------------------------
# upper limits
# ---------------------------------------------------------------------------

def upper_calogero_I_at(pot: Potential, ell: int, a: float,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Matching-radius sufficient condition at fixed radius a."""
    ell = AngularMomentum(ell).ell
    if not a > 0:
        raise DomainError("matching radius a must be positive")
    if a == math.inf:
        raise DomainError("matching radius a must be finite")
    unit, x = pot.unit, a / pot.scale
    k = 2 * ell + 1

    def inner(r):
        return r * unit.evaluate(r) * (r / x) ** k

    def outer(r):
        return r * unit.evaluate(r) * (x / r) ** k

    rcfg, cut, points = _rel_cfg(cfg), unit.cutoff, unit.breakpoints()
    total = integrate(inner, 0.0, x if cut is None else min(x, cut), rcfg,
                      points=points).value
    if cut is None or x < cut:
        total += integrate(outer, x, cut, rcfg, points=points).value
    total = _positive(total, "matching-radius functional")
    return BoundResult(Method.CALOGERO_I, Side.UPPER, k / total, ell,
                       optimal_param=a)


def upper_calogero_I(pot: Potential, ell: int,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Best matching radius for the first sufficient condition."""
    unit, ell = pot.unit, AngularMomentum(ell).ell
    best = _optimize_bound(lambda a, c: upper_calogero_I_at(unit, ell, a, c), cfg,
                           1e-2, 1e2, 1e-9)
    return replace(best, optimal_param=best.optimal_param * pot.scale)


def _calogero_II_factors(pot: Potential, ell: int, a: float, r):
    """v(r) and t = (r/a)^(2l), the g-independent parts of the integrand.
    The caller sets the floating-point error state (see
    `upper_calogero_II_at`)."""
    return pot.evaluate(r), (r / a) ** (2 * ell)


def _calogero_II_terms(v, t, a: float, g: float):
    """Integrand g v t / (t^2 + a^2 g v) of the nonlinear condition.

    Finite for every r > 0 where t^2 does not overflow, including shapes
    unbounded at the origin.
    """
    den = t * t + a * a * g * v
    return np.where(den > 0, g * v * t / den, 0.0)


def _calogero_II_integrand(pot: Potential, ell: int, a: float, g: float):
    def integrand(r):
        return _calogero_II_terms(*_calogero_II_factors(pot, ell, a, r), a, g)

    return integrand


G_SEARCH_RANGE = (1e-6, 1e6)


def _bracket_threshold(excess, g_start: float, slope=None) -> tuple[float, float]:
    """Smallest g with excess(g) >= 0 for an excess increasing in g, as (lo,
    hi) with excess(lo) < 0 <= excess(hi): a bracket widened by factors of 4
    from g_start in G_SEARCH_RANGE, then bisected to 1e-12 relative.

    slope(g), if given, returns excess'(g) and a bound on the rounding error
    of excess(g).  `brentq` then finds a root r of excess in the bracket to
    1e-13 relative, and the bisection runs on a stand-in that evaluates
    excess only within r +- (1e-13 r + 2 rounding / slope), Brent's
    tolerance plus twice the rounding zone, and returns g - r elsewhere, so
    it halves the bracket exactly as on excess itself, for a few
    evaluations instead of about 40.  If brentq fails, the slope at r is
    not positive, or the leaf the stand-in yields is not a sign change of
    excess, plain bisection decides.
    """
    g_lo, g_hi = G_SEARCH_RANGE
    lo, hi = bracket(excess, g_start, 4.0, 4.0, g_lo, g_hi)
    if lo is None:
        raise SearchRangeError(f"sufficient condition already holds at g = {g_lo:g}")
    if hi is None:
        raise SearchRangeError(f"sufficient condition never reached 1 below g = {g_hi:g}")
    if slope is not None:
        try:
            r = brentq(excess, lo, hi, xtol=5e-324, rtol=1e-13)
            d, noise = slope(r)
        except AccuracyError:
            d = math.nan
        if d > 0:
            band = 1e-13 * r + 2 * noise / d
            leaf = bisect(lambda g: excess(g) if abs(g - r) <= band else g - r, lo, hi, 1e-12)
            if excess(leaf[0]) < 0 <= excess(leaf[1]):
                return leaf
    # plain bisection: the left side is monotone in g, so this cannot fail
    return bisect(excess, lo, hi, 1e-12)


def _frozen_calogero_II(unit: Potential, ell: int, x: float, rule: FixedRule,
                        g_rule: float, f_rule: float):
    """(excess, slope, sampled) of the nonlinear condition on a frozen rule,
    for `_bracket_threshold`.

    excess(g) = x * rule.integral(integrand at g) - 1, except f_rule, the
    adaptive excess, at the rule's own strength g_rule; a value that is not
    finite raises IntegrationError.  sampled holds each value by strength,
    in the order first asked, and answers a repeated strength.  slope(g),
    which sizes the search's band around its root, is x *
    rule.integral((v t/den)(t^2/den)) with den = t^2 + x^2 g v, the
    derivative in g, and the rounding bound 4 n eps (1 + |excess(g)|) of an
    n-node sum of positive terms.  v and t are evaluated in blocks of
    `quadrature.MAX_CALL_NODES` nodes.  The caller sets the floating-point
    error state (see `upper_calogero_II_at`).
    """
    cap = quadrature.MAX_CALL_NODES
    blocks = (_calogero_II_factors(unit, ell, x, rule.nodes[i:i + cap])
              for i in range(0, rule.nodes.size, cap))
    v, t = map(np.concatenate, zip(*blocks))
    rounding = 4 * rule.nodes.size * sys.float_info.epsilon
    sampled = {}

    def excess(g):
        if g not in sampled:
            f = f_rule if g == g_rule else x * rule.integral(_calogero_II_terms(v, t, x, g)) - 1.0
            if not math.isfinite(f):
                raise IntegrationError(f"frozen Calogero II rule non-finite at g = {g!r}")
            sampled[g] = f
        return sampled[g]

    def slope(g):
        den = t * t + x * x * g * v
        d = x * rule.integral(np.where(den > 0, (v * t / den) * (t * t / den), 0.0))
        return d, rounding * (1.0 + abs(excess(g)))

    return excess, slope, sampled


def upper_calogero_II_at(pot: Potential, ell: int, a: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                         g_trial: float = 1.0) -> BoundResult:
    """Threshold strength of the nonlinear sufficient condition at fixed a.

    The strength enters the condition nonlinearly but the left side grows
    monotonically with g, so the smallest g with LHS = 1 is found by
    expanding a bracket around g_trial, which must be positive and is
    clamped into G_SEARCH_RANGE, and bisecting it.

    The search runs on a frozen rule: the nodes and weights of the adaptive
    pass at g_trial, with v and (r/a)^(2l) cached there, so every further
    trial g costs one vectorized sum, and Brent's method on the rule's
    excess lets the bisection skip all but a few of them
    (`_bracket_threshold`).  The outcome stands if adaptive quadrature, in
    one `lockstep` pass, puts each sample that decided it on its frozen
    side of 0: lo and hi of the final bracket, or the last sample before a
    SearchRangeError.  Otherwise one more rule is built at the last of
    those samples (hi, or the last sample) and the frozen search reruns on
    it from the same start, with its own samples, and is judged the same
    way.  A frozen
    sum that is not finite raises IntegrationError, which ends the frozen
    searches with nothing to confirm.  Without a confirmed outcome the
    search reruns on adaptive values, one strength per lockstep pass.
    Every value and error is that of its own adaptive integral, and an
    error raises only at a strength the search asks for.
    """
    ell = AngularMomentum(ell).ell
    if not a > 0:
        raise DomainError("matching radius a must be positive")
    if a == math.inf:
        raise DomainError("matching radius a must be finite")
    if not g_trial > 0:
        # a NaN would pass the clamp below, and the bracket never leave it
        raise DomainError("trial strength g_trial must be positive")
    unit, x = pot.unit, a / pot.scale
    g_lo, g_hi = G_SEARCH_RANGE
    g0 = min(max(g_trial, g_lo), g_hi)
    rcfg = _rel_cfg(cfg)
    # the adaptive excess by strength, or the error its integral raised; a
    # rule's own pass is the adaptive value at its strength
    known = {}

    def adaptive(gs):
        """The adaptive excess at each strength of gs, NaN where its integral
        raised; the new strengths are evaluated in one lockstep pass."""
        new = np.array([g for g in dict.fromkeys(gs) if g not in known])
        if new.size:
            def family(r, k):
                return _calogero_II_integrand(unit, ell, x, new[k])(r)

            for g, res in zip(new.tolist(), lockstep(family, new.size, rcfg, **unit.support)):
                known[g] = res if isinstance(res, Exception) else x * res.value - 1.0
        return [math.nan if isinstance(known[g], Exception) else known[g] for g in gs]

    def excess(g):
        adaptive([g])
        if isinstance(known[g], Exception):
            raise known[g]
        return known[g]

    g_rule = g0
    for _ in range(2):   # the rule at g0, then one rebuilt where its search ended
        rule = FixedRule(_calogero_II_integrand(unit, ell, x, g_rule), rcfg, **unit.support)
        known[g_rule] = x * rule.total - 1.0
        # the one error state of the Calogero II integrand outside `_panels`
        # (which sets its own): the frozen factors and search; an overflowing
        # t^2 makes a frozen value non-finite, which raises IntegrationError,
        # instead of a warning
        with np.errstate(over="ignore", invalid="ignore"):
            frozen, slope, sampled = _frozen_calogero_II(unit, ell, x, rule, g_rule,
                                                         known[g_rule])
            try:
                outcome = decided = _bracket_threshold(frozen, g0, slope)
            except SearchRangeError as exc:
                outcome, decided = exc, [next(reversed(sampled))]   # the last sample
            except IntegrationError:
                break
        # the outcome stands if each sample that decided it is on its frozen
        # side of 0 in adaptive quadrature too; NaN is on neither side
        if all(f >= 0 if sampled[g] >= 0 else f < 0
               for g, f in zip(decided, adaptive(decided))):
            if isinstance(outcome, Exception):
                raise outcome
            return BoundResult(Method.CALOGERO_II, Side.UPPER, outcome[1], ell,
                               optimal_param=a)
        g_rule = decided[-1]
        if isinstance(known[g_rule], Exception):
            break   # a rule there would raise the same error
    # a check that fails or cannot be evaluated proves nothing; the search on
    # adaptive values decides, and raises whatever it meets
    hi = _bracket_threshold(excess, g0)[1]
    return BoundResult(Method.CALOGERO_II, Side.UPPER, hi, ell, optimal_param=a)


def upper_calogero_II(pot: Potential, ell: int,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Best matching radius for the nonlinear sufficient condition."""
    unit, ell = pot.unit, AngularMomentum(ell).ell
    warm = 1.0

    def at(a, c):
        # each root search starts from the last threshold found
        nonlocal warm
        res = upper_calogero_II_at(unit, ell, a, c, g_trial=warm)
        warm = res.value
        return res

    best = _optimize_bound(at, cfg, 1e-2, 1e2, 1e-8)
    return replace(best, optimal_param=best.optimal_param * pot.scale)


def _trial_weight(pot: Potential, q: float):
    """F(q; x) = x^q v(x)^((q+1)/2), the building block of the trial bound.

    Evaluated in log space: at large powers the bare factors overflow or
    underflow long before their finite product does.
    """
    ex = 0.5 * (q + 1.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        # v itself can overflow (e^-x / x at subnormal x); quadrature rejects
        # the non-finite value
        v = pot.evaluate(x)
        out = np.zeros_like(v)
        m = v > 0
        out[m] = np.exp(q * np.log(x[m]) + ex * np.log(v[m]))
        return out

    return f


def upper_variational_at(pot: Potential, ell: int, p: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Variational upper limit with trial density r^(2p-1) v^p at fixed p.

    value = L * int F(2p-1) / [ int F(p;x) x^-L int_0^x F(p;y) y^L dy dx ]
    with F(q;x) = x^q v(x)^((q+1)/2) and L = l + 1/2.
    """
    pot, ell = pot.unit, AngularMomentum(ell).ell
    if not p > 0:
        raise DomainError("trial power p must be positive")
    if p == math.inf:
        raise DomainError("trial power p must be finite")
    L = ell + 0.5
    norm = _positive(pot.support_integral(_trial_weight(pot, 2.0 * p - 1.0),
                                          _rel_cfg(cfg)), "trial normalization")
    fp = _trial_weight(pot, p)
    kernel_form = nested_double(
        lambda x: fp(x) * x ** (-L),
        lambda y: fp(y) * y ** L,
        _rel_cfg(cfg), **pot.support)
    kernel_form = _positive(kernel_form, "trial kernel form")
    return BoundResult(Method.VARIATIONAL, Side.UPPER, L * norm / kernel_form,
                       ell, optimal_param=p)


def upper_variational(pot: Potential, ell: int,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
    """Variational upper limit minimized over the trial power p."""
    pot, ell = pot.unit, AngularMomentum(ell).ell
    # at extreme p both integrals underflow and their ratio is meaningless;
    # no genuine upper limit can undercut this lower limit, so anything
    # below it is rejected as corrupted
    return _optimize_bound(
        lambda p, c: upper_variational_at(pot, ell, p, c), cfg, 1e-2, 1e2, 1e-9,
        floor=lambda c: 0.5 * lower_bargmann_schwinger(pot, ell, c).value)


def upper_variational_square_well(ell: int) -> BoundResult:
    """Closed-form minimum of the variational bound for the square well.

    For v = theta(R - r)/R^2 the bound at power p is L(p+L+1)(p+1)/p, whose
    minimum over p sits at p = sqrt(L+1) with value L(sqrt(L+1)+1)^2.
    """
    ell = AngularMomentum(ell).ell
    L = ell + 0.5
    p_star = math.sqrt(L + 1.0)
    return BoundResult(Method.VARIATIONAL_CLOSED_FORM, Side.UPPER,
                       L * (p_star + 1.0) ** 2, ell, optimal_param=p_star)


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """One method: its side, its `gcrit compute` column and how to run it.

    `run(pot, ell, cfg)` names a module-level function in its body, so the
    function is looked up at each call: a replaced module attribute (a
    tracer's wrapper, a test's spy) reaches every caller.  The Nystrom
    solver runs at its default node count.
    """

    method: Method
    side: Side
    column: str | None   # wide `gcrit compute` column, if the method has one
    run: Callable
    kind: Kind | None = None   # the only shape kind it applies to, if any
    rel_error: float | None = None   # stated relative error; None: 10 rel_tol

    def compute(self, pot: Potential, ell: int,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> BoundResult:
        out = self.run(pot, ell, cfg)
        if self.side is Side.EXACT:   # a solver returns the bare coupling
            return BoundResult(self.method, self.side, out, ell)
        return out


#: every method in reporting order: `gcrit compute --methods all` runs the
#: limits among them that apply to the shape, `sandwich` every general one
METHODS = {spec.method: spec for spec in (
    MethodSpec(Method.BARGMANN_SCHWINGER, Side.LOWER, "g_BS",
               lambda pot, ell, cfg: lower_bargmann_schwinger(pot, ell, cfg)),
    MethodSpec(Method.SECOND_ORDER, Side.LOWER, "g_eq2",
               lambda pot, ell, cfg: lower_second_order(pot, ell, cfg)),
    MethodSpec(Method.THIRD_ORDER, Side.LOWER, "g_B",
               lambda pot, ell, cfg: lower_third_order(pot, ell, cfg)),
    MethodSpec(Method.GGMT, Side.LOWER, "g_GGMT",
               lambda pot, ell, cfg: lower_ggmt(pot, ell, cfg)),
    MethodSpec(Method.CALOGERO_I, Side.UPPER, "g_C1",
               lambda pot, ell, cfg: upper_calogero_I(pot, ell, cfg)),
    MethodSpec(Method.CALOGERO_II, Side.UPPER, "g_C2",
               lambda pot, ell, cfg: upper_calogero_II(pot, ell, cfg)),
    MethodSpec(Method.VARIATIONAL, Side.UPPER, "g_New",
               lambda pot, ell, cfg: upper_variational(pot, ell, cfg)),
    MethodSpec(Method.VARIATIONAL_CLOSED_FORM, Side.UPPER, None,
               lambda pot, ell, cfg: upper_variational_square_well(ell),
               kind=Kind.SQUARE_WELL, rel_error=0.0),
    MethodSpec(Method.SHOOTING, Side.EXACT, "g_c_shoot",
               lambda pot, ell, cfg: critical_coupling_shooting(pot, ell, cfg),
               rel_error=1e-11),   # threshold root width + integrator error
    MethodSpec(Method.NYSTROM, Side.EXACT, "g_c_nystrom",
               lambda pot, ell, cfg: critical_coupling_nystrom(pot, ell),
               rel_error=1e-5),    # discretization scale at the default n
)}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: relative slack of the bracketing order max lower <= exact <= min upper
ORDERING_TOL = 1e-6
#: relative slack of a lower limit that must be at least another
MONOTONE_TOL = 1e-9
#: the most the two solvers may differ, relative to shooting
SOLVER_AGREEMENT = 1e-5


@dataclass(frozen=True)
class SandwichReport:
    """All limits and both solver values for one (shape, partial wave) pair."""

    potential: Potential
    ell: int
    lowers: tuple[BoundResult, ...]
    uppers: tuple[BoundResult, ...]
    exact_shooting: float
    exact_nystrom: float
    elapsed_s: float

    @property
    def max_lower(self) -> float:
        return max(b.value for b in self.lowers)

    @property
    def min_upper(self) -> float:
        return min(b.value for b in self.uppers)

    @property
    def lower_margin(self) -> float:
        """(exact - strongest lower limit) / exact; negative means violation."""
        return (self.exact_shooting - self.max_lower) / self.exact_shooting

    @property
    def upper_margin(self) -> float:
        """(weakest needed upper limit - exact) / exact."""
        return (self.min_upper - self.exact_shooting) / self.exact_shooting

    def ordering_ok(self) -> bool:
        return self.lower_margin >= -ORDERING_TOL and self.upper_margin >= -ORDERING_TOL

    @property
    def lower_sequence(self) -> tuple[float, float, float]:
        """The Bargmann-Schwinger, second- and third-order lower limits."""
        return tuple(self.by_method(m).value for m in (
            Method.BARGMANN_SCHWINGER, Method.SECOND_ORDER, Method.THIRD_ORDER))

    def lower_sequence_ok(self) -> bool:
        """Whether the lower sequence is monotone to MONOTONE_TOL."""
        first, second, third = self.lower_sequence
        return (first <= second * (1 + MONOTONE_TOL)
                and second <= third * (1 + MONOTONE_TOL))

    def ggmt_ok(self) -> bool:
        """Whether the optimized power family is at least the first moment."""
        first = self.by_method(Method.BARGMANN_SCHWINGER).value
        return self.by_method(Method.GGMT).value >= first * (1 - MONOTONE_TOL)

    @property
    def solver_gap(self) -> float:
        """|shooting - Nystrom| / shooting."""
        return abs(self.exact_shooting - self.exact_nystrom) / self.exact_shooting

    def solvers_agree(self) -> bool:
        return self.solver_gap <= SOLVER_AGREEMENT

    def by_method(self, method: Method) -> BoundResult:
        for b in self.lowers + self.uppers:
            if b.method is method:
                return b
        raise KeyError(method)


def sandwich(pot: Potential, ell: int,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> SandwichReport:
    """Compute every limit plus both solvers and check the bracketing order.

    Raises InvariantViolation when the strongest lower limit exceeds the
    shooting value or the shooting value exceeds the weakest upper limit by
    more than ORDERING_TOL relative.
    """
    ell = AngularMomentum(ell).ell
    t0 = time.perf_counter()
    # every method that applies to any shape, in registry order
    results = {method: spec.compute(pot, ell, cfg)
               for method, spec in METHODS.items() if spec.kind is None}

    def side(s):
        return tuple(r for r in results.values() if r.side is s)

    g_shoot = results[Method.SHOOTING].value
    g_nys = results[Method.NYSTROM].value
    report = SandwichReport(pot, ell, side(Side.LOWER), side(Side.UPPER),
                            g_shoot, g_nys, time.perf_counter() - t0)
    if not report.ordering_ok():
        raise InvariantViolation(
            f"bound ordering violated for {pot.label()} ell={ell}: "
            f"max lower {report.max_lower!r}, exact {g_shoot!r}, "
            f"min upper {report.min_upper!r}")
    return report
