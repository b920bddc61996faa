"""Two independent solvers for the true critical strength, plus closed forms.

The shooting solver integrates the zero-energy radial equation outward in
log-radius and tracks the coefficient of the growing large-r mode; the
strength at which that coefficient first crosses zero is the threshold.  The
Nystrom solver discretizes the symmetric kernel

    K(r, r') = sqrt(v(r)) * G(r, r') * sqrt(v(r'))

with G(r, r') = min^( l+1) max^(-l) / (2l+1), whose largest eigenvalue is the
reciprocal of the critical strength.  G factors into a power of r times a
power of r' on each side of the diagonal, so the discretized kernel is
diagonal plus semiseparable and is applied in O(n) without an n x n matrix.
The two methods share no numerics, so their agreement is a strong
correctness check.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AccuracyError, DomainError, IntegrationError,
                     NoBoundStateError)
from .optimize import bracket, brentq, drive
from .potentials import AngularMomentum, Potential
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

#: default step of the log-radius RK4 grid; 0.004 keeps the threshold within
#: 6e-10 relative of the closed forms for l <= 5 (1e-12 to 1.5e-11 at l = 0)
#: at 0.3-0.5 ms per trial strength, 3.5-30 ms per solve (built-in shapes,
#: l <= 5, one core of a 2-CPU box)
DEFAULT_LOG_STEP = 0.004

_TAIL_TOL = 1e-12
#: relative change of the Rayleigh quotient at which power iteration stops,
#: and the iterations it may take to get there
_POWER_TOL = 1e-12
_POWER_MAX_ITERATIONS = 20000
#: times the threshold scan may take the square root of its step factor
_SCAN_REFINEMENTS = 6
_EDGE_NUDGE = 1e-13


def greens_function(ell: int, r, rp):
    """Zero-energy radial kernel min(r,r')^(l+1) * max(r,r')^(-l) / (2l+1)."""
    ell = AngularMomentum(ell).ell
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    lo = np.minimum(r, rp)
    hi = np.maximum(r, rp)
    out = lo ** (ell + 1) * hi ** (-ell) / (2 * ell + 1)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ShootingState:
    """Radial solution sample (u, u') at radius r; u is regular at the origin."""

    r: float
    u: float
    du: float


def _segment_radii(pot: Potential, max_radius: float) -> list[float]:
    """Integration segments: [r0, interior breakpoints..., R_match].

    Called once per solve, by the step polynomial that every trial strength
    of the solve shares (`_step_polynomial`)."""
    r0 = pot.start_radius
    r_sup = pot.support_radius(_TAIL_TOL, max_radius)
    r_match = r_sup * (1.0 if pot.is_compact else 1.5)
    pts = [r0]
    for b in pot.breakpoints():
        if r0 < b < r_match:
            pts.append(b)
    pts.append(r_match)
    return pts


def shoot_zero_energy(pot: Potential, ell: int, g: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      log_step: float = DEFAULT_LOG_STEP) -> float:
    """Growing-mode coefficient of the zero-energy radial solution.

    Integrates u'' = [l(l+1)/r^2 - g v(r)] u outward from the regular
    power-law start u ~ r^(l+1) and decomposes u = A r^(l+1) + B r^(-l)
    past the effective support.  Returns A normalized by the local solution
    scale: positive below the first threshold, zero at it, alternating sign
    at later thresholds.

    Works in s = ln r with w(s) = u e^(-s/2), where w'' = [L^2 - g r^2 v] w
    and L = l + 1/2; the log grid resolves both the centrifugal region and
    wide supports with uniform cost.
    """
    w, dw, _, _ = _integrate_log_radial(pot.unit, ell, g, cfg, log_step)
    L = AngularMomentum(ell).L
    # u = e^{s/2} w gives r u' + l u = e^{s/2}(w' + L w); dividing by the
    # growing mode leaves A up to a positive factor, normalized here by the
    # solution scale so thresholds mean |A| ~ 0 on an O(1) scale
    return (dw + L * w) / max(abs(w), abs(dw), 1e-300)


def zero_energy_state(pot: Potential, ell: int, g: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      log_step: float = DEFAULT_LOG_STEP) -> ShootingState:
    """Regular zero-energy solution (u, u') at the matching radius.

    The solution is normalized to unit scale (the radial equation is
    linear), with u ~ r^(l+1) near the origin.
    """
    w, dw, s_end, _ = _integrate_log_radial(pot.unit, ell, g, cfg, log_step)
    scale = max(abs(w), abs(dw), 1e-300)
    w, dw = w / scale, dw / scale
    s_end += math.log(pot.scale)   # back to the radii of pot
    half = math.exp(0.5 * s_end)
    return ShootingState(r=math.exp(s_end), u=half * w,
                         du=(dw + 0.5 * w) / half)


class _StepPolynomial(NamedTuple):
    """The g-independent part of a shot: the RK4 map of step k is the 2x2
    matrix coeffs[0, :, :, k] + gamma (coeffs[1, :, :, k] + gamma
    coeffs[2, :, :, k]) of the scaled strength gamma = g kappa, and s_end is
    the log of the matching radius."""

    coeffs: np.ndarray
    kappa: float
    s_end: float

    def matrices(self, g: float) -> np.ndarray:
        """The step maps at strength g, m[:, :, k] taking (w, w') before
        step k to after it."""
        gamma = g * self.kappa
        m = gamma * self.coeffs[2]
        m += self.coeffs[1]
        m *= gamma
        m += self.coeffs[0]
        return m


def _build_step_polynomial(pot: Potential, max_radius: float, log_step: float,
                           ell: int) -> _StepPolynomial:
    """The step maps of w'' = q w with q = L^2 - g r^2 v, expanded in g.

    The k1..k4 stages of a step with q0, qh, q1 at its start, midpoint and
    end take (w, w') to [[a, b], [c, d]] (w, w'), where, with e = h^2/4,

        a = 1 + (h^2/6)(q0 + 2 qh + e q0 qh),      b = h + (h^3/6) qh,
        c = (h/6)(q0 + 4 qh + q1 + 2e (q0 qh + qh q1)),
        d = 1 + (h^2/6)(2 qh + q1 + e qh q1),

    quadratic in g since each q is affine in it.  r^2 v enters divided by
    its largest value kappa, so the products of two of its values neither
    overflow nor underflow whatever the magnitude of the shape."""
    pts = _segment_radii(pot, max_radius)
    s_pts = [math.log(p) for p in pts]
    r_steps, h_steps = [], []
    for i in range(len(pts) - 1):
        sa, sb = s_pts[i], s_pts[i + 1]
        n = max(8, math.ceil((sb - sa) / log_step))
        h = (sb - sa) / n
        r = np.exp(sa + h * np.arange(2 * n + 1) / 2.0)
        # pin segment ends to the exact radii, nudged one-sided so jumps of
        # v at breakpoints are evaluated with their interior limit
        r[0] = pts[i] * (1.0 + _EDGE_NUDGE)
        r[-1] = pts[i + 1] * (1.0 - _EDGE_NUDGE)
        r_steps.append(np.stack([r[0:-1:2], r[1::2], r[2::2]]))
        h_steps.append(np.full(n, h))
    r = np.concatenate(r_steps, axis=1)
    h = np.concatenate(h_steps)
    # r^2 v = inf leaves kappa = inf and NaN coefficients, which the shot
    # reports as a non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        r2v = r ** 2 * pot.evaluate(r)
        kappa = float(r2v.max()) or 1.0
        c0, ch, c1 = r2v / kappa
        P = AngularMomentum(ell).L ** 2
        e, s, t = 0.25 * h * h, h * h / 6.0, h / 6.0
        one = 1.0 + s * (3.0 * P + e * P * P)
        coeffs = np.array([
            [[one, h + h * s * P],
             [t * (6.0 * P + 4.0 * e * P * P), one]],
            [[-s * (c0 + 2.0 * ch + e * P * (c0 + ch)), -h * s * ch],
             [-t * (c0 + 4.0 * ch + c1 + 2.0 * e * P * (c0 + 2.0 * ch + c1)),
              -s * (2.0 * ch + c1 + e * P * (ch + c1))]],
            [[s * e * c0 * ch, np.zeros_like(h)],
             [t * 2.0 * e * ch * (c0 + c1), s * e * ch * c1]],
        ])
    return _StepPolynomial(coeffs=coeffs, kappa=kappa, s_end=s_pts[-1])


#: the step polynomials of the shooting solve in progress, by (shape,
#: max_radius, log_step, l); None outside a solve, where every shot builds
#: its own
_solve_grids: ContextVar[dict | None] = ContextVar("_solve_grids", default=None)


def _step_polynomial(pot: Potential, max_radius: float, log_step: float,
                     ell: int) -> _StepPolynomial:
    polys = _solve_grids.get()
    if polys is None:
        return _build_step_polynomial(pot, max_radius, log_step, ell)
    key = (pot, max_radius, log_step, ell)
    if key not in polys:
        polys[key] = _build_step_polynomial(pot, max_radius, log_step, ell)
    return polys[key]


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """The 2x2 products later @ earlier along the last axis, each divided by
    its largest entry: only the direction of the end state matters, and the
    scaled products cannot overflow however fast the solution grows."""
    p = np.einsum("ikn,kjn->ijn", later, earlier)
    p /= np.abs(p).reshape(4, -1).max(axis=0)
    return p


def _product(m: np.ndarray) -> np.ndarray:
    """M_(n-1) ... M_0 of the n matrices m[:, :, k], up to a positive
    factor, by pairwise products in ceil(log2 n) rounds."""
    while m.shape[2] > 1:
        pairs = m.shape[2] // 2
        p = _compose(m[..., 1:2 * pairs:2], m[..., 0:2 * pairs:2])
        m = np.concatenate([p, m[..., 2 * pairs:]], axis=2)
    return m


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """M_k ... M_0 for every k, up to positive factors, by doubling (a
    Hillis-Steele scan of the linear recurrence): after the round with
    stride d, matrix k is the product of the up to 2d steps ending at k."""
    d = 1
    while d < m.shape[2]:
        m = np.concatenate([m[..., :d], _compose(m[..., d:], m[..., :-d])], axis=2)
        d *= 2
    return m


def _integrate_log_radial(pot: Potential, ell: int, g: float,
                          cfg: QuadratureConfig, log_step: float,
                          count_nodes: bool = False
                          ) -> tuple[float, float, float, int]:
    """(w, w') at the matching radius up to a positive factor, its
    log-radius, and the sign changes of w between the grid points on the
    way (0 unless count_nodes).

    The equation is linear, so each RK4 step is a 2x2 matrix, quadratic in
    g, and the end state is their product applied to the start (1, L).  The
    matrices' coefficients are built once per solve (per shot outside one);
    a shot evaluates all steps at once and multiplies them pairwise: 0.3-0.5
    ms per shot for the 3,450-5,540 steps of a built-in shape, and 0.85-1.6
    ms with the node count's prefix products (one core of a 2-CPU box).
    """
    if not g > 0:
        raise DomainError("strength g must be positive")
    L = AngularMomentum(ell).L
    poly = _step_polynomial(pot, cfg.max_radius, log_step, ell)
    with np.errstate(over="ignore", invalid="ignore"):
        m = poly.matrices(g)
        finite = np.isfinite(m).all()
        if finite:
            m = _prefix_products(m) if count_nodes else _product(m)
            finite = np.isfinite(m).all()
    if not finite:
        raise IntegrationError(f"shooting state became non-finite at g={g!r}")
    # the states after each step (after the last only, unless count_nodes)
    w, dw = m[:, 0] + m[:, 1] * L
    nodes = 0
    if count_nodes:
        # w starts positive; count the changes of its sign class step by step
        negative = np.concatenate([[False], w < 0.0])
        nodes = int(np.count_nonzero(negative[1:] != negative[:-1]))
    return float(w[-1]), float(dw[-1]), poly.s_end, nodes


def critical_coupling_shooting(pot: Potential, ell: int,
                               cfg: QuadratureConfig = DEFAULT_CONFIG,
                               log_step: float = DEFAULT_LOG_STEP,
                               g_start: float | None = None) -> float:
    """Smallest strength with a zero-energy bound state, via sign change.

    Starts just below the weakest lower bound (strength per unit shape
    integral), halves the strength while the growing-mode coefficient is
    not positive, scans geometrically upward to its first sign change, then
    polishes the root to relative 1e-12 with `optimize.brentq`, scipy's
    Brent iteration bit for bit.  The node count of the solution at the
    upper end confirms that the bracket holds the first threshold; if not,
    the scan is repeated with a finer step, on the coefficients known.
    """
    pot, ell = pot.unit, AngularMomentum(ell).ell
    if g_start is None:
        moment = pot.support_integral(lambda r: r * pot.evaluate(r), cfg)
        if not moment > 0:
            raise NoBoundStateError("shape has a vanishing first moment")
        g_start = 0.98 * (2 * ell + 1) / moment

    known = {}

    def coeff(g):
        if g not in known:
            known[g] = shoot_zero_energy(pot, ell, g, cfg, log_step)
        return known[g]

    cap = g_start * 1e4
    factor = 1.25
    # every shot of the solve shares one step polynomial, dropped when the
    # solve ends
    token = _solve_grids.set({})
    try:
        for _ in range(_SCAN_REFINEMENTS + 1):
            a, b = drive(lambda g: -coeff(g),
                         bracket(g_start, 2.0, factor, 0.5e-6 * g_start, cap * factor))
            if a is None:
                raise NoBoundStateError("no subcritical strength found below the scan start")
            if b is None:
                raise NoBoundStateError(
                    f"growing-mode coefficient did not change sign below g = {cap:g}")
            # Sturm: between the first two thresholds w has at most one node
            # below the matching radius, past the third at least two; a step
            # wider than the gap between thresholds can skip the first two
            if _integrate_log_radial(pot, ell, b, cfg, log_step,
                                     count_nodes=True)[3] <= 1:
                # brentq starts by evaluating both ends, which the scan has
                # done; its tolerance is about xtol + rtol |g|, and only the
                # smallest float as xtol leaves rtol in charge down to 1e-300
                return brentq(coeff, a, b, rtol=1e-12, xtol=5e-324)
            factor = math.sqrt(factor)
        # every scan starts upward from the lowest strength tried
        raise AccuracyError(
            f"no scan step isolated the first threshold above g = {min(known):g}")
    finally:
        _solve_grids.reset(token)


@dataclass(frozen=True)
class KernelDiscretization:
    """Symmetric quadrature discretization of the coupling-eigenvalue kernel.

    The n x n matrix M_ij = sqrt(w_i w_j) K(x_i, x_j) is never formed.  For
    nodes in increasing order, G(x_i, x_j) = x_j^(l+1) x_i^(-l) / (2l+1)
    below the diagonal and its transpose above it, so off the diagonal
    M_ij = upper_i lower_j (j < i) and lower_i upper_j (j > i) with

        lower_j = x_j^(l+1) s_j / (2l+1),   upper_i = x_i^(-l) s_i,

    s = sqrt(w v): M is diagonal plus semiseparable of rank one, and
    `disc @ u` applies it in O(n) time and memory with two cumulative sums.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    diagonal: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.diagonal.size
        return n, n

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """(M u)_i = upper_i sum_(j<i) lower_j u_j
                     + lower_i sum_(j>i) upper_j u_j + diagonal_i u_i.

        Each partial sum is accumulated from its empty end, never as a total
        minus the rest, so an overflowed upper_j reaches only the rows i < j,
        the rows of M that hold it."""
        lu = self.lower * u
        uu = self.upper * u
        below = np.zeros_like(lu)
        above = np.zeros_like(uu)
        # inf * 0 where x^(-l) overflowed: the row is non-finite, as in M
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(lu[:-1], out=below[1:])
            above[:-1] = np.cumsum(uu[:0:-1])[::-1]
            return self.upper * below + self.lower * above + self.diagonal * u


def kernel_discretization(pot: Potential, ell: int, n: int,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> KernelDiscretization:
    """The n-node symmetric operator M_ij = sqrt(w_i w_j) K(x_i, x_j).

    Nodes are the square-graded trapezoid grid x_j = R_eff (j/n)^2, j >= 1,
    which keeps every node strictly positive (the 1/sqrt(r) of a Yukawa
    shape stays finite) and turns half-integer powers of r near the origin
    into smooth functions of the grid parameter.  End weights carry
    fourth-order Gregory corrections, and the diagonal carries the local
    correction for the derivative jump of the kernel across r = r'; both are
    needed for the eigenvalue to converge fast enough to cross-check the
    shooting solver at moderate n.  Only the three length-n factor vectors
    of `KernelDiscretization` are stored.
    """
    pot, ell, length = pot.unit, AngularMomentum(ell).ell, pot.scale
    if n < 8:
        raise DomainError("kernel discretization requires n >= 8")
    r_eff = pot.support_radius(1e-13, cfg.max_radius)
    h = 1.0 / n
    z = h * np.arange(1, n + 1)
    x = r_eff * z * z
    xp = 2.0 * r_eff * z
    gregory = np.ones(n + 1)
    gregory[[0, -1]] = 3.0 / 8.0
    gregory[[1, -2]] = 7.0 / 6.0
    gregory[[2, -3]] = 23.0 / 24.0
    w = h * xp * gregory[1:]
    v = pot.evaluate(x)
    s = np.sqrt(w * v)
    # x^(-l) overflows to inf for l >= ~50, which the power iteration reports
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = x ** (ell + 1)
        b = x ** (-ell)
        lower = a * s / (2 * ell + 1)
        upper = b * s
        # G(x_i, x_i) from the same two powers as the entries off it
        diagonal = a * b / (2 * ell + 1) * (s * s)
    # trapezoid picks up an O(h^2) term from the slope jump of the kernel
    # across the diagonal; subtracting it locally restores fast convergence
    diagonal = np.maximum(diagonal - (h * h / 12.0) * xp * xp * v, 0.0)
    return KernelDiscretization(nodes=x * length, weights=w * length,
                                lower=lower, upper=upper, diagonal=diagonal)


def largest_eigenvalue(matrix) -> float:
    """Dominant eigenvalue of a symmetric nonnegative kernel matrix.

    `matrix` is an ndarray or any operator with `shape` and `@`, such as a
    `KernelDiscretization`.  Power iteration from a positive start vector;
    the Rayleigh quotient converges geometrically in the squared eigenvalue
    gap.
    """
    n = matrix.shape[0]
    b = np.full(n, 1.0 / math.sqrt(n))
    mu_old = math.inf
    # an overflow is reported as a non-finite iterate, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POWER_MAX_ITERATIONS):
            y = matrix @ b
            mu = float(b @ y)
            norm = float(np.linalg.norm(y))
            if norm == 0.0:
                raise AccuracyError("kernel matrix annihilated the iterate")
            # a non-finite entry poisons every later iterate, so stop at once
            if not (math.isfinite(mu) and math.isfinite(norm)):
                raise AccuracyError("power iteration produced a non-finite iterate")
            b = y / norm
            if abs(mu - mu_old) <= _POWER_TOL * abs(mu):
                return mu
            mu_old = mu
    raise AccuracyError("power iteration stagnated before reaching tolerance")


def critical_coupling_nystrom(pot: Potential, ell: int, n: int = 400,
                              cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Critical strength as the reciprocal dominant kernel eigenvalue."""
    disc = kernel_discretization(pot, ell, n, cfg)
    return 1.0 / largest_eigenvalue(disc)


def bessel_first_zero(nu: float) -> float:
    """First positive zero of the Bessel function J_nu, nu >= -1/2.

    J_nu is positive on (0, j1), so an outward scan brackets the first sign
    change and `optimize.brentq` polishes it.  J_nu comes from
    scipy.special, imported here: the closed-form references are the only
    part of the package that needs scipy.
    """
    from scipy.special import jv

    if not nu >= -0.5:
        raise DomainError("order must satisfy nu >= -1/2")
    step = 0.4
    a = 0.05
    fa = jv(nu, a)
    while True:
        b = a + step
        fb = jv(nu, b)
        if fa > 0 and fb <= 0:
            return brentq(lambda t: jv(nu, t), a, b, rtol=8.9e-16, xtol=1e-300)
        a, fa = b, fb
        if a > 4.0 * (abs(nu) + 4.0):
            raise AccuracyError(f"failed to bracket the first zero of J_{nu}")


def square_well_exact(ell: int) -> float:
    """Critical strength of the square well: squared first zero of J_(l-1/2)."""
    ell = AngularMomentum(ell).ell
    return bessel_first_zero(ell - 0.5) ** 2


def exponential_exact_swave() -> float:
    """s-wave critical strength of the exponential shape: (j_{0,1}/2)^2."""
    return (bessel_first_zero(0.0) / 2.0) ** 2


def stis_exact_swave(alpha: float) -> float:
    """s-wave critical strength of the truncated inverse-square shape.

    Solves lam*ln(1+alpha) + 2*arctan(lam) = 2*pi for lam > 0 (the left side
    grows monotonically from 0, so the root is unique) and returns
    (lam^2 + 1)/4.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    log1a = math.log1p(alpha)

    def residual(lam):
        return lam * log1a + 2.0 * math.atan(lam) - 2.0 * math.pi

    hi = 2.0 * math.pi / log1a + 10.0
    lam = brentq(residual, 1e-12, hi, rtol=8.9e-16, xtol=1e-300)
    return (lam * lam + 1.0) / 4.0
