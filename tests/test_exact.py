import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from gcrit import exact
from gcrit.cli import main
from gcrit.errors import (AccuracyError, DomainError, IntegrationError,
                          NoBoundStateError)
from gcrit.exact import (DEFAULT_LOG_STEP, _EDGE_NUDGE, _integrate_log_radial,
                         _segment_radii, bessel_first_zero,
                         critical_coupling_nystrom, critical_coupling_shooting,
                         exponential_exact_swave, kernel_discretization,
                         largest_eigenvalue, shoot_zero_energy,
                         square_well_exact, stis_exact_swave)
from gcrit.potentials import AngularMomentum, Potential
from gcrit.quadrature import DEFAULT_CONFIG


def test_bessel_first_zero_half_orders():
    assert math.isclose(bessel_first_zero(-0.5), math.pi / 2.0, rel_tol=1e-13)
    assert math.isclose(bessel_first_zero(0.5), math.pi, rel_tol=1e-13)


def test_bessel_first_zero_j0():
    z = bessel_first_zero(0.0)
    assert math.isclose(z, 2.404825557695773, rel_tol=1e-12)
    assert abs(jv(0.0, z)) < 1e-13
    assert jv(0.0, 0.9 * z) > 0.0


def test_bessel_order_domain():
    with pytest.raises(DomainError):
        bessel_first_zero(-0.7)


@pytest.mark.parametrize("nu", [1.1e6, math.inf, math.nan])
def test_bessel_order_domain_excludes_huge_and_nonfinite_orders(nu):
    with pytest.raises(DomainError):
        bessel_first_zero(nu)


def _mpmath_first_zero(nu: float):
    def j(x):
        return mpmath.besselj(nu, x)

    if nu < 0:
        # besseljzero takes nu >= 0; the first zero lies in (pi/2, j_0,1)
        return mpmath.findroot(j, 2.0)
    if nu > 100:
        # besseljzero takes minutes here; start from DLMF 10.21.40 instead
        return mpmath.findroot(j, nu + 1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3))
    return mpmath.besseljzero(nu, 1)


@pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 0.37, 0.74, 1.0, 2.5, 7.3, 17.5,
                                59.5, 100.0, 1000.0])
def test_bessel_first_zero_matches_mpmath(nu):
    with mpmath.workdps(30):
        want = _mpmath_first_zero(nu)
        # J_nu is positive below its first zero and negative below its second
        assert mpmath.besselj(nu, 0.999 * want) > 0
        assert abs(bessel_first_zero(nu) - want) <= 5e-15 * want


def test_bessel_matrix_size_leaves_no_truncation_error(monkeypatch):
    """Doubling the recurrence matrix moves the zero by rounding only: the
    truncation of `_bessel_matrix_size` is below an ulp up to nu = 1e6."""
    nus = np.concatenate([np.linspace(-0.5, 20.0, 42), np.geomspace(20.0, 1000.0, 40),
                          [1e4, 1e5, 1e6]])
    rows = exact._bessel_matrix_size
    at_rule = [bessel_first_zero(nu) for nu in nus]
    monkeypatch.setattr(exact, "_bessel_matrix_size", lambda nu: 2 * rows(nu))
    for nu, z in zip(nus, at_rule):
        assert abs(bessel_first_zero(nu) - z) <= 4 * math.ulp(z), nu


def test_square_well_exact_values():
    assert math.isclose(square_well_exact(0), math.pi ** 2 / 4.0, rel_tol=1e-13)
    assert math.isclose(square_well_exact(1), math.pi ** 2, rel_tol=1e-13)
    # five printed digits: 20.191
    assert math.isclose(square_well_exact(2), 20.191, rel_tol=5e-5)


def test_exponential_exact_swave():
    g = exponential_exact_swave()
    assert math.isclose(g, (2.404825557695773 / 2.0) ** 2, rel_tol=1e-12)
    assert math.isclose(g, 1.4458, rel_tol=5e-5)


def test_stis_exact_residual_and_printed_values():
    for alpha, printed in ((0.1, 282.26), (1.0, 6.7319), (50.0, 0.58684)):
        g = stis_exact_swave(alpha)
        lam = math.sqrt(4.0 * g - 1.0)
        residual = lam * math.log1p(alpha) + 2.0 * math.atan(lam) - 2.0 * math.pi
        assert abs(residual) < 1e-12
        assert math.isclose(g, printed, rel_tol=1e-4)
    with pytest.raises(DomainError):
        stis_exact_swave(0.0)


def test_shoot_sign_structure():
    pot = Potential.square_well()
    g_c = math.pi ** 2 / 4.0
    assert shoot_zero_energy(pot, 0, 1.0) > 0.0
    assert abs(shoot_zero_energy(pot, 0, g_c)) < 1e-8
    assert shoot_zero_energy(pot, 0, 1.2 * g_c) < 0.0
    # sign flips back past the second s-wave threshold (3 pi / 2)^2
    assert shoot_zero_energy(pot, 0, 23.0) > 0.0
    with pytest.raises(DomainError):
        shoot_zero_energy(pot, 0, -1.0)


def test_shooting_square_well_matches_analytic():
    pot = Potential.square_well()
    for ell in (0, 1, 2):
        got = critical_coupling_shooting(pot, ell)
        assert math.isclose(got, square_well_exact(ell), rel_tol=1e-9)


def test_shooting_printed_values():
    assert math.isclose(critical_coupling_shooting(Potential.square_well(), 3),
                        33.217, rel_tol=1e-4)
    assert math.isclose(critical_coupling_shooting(Potential.yukawa(), 0),
                        1.6798, rel_tol=1e-4)


def test_shooting_stis_matches_transcendental():
    got = critical_coupling_shooting(Potential.stis(5.0), 0)
    assert math.isclose(got, stis_exact_swave(5.0), rel_tol=1e-9)


def test_kernel_discretization_structure():
    disc = kernel_discretization(Potential.yukawa(), 0, 60)
    assert disc.shape == (60, 60)
    u, w = np.random.default_rng(60).uniform(0.5, 1.5, (2, 60))
    assert math.isclose(w @ (disc @ u), u @ (disc @ w), rel_tol=1e-14)
    assert np.all(disc.diagonal >= 0.0)
    assert np.all(disc.nodes > 0.0)
    assert np.all(disc.weights > 0.0)
    with pytest.raises(DomainError):
        kernel_discretization(Potential.yukawa(), 0, 4)


@pytest.mark.parametrize("solver", [critical_coupling_shooting, critical_coupling_nystrom])
@pytest.mark.parametrize("ell", [-1, 1.5])
def test_solvers_reject_an_invalid_ell_by_name(solver, ell):
    # the shooting solver's start strength (2l+1)/moment is negative at
    # l = -1; the error must still name l, not the strength
    with pytest.raises(DomainError, match=r"ell must be a nonnegative integer"):
        solver(Potential.exponential(), ell)


def test_power_iteration_known_matrix():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert math.isclose(largest_eigenvalue(m), 3.0, rel_tol=1e-12)


def test_nystrom_square_well_printed_example():
    got = critical_coupling_nystrom(Potential.square_well(), 0, 200)
    assert abs(got - 2.4674) < 1e-4


def test_nystrom_converges_with_node_count():
    pot = Potential.exponential()
    exact = exponential_exact_swave()
    got = critical_coupling_nystrom(pot, 0, 400)
    assert abs(got - exact) / exact < 1e-6


def test_nystrom_memory_is_linear_in_node_count():
    # a dense 3000 x 3000 kernel alone would take 72 MB
    tracemalloc.start()
    try:
        critical_coupling_nystrom(Potential.exponential(), 0, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_shooting_memory_is_under_28_floats_per_step():
    # 12 coefficients per step, and for a shot two product buffers; the
    # coefficients once took 12 stacked temporaries (40 floats per step)
    pot, ell = Potential.yukawa(), 4
    steps = exact._build_step_polynomial(pot.unit, DEFAULT_LOG_STEP,
                                         ell).coeffs.shape[-1]
    critical_coupling_shooting(pot, ell)
    tracemalloc.start()
    try:
        critical_coupling_shooting(pot, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 8 * steps


# -- freeze-then-verify: the float RK4 loop and the kernel operator ---------

def _tabulated_28(scale=1.0):
    radii = np.linspace(0.05, 2.0, 28)
    values = np.exp(-radii ** 2) * (1.0 + 0.3 * np.sin(3.0 * radii))
    return Potential.tabulated(list(zip(radii, scale * values)))


SHAPES = {
    "square_well": Potential.square_well(),
    "exponential": Potential.exponential(),
    "yukawa": Potential.yukawa(),
    "stis": Potential.stis(1.0),
    "shell": Potential.shell(width=0.1),
    "tabulated28": _tabulated_28(),
}
#: the largest of these grows the solution past the 1e250 renormalization
FROZEN_ELLS = (0, 3, 5, 60)


def reference_integrate_log_radial(pot, ell, g, log_step=DEFAULT_LOG_STEP):
    """The RK4 loop on numpy scalars, indexed per step, as first written.

    Returns (w, w', s_end, number of renormalizations, sign changes of w
    between the grid points).
    """
    if not g > 0:
        raise DomainError("strength g must be positive")
    L = AngularMomentum(ell).L
    pts = _segment_radii(pot)
    s_pts = [math.log(p) for p in pts]
    w, dw = 1.0, L
    renormalized = nodes = 0
    for i in range(len(pts) - 1):
        sa, sb = s_pts[i], s_pts[i + 1]
        n = max(8, math.ceil((sb - sa) / log_step))
        h = (sb - sa) / n
        s_nodes = sa + h * np.arange(2 * n + 1) / 2.0
        r_nodes = np.exp(s_nodes)
        r_nodes[0] = pts[i] * (1.0 + _EDGE_NUDGE)
        r_nodes[-1] = pts[i + 1] * (1.0 - _EDGE_NUDGE)
        q = L * L - g * r_nodes ** 2 * pot.evaluate(r_nodes)
        for j in range(n):
            q0, qh, q1 = q[2 * j], q[2 * j + 1], q[2 * j + 2]
            k1w, k1d = dw, q0 * w
            k2w, k2d = dw + 0.5 * h * k1d, qh * (w + 0.5 * h * k1w)
            k3w, k3d = dw + 0.5 * h * k2d, qh * (w + 0.5 * h * k2w)
            k4w, k4d = dw + h * k3d, q1 * (w + h * k3w)
            w += (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            dw += (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            scale = abs(w) + abs(dw)
            if scale > 1e250:
                w /= scale
                dw /= scale
                renormalized += 1
            elif not math.isfinite(scale):
                raise IntegrationError(
                    f"shooting state became non-finite at g={g!r}")
            if (w < 0.0) != (nodes & 1):
                nodes += 1
    return w, dw, s_pts[-1], renormalized, nodes


def reference_kernel_matrix(pot, ell, n):
    """The Nystrom matrix from min/max outer products, as first written."""
    r_eff = pot.support_radius(1e-13)
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
    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = lo ** (ell + 1) * hi ** (-ell) / (2 * ell + 1)
        s = np.sqrt(w * v)
        matrix = s[:, None] * s[None, :] * kernel
        diag = np.diag_indices(n)
        corrected = matrix[diag] - (h * h / 12.0) * xp * xp * v
        matrix[diag] = np.maximum(corrected, 0.0)
    return matrix


#: strengths, in units of g_c, at which the product must match the loop; the
#: root itself is left out: there the normalized coefficient swings from
#: about +2 to -2 within a relative 1e-15 of g, so rounding moves it by up
#: to 1.7e-5 (the exponential at l = 5) without moving the root
PRODUCT_STRENGTHS = (0.5, 0.9, 0.999, 1.001, 1.1, 2.0)
#: absolute error allowed to the normalized coefficient and state off the
#: root: the product rounds in another order than the loop (3.6e-13
#: measured, the tabulated shape at l = 5 and 0.999 g_c)
PRODUCT_ATOL = 1e-12


def _normalized(w, dw):
    scale = max(abs(w), abs(dw), 1e-300)
    return w / scale, dw / scale


def _reference_coefficient(pot, ell, g):
    w, dw = _normalized(*reference_integrate_log_radial(pot, ell, g)[:2])
    return dw + (ell + 0.5) * w


# the shooting integration, once a loop on Python floats and now a product of
# RK4 step matrices, against the same steps on numpy scalars
@pytest.mark.parametrize("ell", FROZEN_ELLS)
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_float_rk4_loop_matches_numpy_scalar_loop(monkeypatch, name, ell):
    pot = SHAPES[name]
    L = ell + 0.5
    brackets = []

    def polish(f, a, b, **kw):
        brackets.append((a, b, kw))
        return brentq(f, a, b, **kw)

    monkeypatch.setattr(exact, "brentq", polish)
    g_c = critical_coupling_shooting(pot, ell)
    for g in (f * g_c for f in PRODUCT_STRENGTHS):
        w, dw, s_end, renormalized, nodes = reference_integrate_log_radial(pot, ell, g)
        if ell == FROZEN_ELLS[-1]:
            assert renormalized > 0
        got = _integrate_log_radial(pot, ell, g, DEFAULT_LOG_STEP, count_nodes=True)
        assert got[2] == s_end
        assert got[3] == nodes
        w_n, dw_n = _normalized(w, dw)
        assert abs(shoot_zero_energy(pot, ell, g) - (dw_n + L * w_n)) <= PRODUCT_ATOL
    # the loop's root from the solve's own bracket: at l = 60 the exponential
    # and the tabulated shape move it by 8e-13, within the polish's rtol
    (a, b, kw), = brackets
    want = brentq(lambda g: _reference_coefficient(pot, ell, g), a, b, **kw)
    assert abs(g_c / want - 1.0) <= (1e-12 if ell > 5 else 1e-14)


def test_float_rk4_loop_overflow_raises_like_numpy_scalar_loop():
    pot = Potential.tabulated([(0.1, 1e308), (0.5, 1e308), (1.0, 0.0)])
    with pytest.raises(IntegrationError) as ref:
        with np.errstate(over="ignore", invalid="ignore"):
            reference_integrate_log_radial(pot, 0, 1.0)
    with pytest.raises(IntegrationError) as got:
        shoot_zero_energy(pot, 0, 1.0)
    assert str(got.value) == str(ref.value)


def reference_step_matrices(q, h):
    """The RK4 step maps of w'' = q w, m[:, :, k] taking (w, w') before step
    k to after it: the k1..k4 stages applied to each basis vector, as the
    shooting solver built them from q before expanding them in g."""
    q0, qh, q1 = q
    half, sixth = 0.5 * h, h / 6.0

    def step(w, dw):
        k1w, k1d = dw, q0 * w
        k2w, k2d = dw + half * k1d, qh * (w + half * k1w)
        k3w, k3d = dw + half * k2d, qh * (w + half * k2w)
        k4w, k4d = dw + h * k3d, q1 * (w + h * k3w)
        return (w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
                dw + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d))

    (a, c), (b, d) = step(1.0, 0.0), step(0.0, 1.0)
    return np.array([[a, b], [c, d]])


def reference_log_grid(pot, log_step=DEFAULT_LOG_STEP):
    """The radii at the start, midpoint and end of every RK4 step (rows 0,
    1, 2) and the steps in log-radius, segment by segment."""
    pts = _segment_radii(pot)
    s_pts = [math.log(p) for p in pts]
    radii, steps = [], []
    for i in range(len(pts) - 1):
        sa, sb = s_pts[i], s_pts[i + 1]
        n = max(8, math.ceil((sb - sa) / log_step))
        h = (sb - sa) / n
        r = np.exp(sa + h * np.arange(2 * n + 1) / 2.0)
        r[0] = pts[i] * (1.0 + _EDGE_NUDGE)
        r[-1] = pts[i + 1] * (1.0 - _EDGE_NUDGE)
        radii.append(np.stack([r[0:-1:2], r[1::2], r[2::2]]))
        steps.append(np.full(n, h))
    return np.concatenate(radii, axis=1), np.concatenate(steps)


def reference_step_coefficients(pot, ell):
    """The step polynomial's coefficients and kappa, stacked from 12
    temporaries as first written."""
    r, h = reference_log_grid(pot)
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
    return coeffs, kappa


def reference_compose(later, earlier):
    """The scaled 2x2 products, each round in a fresh array, as first written."""
    p = np.einsum("ikn,kjn->ijn", later, earlier)
    p /= np.abs(p).reshape(4, -1).max(axis=0)
    return p


def reference_product(m):
    while m.shape[2] > 1:
        pairs = m.shape[2] // 2
        p = reference_compose(m[..., 1:2 * pairs:2], m[..., 0:2 * pairs:2])
        m = np.concatenate([p, m[..., 2 * pairs:]], axis=2)
    return m


def reference_prefix_products(m):
    d = 1
    while d < m.shape[2]:
        m = np.concatenate([m[..., :d], reference_compose(m[..., d:], m[..., :-d])],
                           axis=2)
        d *= 2
    return m


#: every shape, and the 28-knot grid scaled to the ends of the float range,
#: where the square of r^2 v overflows or underflows unless it is scaled
STEP_CASES = [(name, 1.0) for name in sorted(SHAPES)] + [
    ("tabulated28", 1e-300), ("tabulated28", 1e300)]


# the step maps as quadratics in the scaled strength against the stage
# formulas at the same strength
@pytest.mark.parametrize("ell", FROZEN_ELLS)
@pytest.mark.parametrize("name, scale", STEP_CASES)
def test_step_polynomial_matches_stage_formulas(name, scale, ell):
    pot = _tabulated_28(scale) if scale != 1.0 else SHAPES[name]
    L = ell + 0.5
    r, h = reference_log_grid(pot)
    r2, v = r ** 2, pot.evaluate(r)
    poly = exact._build_step_polynomial(pot, DEFAULT_LOG_STEP, ell)
    assert poly.coeffs.shape == (3, 2, 2, h.size)
    # both sides round q = L^2 - g r^2 v to about eps L^2 where it cancels,
    # which reaches a step map as about h eps L^2 of its largest entry
    # (h L^2 = 15 at l = 60); measured 30 ulps at l = 60, 1.5 for l <= 5
    bound = 8.0 * np.finfo(float).eps * (1.0 + h * L * L)
    g_c = critical_coupling_shooting(SHAPES[name], ell) / scale
    for g in (f * g_c for f in PRODUCT_STRENGTHS):
        want = reference_step_matrices(L * L - g * r2 * v, h)
        with np.errstate(over="ignore", invalid="ignore"):
            got = poly.matrices(g)
        assert np.all(np.abs(got - want) <= bound * np.abs(want).max(axis=(0, 1))), g


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


# the coefficients filled row by row and the products written into two
# reused buffers, against the stacked rows and the fresh array per round
@pytest.mark.parametrize("ell", FROZEN_ELLS)
@pytest.mark.parametrize("name, scale", STEP_CASES)
def test_in_place_shot_matches_fresh_arrays_bit_for_bit(name, scale, ell):
    pot = _tabulated_28(scale) if scale != 1.0 else SHAPES[name]
    L = AngularMomentum(ell).L
    coeffs, kappa = reference_step_coefficients(pot, ell)
    s_end = math.log(_segment_radii(pot)[-1])
    poly = exact._build_step_polynomial(pot, DEFAULT_LOG_STEP, ell)
    assert poly.coeffs.tobytes() == coeffs.tobytes()
    assert (poly.kappa, poly.s_end) == (kappa, s_end)
    reference = exact._StepPolynomial(coeffs, kappa, s_end)
    g_c = critical_coupling_shooting(SHAPES[name], ell) / scale
    for g in (f * g_c for f in PRODUCT_STRENGTHS):
        with np.errstate(over="ignore", invalid="ignore"):
            m = reference.matrices(g)
            end = reference_product(m)
            prefix = reference_prefix_products(m)
        assert np.isfinite(end).all() and np.isfinite(prefix).all()
        w, dw = end[:, 0, -1] + end[:, 1, -1] * L
        got = _integrate_log_radial(pot, ell, g, DEFAULT_LOG_STEP)
        assert _bits(*got[:3]) == _bits(w, dw, s_end) and got[3] == 0
        w, dw = prefix[:, 0] + prefix[:, 1] * L
        negative = np.concatenate([[False], w < 0.0])
        nodes = int(np.count_nonzero(negative[1:] != negative[:-1]))
        got = _integrate_log_radial(pot, ell, g, DEFAULT_LOG_STEP, count_nodes=True)
        assert _bits(*got[:3]) == _bits(w[-1], dw[-1], s_end) and got[3] == nodes


@pytest.mark.parametrize("ell", (0, 1, 3))
def test_shooting_threshold_scales_at_the_ends_of_the_float_range(ell):
    # g_c(lambda v) = g_c(v) / lambda; the polish must keep its relative
    # tolerance for thresholds near 1e-300, and the step maps must neither
    # overflow nor underflow for a shape near 1e300 or 1e-300
    want = critical_coupling_shooting(_tabulated_28(), ell)
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        got = scale * critical_coupling_shooting(_tabulated_28(scale), ell)
        assert abs(got / want - 1.0) <= 1e-12, scale


#: relative error allowed to the operator's products and eigenvalue: the
#: cumulative sums add up to n = 400 terms in another order than the matrix
#: product, each sum within n ulps of the exact one
KERNEL_RTOL = 1e-13


def assert_operator_matches_min_max_kernel(pot, ell, n):
    disc = kernel_discretization(pot, ell, n)
    ref = reference_kernel_matrix(pot, ell, n)
    u = np.random.default_rng(n + ell).uniform(0.5, 1.5, n)
    assert np.all(np.abs(disc @ u - ref @ u) <= KERNEL_RTOL * (np.abs(ref) @ u))
    want = largest_eigenvalue(ref)
    assert abs(largest_eigenvalue(disc) - want) <= KERNEL_RTOL * want


@pytest.mark.parametrize("n", (50, 400))
@pytest.mark.parametrize("ell", (0, 3, 5))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_in_place_kernel_matches_min_max_kernel(name, ell, n):
    assert_operator_matches_min_max_kernel(SHAPES[name], ell, n)


@pytest.mark.parametrize("n", (50, 400))
@pytest.mark.parametrize("ell", (0, 3, 5))
def test_kernel_operator_matches_min_max_kernel_on_sweep_grid(workloads, ell, n):
    # the 16-knot grid of the benchmark's sweep/16/0 items
    pot = Potential.tabulated(workloads.sweep_grid(16, 0))
    assert_operator_matches_min_max_kernel(pot, ell, n)


@pytest.mark.parametrize("n, ell", [(400, 60), (1600, 50), (1600, 60)])
def test_in_place_kernel_matches_where_min_max_kernel_is_finite(n, ell):
    # x_1^(-l) overflows here, leaving non-finite rows in both kernels
    pot = Potential.square_well()
    ref = reference_kernel_matrix(pot, ell, n)
    got = kernel_discretization(pot, ell, n) @ np.ones(n)
    finite = np.isfinite(ref).all(axis=1)
    assert not finite.all()
    assert np.array_equal(np.isfinite(got), finite)


# -- shooting scan past closely spaced thresholds ----------------------------

def test_shooting_square_well_high_ell_finds_first_threshold():
    # thresholds here are less than 1.25x apart, so the geometric scan can
    # step over two at once; the node count must send it back
    pot = Potential.square_well()
    for ell in range(40, 61):
        got = critical_coupling_shooting(pot, ell)
        assert abs(got / square_well_exact(ell) - 1.0) <= 1e-6, ell


def test_shooting_scan_started_past_two_thresholds_raises():
    # from g = 30 the s-wave square well already binds two states, so every
    # bracket the scan finds holds the third threshold, 61.7, not the first
    with pytest.raises(AccuracyError,
                       match="no scan step isolated the first threshold above g = 30"):
        critical_coupling_shooting(Potential.square_well(), 0, g_start=30.0)


def reference_shooting(pot, ell, g_start, log_step=DEFAULT_LOG_STEP):
    """The shooting scan as it was written out by hand before the shared
    bracket search, kept as the reference that search must match."""
    pot = pot.unit

    def coeff(g):
        return exact.shoot_zero_energy(pot, ell, g, log_step)

    # the halving walk lands on its floor rather than passing it
    a, top, floor = g_start, math.inf, 0.5e-6 * g_start
    fa = coeff(a)
    while fa <= 0:
        if a <= floor:
            raise NoBoundStateError("no subcritical strength found below the scan start")
        top, a = a, max(0.5 * a, floor)
        fa = coeff(a)
    cap = g_start * 1e4
    a0, fa0 = a, fa
    factor = 1.25
    for _ in range(exact._SCAN_REFINEMENTS + 1):
        a, fa = a0, fa0
        # the upward scan lands on the last strength of the halving walk or
        # on cap * factor rather than passing it
        end = min(top, cap * factor)
        while True:
            if a >= end:
                raise NoBoundStateError(
                    f"growing-mode coefficient did not change sign below g = {cap:g}")
            b = min(a * factor, end)
            fb = coeff(b)
            if fb <= 0:
                break
            a, fa = b, fb
        if _integrate_log_radial(pot, ell, b, log_step, count_nodes=True)[3] <= 1:
            scanned = {a: fa, b: fb}
            return brentq(lambda g: scanned.pop(g) if g in scanned else coeff(g),
                          a, b, rtol=1e-12, xtol=1e-300)
        factor = math.sqrt(factor)
    raise AccuracyError(
        f"no scan step isolated the first threshold above g = {a0:g}")


def _shooting_outcome(solve):
    try:
        return solve()
    except (AccuracyError, NoBoundStateError) as exc:
        return type(exc), str(exc)


# (shape, l, g_start): the halving walk below a g_start past the first
# threshold, the cap, every refinement past two thresholds (from g_start,
# and from where the halving walk ends), and the scans from the default start
SHOOTING_CASES = {
    "square_well/0/halving": (Potential.square_well(), 0, 5.0),
    "square_well/0/cap": (Potential.square_well(), 0, 1e-9),
    "square_well/0/refinements": (Potential.square_well(), 0, 30.0),
    "square_well/0/halving, then refinements": (Potential.square_well(), 0, 70.0),
    "square_well/45/refined": (Potential.square_well(), 45, None),
    "exponential/2": (Potential.exponential(), 2, None),
    "yukawa/0": (Potential.yukawa(), 0, None),
}


def _traced_shooting(monkeypatch, solve, coefficient=shoot_zero_energy):
    """The outcome of solve() and the strengths it integrates, in order."""
    strengths = []

    def spy(*args, **kwargs):
        strengths.append(args[2])
        return coefficient(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(exact, "shoot_zero_energy", spy)
        return _shooting_outcome(solve), strengths


@pytest.mark.parametrize("case", sorted(SHOOTING_CASES))
def test_shooting_scan_matches_the_hand_written_scan(monkeypatch, case):
    pot, ell, g_start = SHOOTING_CASES[case]
    got = _traced_shooting(
        monkeypatch, lambda: critical_coupling_shooting(pot, ell, g_start=g_start))
    if g_start is None:
        moment = pot.support_integral(lambda r: r * pot.evaluate(r), DEFAULT_CONFIG)
        g_start = 0.98 * (2 * ell + 1) / moment
    want = _traced_shooting(monkeypatch, lambda: reference_shooting(pot, ell, g_start))
    assert got[0] == want[0]
    # the reference's strengths in its order, each integrated once: a finer
    # scan can land bit for bit on a strength an earlier scan integrated
    assert got[1] == list(dict.fromkeys(want[1]))


def test_shooting_scan_floor_matches_the_hand_written_scan(monkeypatch):
    # a coefficient that is never positive exhausts the halving walk
    pot = Potential.exponential()
    got = _traced_shooting(monkeypatch,
                           lambda: critical_coupling_shooting(pot, 0, g_start=3.0),
                           lambda *args, **kwargs: -1.0)
    want = _traced_shooting(monkeypatch, lambda: reference_shooting(pot, 0, 3.0),
                            lambda *args, **kwargs: -1.0)
    assert got == want
    assert got[0] == (NoBoundStateError,
                      "no subcritical strength found below the scan start")


# -- power iteration on a non-finite matrix -----------------------------------

def test_power_iteration_stops_at_first_non_finite_iterate():
    m = np.array([[np.inf, 1.0], [1.0, 2.0]])
    with pytest.raises(AccuracyError,
                       match="power iteration produced a non-finite iterate"):
        largest_eigenvalue(m)
    with pytest.raises(AccuracyError,
                       match="power iteration produced a non-finite iterate"):
        largest_eigenvalue(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_power_iteration_stagnates_on_a_near_degenerate_matrix():
    # the two eigenvalues differ by 1e-5, so the quotient creeps for longer
    # than the iteration budget
    with pytest.raises(AccuracyError,
                       match="power iteration stagnated before reaching tolerance"):
        largest_eigenvalue(np.diag([1.0, 0.99999]))


def test_nystrom_overflowing_kernel_is_a_numerical_error(capsys):
    # x_1^61 is subnormal and x_1^-60 overflows: one inf entry in the kernel
    with np.errstate(over="ignore"):
        with pytest.raises(AccuracyError,
                           match="power iteration produced a non-finite iterate"):
            critical_coupling_nystrom(Potential.square_well(), 60, 400)
        assert main(["compute", "--potential", "square_well", "--ell", "60",
                     "--methods", "nystrom"]) == 3
    err = capsys.readouterr().err
    assert "numerical error: power iteration produced a non-finite iterate" in err
    assert "Traceback" not in err


def test_nystrom_overflowing_kernel_prints_no_warning():
    # x^-60 overflows while the kernel is built; only the documented
    # numerical-error line may reach stderr
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gcrit.cli", "compute", "--potential", "square_well",
         "--ell", "60", "--methods", "nystrom"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert "numerical error: power iteration produced a non-finite iterate" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


# -- the polish reuses the scan's values at the bracket ends ------------------

@pytest.mark.parametrize("name", ["exponential", "square_well", "shell"])
def test_shooting_integrates_each_strength_once(monkeypatch, name):
    pot = SHAPES[name]
    for ell in (0, 3):
        # the old polish, which integrates both bracket ends again
        with monkeypatch.context() as m:
            m.setattr(exact, "brentq", lambda f, a, b, **kw: brentq(
                lambda g: shoot_zero_energy(pot, ell, g), a, b, **kw))
            want = critical_coupling_shooting(pot, ell)
        strengths = []

        def spy(*args, **kwargs):
            strengths.append(args[2])
            return shoot_zero_energy(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(exact, "shoot_zero_energy", spy)
            got = critical_coupling_shooting(pot, ell)
        assert got == want, ell
        assert len(strengths) == len(set(strengths)), ell


@pytest.mark.parametrize("make", [Potential.exponential, Potential.yukawa,
                                  Potential.square_well,
                                  lambda: Potential.exponential(R=2.0),
                                  lambda: Potential.shell(0.1)])
def test_shooting_computes_the_support_radius_once(monkeypatch, make):
    computed = []
    support_radius = Potential.support_radius

    def counted(self, tail_tol, max_radius=1e4):
        computed.append(tail_tol)
        return support_radius(self, tail_tol, max_radius)

    monkeypatch.setattr(Potential, "support_radius", counted)
    got = critical_coupling_shooting(make(), 3)
    assert len(computed) == 1
    # the radius computed afresh on every integration, as it was before
    monkeypatch.setattr(Potential, "support_radius",
                        lambda self, tail_tol, max_radius=1e4:
                        support_radius(self, tail_tol, max_radius))
    assert critical_coupling_shooting(make(), 3) == got


@pytest.mark.parametrize("make", [Potential.exponential, Potential.yukawa,
                                  Potential.square_well,
                                  lambda: Potential.exponential(R=2.0),
                                  lambda: Potential.shell(0.1)])
def test_shooting_builds_the_step_polynomial_once_per_solve(monkeypatch, make):
    builds, shots = [], {}
    build = exact._build_step_polynomial

    def counted(*args):
        builds.append(args)
        return build(*args)

    def spy(pot, ell, g, *args):
        shots[g] = shoot_zero_energy(pot, ell, g, *args)
        return shots[g]

    with monkeypatch.context() as m:
        m.setattr(exact, "_build_step_polynomial", counted)
        m.setattr(exact, "shoot_zero_energy", spy)
        critical_coupling_shooting(make(), 3)
    assert len(builds) == 1
    assert len(shots) > 1
    # outside a solve every shot builds its own polynomial, with the same bits
    for g, coefficient in shots.items():
        assert shoot_zero_energy(make(), 3, g) == coefficient
