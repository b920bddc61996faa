"""The solvers judged by the exact thresholds of `oracles`: the shell at
every l, and the benchmark's tabulated sweep-pool grids at l = 0."""

import math

import mpmath
import pytest

from gcrit.exact import critical_coupling_nystrom, critical_coupling_shooting
from gcrit.potentials import Potential
from oracles import grid_mismatch, grid_threshold, shell_mismatch, shell_threshold

WIDTHS = (0.1, 1e-3)

#: shooting's relative error against the shell threshold at the default log
#: step, as measured; the tests allow 3x, so a 10x regression fails
SHOOTING_ERROR = {
    0.1: (3.5e-10, 2.3e-9, 5.5e-9, 9.9e-9, 1.5e-8, 2.1e-8),
    1e-3: (2.1e-12, 1.8e-11, 5.1e-11, 9.9e-11, 1.6e-10, 2.5e-10),
}

#: Nystrom's relative error at n = 400 on the shell, as measured.  The grid
#: ignores the shell's breakpoints, so it is +4.7e-3 to +5.7e-3 at width 0.1
#: and -0.46 to -0.47 at width 1e-3; a grid that honours them tightens these.
NYSTROM_400_GAP = {0.1: 5.7e-3, 1e-3: 0.468}

#: shooting's relative error at l = 0 against the exact threshold of each
#: sweep-pool grid (shapes 0-7), by knot count, as measured; always high.
#: The tests allow 3x.
GRID_SHOOTING_ERROR = {
    16: (4.1e-11, 3.1e-11, 2.3e-11, 1.1e-10, 1.2e-11, 3.5e-11, 1.5e-11, 3.3e-11),
    28: (1.4e-11, 1.8e-11, 1.9e-11, 4.9e-11, 1.3e-11, 1.8e-10, 9.1e-12, 1.8e-11),
    64: (1.9e-11, 5.9e-12, 8.5e-12, 2.2e-11, 7.2e-12, 4.1e-12, 1.3e-11, 3.4e-12),
}

#: the range of Nystrom's relative error at n = 400 and l = 0 over the eight
#: sweep-pool grids of a knot count, as measured: high on 16 and 28 knots,
#: low on 64.  `gcrit check` asks the solvers to agree to 1e-5.
GRID_NYSTROM_400_GAP = {16: (0.0, 2.3e-5), 28: (0.0, 4.1e-5), 64: (-2.8e-5, 0.0)}


def _mpmath_shell_threshold(ell: int, width: float, guess: float):
    """The oracle's matching condition at 30 digits, with the derivative
    (x f_l(x))' = x f_(l-1)(x) - l f_l(x) of a spherical Bessel function f."""
    w = mpmath.mpf(width)

    def riccati(x):
        half = mpmath.sqrt(mpmath.pi * x / 2)
        js = [half * mpmath.besselj(ell + o, x) for o in (0.5, -0.5)]
        ys = [half * mpmath.bessely(ell + o, x) for o in (0.5, -0.5)]
        return js[0], js[1] - ell * js[0] / x, ys[0], ys[1] - ell * ys[0] / x

    def mismatch(g):
        k = mpmath.sqrt(g / w)
        s, ds, c, dc = riccati(k)
        a, b = dc - c * (ell + 1) / k, (ell + 1) / k * s - ds
        s, ds, c, dc = riccati(k * (1 + w))
        return (1 + w) * k * (a * ds + b * dc) + ell * (a * s + b * c)

    return mpmath.findroot(mismatch, mpmath.mpf(guess))


@pytest.mark.parametrize("ell, width", [(0, 0.1), (5, 1e-3)])
def test_shell_oracle_matches_mpmath(ell, width):
    # measured 8.4e-16 and 1.8e-13: r u' sums terms k = sqrt(g/w) times larger
    g = shell_threshold(ell, width)
    with mpmath.workdps(30):
        want = _mpmath_shell_threshold(ell, width, g)
        assert abs(g - want) <= 5e-13 * want


def test_shell_oracle_brackets_the_first_threshold():
    for width in WIDTHS:
        for ell in range(6):
            g = shell_threshold(ell, width)
            # the delta ring's threshold is the limit as width -> 0
            assert abs(g / (2 * ell + 1) - 1.0) < 2.5 * width
            assert shell_mismatch(ell, width, 0.999 * g) > 0.0
            assert shell_mismatch(ell, width, 1.001 * g) < 0.0


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("ell", range(6))
def test_shooting_matches_shell_threshold(ell, width):
    want = shell_threshold(ell, width)
    got = critical_coupling_shooting(Potential.shell(width), ell)
    assert abs(got - want) <= 3.0 * SHOOTING_ERROR[width][ell] * want


@pytest.mark.parametrize("width", WIDTHS)
def test_nystrom_400_shell_gap(width):
    for ell in range(6):
        want = shell_threshold(ell, width)
        got = critical_coupling_nystrom(Potential.shell(width), ell, n=400)
        assert math.isfinite(got)
        assert abs(got - want) <= NYSTROM_400_GAP[width] * want, ell


def _mpmath_grid_threshold(grid, guess):
    """The oracle's l = 0 transfer through the grid, at the working
    precision of mpmath, solved for u' = 0 at the last knot."""
    pts = [(mpmath.mpf(r), mpmath.mpf(v)) for r, v in grid]

    def mismatch(g):
        r0, v0 = pts[0]
        k = mpmath.sqrt(g * v0)
        u, du = mpmath.sin(k * r0) / k, mpmath.cos(k * r0)
        for (ra, va), (rb, vb) in zip(pts[:-1], pts[1:]):
            d, b = rb - ra, (vb - va) / (rb - ra)
            if b == 0:
                k = mpmath.sqrt(g * va)
                c, s = mpmath.cos(k * d), mpmath.sin(k * d)
                u, du = c * u + s / k * du, -k * s * u + c * du
                continue
            c = mpmath.cbrt(g * b) if b > 0 else -mpmath.cbrt(-g * b)
            z0, z1 = -c * va / b, -c * (d + va / b)
            w = -du / c
            alpha = mpmath.pi * (mpmath.airybi(z0, 1) * u - mpmath.airybi(z0) * w)
            beta = mpmath.pi * (mpmath.airyai(z0) * w - mpmath.airyai(z0, 1) * u)
            u = alpha * mpmath.airyai(z1) + beta * mpmath.airybi(z1)
            du = -c * (alpha * mpmath.airyai(z1, 1) + beta * mpmath.airybi(z1, 1))
        return du

    return mpmath.findroot(mismatch, mpmath.mpf(guess))


@pytest.mark.parametrize("knots, shape", [(16, 3), (64, 3)])
def test_grid_oracle_matches_mpmath(workloads, knots, shape):
    # measured 1.7e-15 and 1.8e-16
    grid = workloads.sweep_grid(knots, shape)
    g = grid_threshold(grid)
    assert grid_mismatch(grid, 0.999 * g) > 0.0 > grid_mismatch(grid, 1.001 * g)
    with mpmath.workdps(40):
        want = _mpmath_grid_threshold(grid, g)
        assert abs(g - want) <= 5e-15 * want


@pytest.mark.parametrize("knots", sorted(GRID_SHOOTING_ERROR))
def test_shooting_matches_grid_threshold(workloads, knots):
    for shape, err in enumerate(GRID_SHOOTING_ERROR[knots]):
        grid = workloads.sweep_grid(knots, shape)
        want = grid_threshold(grid)
        got = critical_coupling_shooting(Potential.tabulated(grid), 0)
        assert abs(got - want) <= 3.0 * err * want, shape


@pytest.mark.parametrize("knots", sorted(GRID_NYSTROM_400_GAP))
def test_nystrom_400_grid_gap(workloads, knots):
    lo, hi = GRID_NYSTROM_400_GAP[knots]
    for shape in range(8):
        grid = workloads.sweep_grid(knots, shape)
        want = grid_threshold(grid)
        got = critical_coupling_nystrom(Potential.tabulated(grid), 0, n=400)
        assert lo * want <= got - want <= hi * want, shape
