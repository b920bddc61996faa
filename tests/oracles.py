"""Exact thresholds that judge the solvers from outside the package.

Neither solver may call these; they use scipy and mpmath, test dependencies.

The shell v(r) = 1/w on [1, 1 + w] (`Potential.shell(w)` at unit radius):
inside r < 1 the regular zero-energy solution is u = r^(l+1).  On the shell
u'' = (l(l+1)/r^2 - k^2) u with k = sqrt(g/w), solved by the Riccati-Bessel
functions S(x) = x j_l(x) and C(x) = x y_l(x) of x = k r (DLMF 10.49), whose
Wronskian S C' - S' C is 1.  Outside, the solution that neither grows nor
binds is r^(-l), so the threshold is the first g at which r u' + l u = 0 at
r = 1 + w.

A tabulated grid (`Potential.tabulated`) holds v0 below its first knot and
is linear between knots, so at l = 0 the zero-energy equation u'' = -g v u
solves exactly on each segment: u = sin(k r)/k up to the first knot, sines
or a line where v is flat, and Airy functions where it slopes.  With
v = a + b t (t from the segment's start), z = -(g b)^(1/3) (t + a/b) turns
the equation into u_zz = z u (DLMF 9.2.1), solved by Ai(z) and Bi(z),
whose Wronskian is 1/pi (DLMF 9.2.7).  v >= 0 keeps z <= 0, where both
oscillate and neither overflows.  |z| stays below 76 on the benchmark's
pool grids; a nearly flat sloped segment puts z much further out, where
the phases of Ai and Bi lose digits.  Beyond the last knot u is a line,
so the threshold is the first g at which u' = 0 there.
"""

import math

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import airy, spherical_jn, spherical_yn


def _riccati_bessel(ell, x):
    """S, S', C, C' at x."""
    j, dj = spherical_jn(ell, x), spherical_jn(ell, x, derivative=True)
    y, dy = spherical_yn(ell, x), spherical_yn(ell, x, derivative=True)
    return x * j, j + x * dj, x * y, y + x * dy


def shell_mismatch(ell: int, width: float, g: float) -> float:
    """(r u' + l u) / max(|u|, |r u'|) at r = 1 + width for the solution
    u = r^(l+1) inside the shell: positive below the first threshold."""
    k = math.sqrt(g / width)
    s, ds, c, dc = _riccati_bessel(ell, k)
    # u = a S(kr) + b C(kr) with u(1) = 1 and u'(1) = l + 1 (Wronskian 1)
    a = dc - c * (ell + 1) / k
    b = (ell + 1) / k * s - ds
    s, ds, c, dc = _riccati_bessel(ell, k * (1.0 + width))
    u = a * s + b * c
    ru = (1.0 + width) * k * (a * ds + b * dc)
    return (ru + ell * u) / max(abs(u), abs(ru))


def shell_threshold(ell: int, width: float) -> float:
    """Critical strength of `Potential.shell(width)` at partial wave l.

    It tends to the delta ring's 2l + 1 as width -> 0 and lies within 13% of
    it for widths up to 0.1, where a scan up by 1.02x from (2l + 1)/2
    brackets the first sign change; brentq polishes it."""
    a = 0.5 * (2 * ell + 1)
    if not shell_mismatch(ell, width, a) > 0.0:
        raise ValueError(f"shell of width {width} already binds at g = {a}")
    while True:
        b = 1.02 * a
        if shell_mismatch(ell, width, b) <= 0.0:
            return brentq(lambda g: shell_mismatch(ell, width, g), a, b,
                          xtol=1e-300, rtol=4 * 2.0 ** -52)
        a = b


def shell_swave_threshold(width: float) -> float:
    """Critical strength of `Potential.shell(width)` at l = 0, to any width.

    On the shell u = cos(k t) + sin(k t)/k of t = r - 1 continues u = r, and
    u' = 0 at t = w gives theta tan theta = w for theta = k w, so the
    threshold is theta^2/w with theta the root in (0, pi/2), found at 40
    digits in mpmath.  Unlike `shell_threshold`, it holds its accuracy as
    w -> 0, where it tends to 1 - w/3."""
    with mpmath.workdps(40):
        w = mpmath.mpf(width)
        theta = mpmath.findroot(lambda t: t * mpmath.tan(t) - w, mpmath.sqrt(w))
        return float(theta ** 2 / w)


def _grid_segments(grid):
    """(r0, v0) and, per knot interval, (length, v at its start, slope)."""
    r, v = np.array(grid, dtype=float).T
    return (r[0], v[0]), list(zip(np.diff(r).tolist(), v[:-1].tolist(),
                                  (np.diff(v) / np.diff(r)).tolist()))


def _flat(k2, d):
    """(u, u') transfer over a length d of u'' = -k2 u."""
    if k2 == 0.0:
        return ((1.0, d), (0.0, 1.0))
    k = math.sqrt(k2)
    c, s = math.cos(k * d), math.sin(k * d)
    return ((c, s / k), (-k * s, c))


def grid_mismatch(grid, g: float) -> float:
    """u' / hypot(u, u') at the last knot of `grid` for the regular l = 0
    solution at strength g: positive below the first threshold."""
    (r0, v0), segments = _grid_segments(grid)
    (_, u), (_, du) = _flat(g * v0, r0)   # from u(0) = 0, u'(0) = 1
    length, a, b = (np.array(c) for c in zip(*segments))
    sloped = b != 0.0
    c = np.cbrt(g * b[sloped])
    z0 = -c * (a[sloped] / b[sloped])
    z1 = -c * (length[sloped] + a[sloped] / b[sloped])
    ai0, dai0, bi0, dbi0 = airy(z0)
    ai1, dai1, bi1, dbi1 = airy(z1)
    j = 0
    for d, v, slope in segments:
        if slope == 0.0:
            (m00, m01), (m10, m11) = _flat(g * v, d)
            u, du = m00 * u + m01 * du, m10 * u + m11 * du
        else:
            # u = alpha Ai + beta Bi, d/dt = -c d/dz
            w = -du / c[j]
            alpha = math.pi * (dbi0[j] * u - bi0[j] * w)
            beta = math.pi * (ai0[j] * w - dai0[j] * u)
            u = alpha * ai1[j] + beta * bi1[j]
            du = -c[j] * (alpha * dai1[j] + beta * dbi1[j])
            j += 1
        scale = math.hypot(u, du)
        u, du = u / scale, du / scale
    return du


def grid_threshold(grid) -> float:
    """Critical strength of `Potential.tabulated(grid)` at l = 0, for a
    nonnegative grid whose last value is 0.

    A scan up by 1.02x from the Bargmann bound 1 / (integral of r v), which
    lies below it, brackets the first sign change; brentq polishes it."""
    (r0, v0), segments = _grid_segments(grid)
    moment, r = 0.5 * v0 * r0 * r0, r0
    for d, v, slope in segments:
        # Simpson's rule is exact for the quadratic r v
        moment += d / 6.0 * (r * v + 4.0 * (r + 0.5 * d) * (v + 0.5 * slope * d)
                             + (r + d) * (v + slope * d))
        r += d
    a = 1.0 / moment
    if not grid_mismatch(grid, a) > 0.0:
        raise ValueError(f"grid already binds at its Bargmann bound g = {a}")
    while True:
        b = 1.02 * a
        if grid_mismatch(grid, b) <= 0.0:
            return brentq(lambda g: grid_mismatch(grid, g), a, b,
                          xtol=1e-300, rtol=4 * 2.0 ** -52)
        a = b
