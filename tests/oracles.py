"""Exact thresholds that judge the solvers from outside the package.

Neither solver may call these; they use scipy, a test dependency.

The shell v(r) = 1/w on [1, 1 + w] (`Potential.shell(w)` at unit radius):
inside r < 1 the regular zero-energy solution is u = r^(l+1).  On the shell
u'' = (l(l+1)/r^2 - k^2) u with k = sqrt(g/w), solved by the Riccati-Bessel
functions S(x) = x j_l(x) and C(x) = x y_l(x) of x = k r (DLMF 10.49), whose
Wronskian S C' - S' C is 1.  Outside, the solution that neither grows nor
binds is r^(-l), so the threshold is the first g at which r u' + l u = 0 at
r = 1 + w.
"""

import math

from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn


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
