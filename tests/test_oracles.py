"""The solvers judged by the exact shell threshold of `oracles`."""

import math

import mpmath
import pytest

from gcrit.exact import critical_coupling_nystrom, critical_coupling_shooting
from gcrit.potentials import Potential
from oracles import shell_mismatch, shell_threshold

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
