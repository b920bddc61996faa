"""Scalar minimization on a logarithmic axis, and a sign-change search.

The bound optimizations (GGMT power p, the matching radius a of both
Calogero conditions, trial-function power p) are smooth and empirically
unimodal but their optima spread over two decades, so the search works in
log space: a 13-point geometric pre-scan locates a bracket, the bracket's
log width is doubled while the best sample sits on a soft edge, and
golden-section refinement finishes to a relative width of 1e-6.  For each
bound, `bounds._optimize_bound` sets the range and the trial accuracy and
turns rejected trials into inf.

`bracket` and `bisect` find the first point where an f turns nonnegative (a
Calogero II threshold, the first shooting threshold, a tail radius): a
geometric walk that never steps past an end of its range, then halving.
`brentq` polishes a sign change to a root (the shooting threshold, the stis
closed form): scipy's Brent iteration rewritten in Python with the same
float operations in the same order, so it returns scipy's root bit for bit
and the package imports no scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, IntegrationError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN = 13      # samples of the initial range
_REL_TOL = 1e-6    # log width (relative width in x) where refinement stops
_MAX_EXPANSIONS = 4  # doublings of a soft-edged bracket before giving up


@dataclass(frozen=True)
class ScalarMinResult:
    x: float
    evaluations: int
    edge_hit: bool
    bracket: tuple[float, float]   # the golden-section refinement's final bracket


def minimize_scalar_log(f, lo: float, hi: float, *,
                        hard_edges: bool = False) -> ScalarMinResult:
    """Minimize f over [lo, hi] on a log axis.

    With hard_edges=False, whenever the best sample lands on an edge the
    bracket is extended past that edge by its own log width, which doubles
    it, with _PRESCAN - 1 new samples; after _MAX_EXPANSIONS of them it
    raises AccuracyError.  With hard_edges=True an edge minimum is legitimate
    (capped parameter ranges) and is refined in place with a warning at the
    upper cap.
    """
    if not (0 < lo < hi):
        raise AccuracyError(f"invalid search range [{lo}, {hi}]")
    nev = 0

    def eval_log(s):
        nonlocal nev
        nev += 1
        return f(math.exp(s))

    a, b = math.log(lo), math.log(hi)
    n = _PRESCAN
    ss = [a + (b - a) * i / (n - 1) for i in range(n)]
    fs = [eval_log(s) for s in ss]

    expansions = 0
    while not hard_edges:
        imin = min(range(len(fs)), key=lambda i: fs[i])
        if 0 < imin < len(fs) - 1:
            break
        if expansions >= _MAX_EXPANSIONS:
            raise AccuracyError(
                "optimizer failed to bracket a minimum after "
                f"{_MAX_EXPANSIONS} expansions of [{lo}, {hi}]")
        expansions += 1
        # n - 1 steps outward from the edge, evaluated in ascending order
        step = (a - b if imin == 0 else b - a) / (n - 1)
        new = sorted(ss[imin] + step * (k + 1) for k in range(n - 1))
        fnew = [eval_log(s) for s in new]
        if imin == 0:
            ss, fs, a = new + ss, fnew + fs, new[0]
        else:
            ss, fs, b = ss + new, fs + fnew, new[-1]

    imin = min(range(len(fs)), key=lambda i: fs[i])
    edge_hit = imin == 0 or imin == len(fs) - 1
    if edge_hit and hard_edges and imin == len(fs) - 1:
        warnings.warn("minimum sits at the upper parameter cap", stacklevel=2)
    s_lo = ss[max(imin - 1, 0)]
    s_hi = ss[min(imin + 1, len(ss) - 1)]

    # golden-section refinement; log width equals relative width in x
    c = s_hi - _INVPHI * (s_hi - s_lo)
    d = s_lo + _INVPHI * (s_hi - s_lo)
    fc, fd = eval_log(c), eval_log(d)
    while s_hi - s_lo > _REL_TOL:
        if fc <= fd:
            s_hi, d, fd = d, c, fc
            c = s_hi - _INVPHI * (s_hi - s_lo)
            fc = eval_log(c)
        else:
            s_lo, c, fc = c, d, fd
            d = s_lo + _INVPHI * (s_hi - s_lo)
            fd = eval_log(d)
    s_best = c if fc <= fd else d
    return ScalarMinResult(math.exp(s_best), nev, edge_hit,
                           (math.exp(s_lo), math.exp(s_hi)))


def bracket(f, x: float, shrink: float, grow: float, lo_end: float, hi_end: float):
    """Steps down from x by the factor `shrink` while f >= 0, then up by
    `grow` while f < 0; returns (lo, hi) with f(lo) < 0 <= f(hi), (None,
    last hi) if f >= 0 at lo_end, or (last lo, None) if f < 0 at or past
    hi_end.  A step lands on lo_end, or on the lesser of hi_end and the
    walk down's last point, rather than pass it: after x no point outside
    [lo_end, hi_end] is tried, and no point twice."""
    top = None   # the last point of the walk down, where f >= 0
    while f(x) >= 0:
        top = x
        if x <= lo_end:
            return None, x
        x = max(x / shrink, lo_end)
    cap = hi_end if top is None else min(top, hi_end)
    while x < cap:
        lo, x = x, min(x * grow, cap)
        if x == top or f(x) >= 0:
            return lo, x
    return x, None


def bisect(f, lo: float, hi: float, rel_tol: float):
    """Halves a bracket f(lo) < 0 <= f(hi) until hi - lo <= rel_tol * hi,
    at most 200 times; returns the final (lo, hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return lo, hi


#: least relative tolerance of `brentq`, 4 eps, and its iteration budget
_BRENT_MIN_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAX_ITERATIONS = 100


def _divide(n: float, d: float) -> float:
    """n / d as C divides doubles: +-inf or nan where Python raises."""
    try:
        return n / d
    except ZeroDivisionError:
        if n != n or n == 0.0:
            return math.nan
        return math.copysign(math.inf, n) * math.copysign(1.0, d)


def brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c) that
    evaluates f at the same points and returns the same root: f(a) and
    f(b) first, a zero value ends the search, sign tests by sign bit, an
    inverse quadratic or secant step when it is short enough and a
    bisection otherwise, never a step below delta = (xtol + rtol |x|)/2,
    and at most 100 iterations.  Raises DomainError for xtol <= 0 or
    rtol < 4 eps, IntegrationError when f is not finite, and AccuracyError
    when f(a) and f(b) have the same sign or the iterations run out.
    """
    if not xtol > 0:
        raise DomainError(f"brentq: xtol must be positive, got {xtol!r}")
    if not rtol >= _BRENT_MIN_RTOL:
        raise DomainError(f"brentq: rtol must be at least {_BRENT_MIN_RTOL!r}, "
                          f"got {rtol!r}")

    def value(x):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise IntegrationError(f"brentq: f({x!r}) = {fx!r} is not finite")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise AccuracyError(f"brentq: f({xpre!r}) = {fpre!r} and "
                            f"f({xcur!r}) = {fcur!r} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITERATIONS):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant through the last two points
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # inverse quadratic through all three
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre),
                               dblk * dpre * (fblk - fpre))
            # C's MIN(a, b), which keeps b where min() keeps a nan a
            bound = abs(spre)
            if not bound < 3 * abs(sbis) - delta:
                bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise AccuracyError(
        f"brentq: no convergence in {_BRENT_MAX_ITERATIONS} iterations",
        best_estimate=xcur)
