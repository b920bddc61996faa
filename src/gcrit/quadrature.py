"""Adaptive one-dimensional quadrature and nested cumulative integrals.

The base rule is the 15-point Gauss-Kronrod pair; panels are refined by
bisection, worst error first.  Each refinement step calls the integrand at
most once, on the nodes of all the panels it evaluates (every initial panel,
then both halves of a split).  Along a chain of splits on one side the call
also evaluates ahead, the halves of the panels the chain would split next,
which the refinement uses later in its own order: results are those of one
call per split, but a call can include nodes of panels the final partition
never uses.  Integrands must therefore be pointwise (a value may not depend
on the other nodes of the call) and must tolerate any point strictly inside
the interval.  Nodes stay off an end at 0, where floats are dense, so
integrable singularities there need no special casing; at another end a
panel some 64 ulps wide can put a node on it (`integrate`).  Semi-infinite
integrals map [a, inf) onto [0, 1) with x = a + t/(1-t), which preserves
polynomial-times-exponential decay well.

The refinement (`_refinement`) is written once, as a generator that asks
for the estimates of the panels it needs and is sent them.  One driver
(`_drive`) answers: for `_adaptive` (behind `integrate`, `CumulativeIntegral`
and `FixedRule`) with one integrand, for `lockstep` with a family of m
integrands on one axis, in one integrand call per round over every
unfinished member, while each member keeps its own heap, look-ahead, budget
and errors.

A parameter search integrates nearly the same integrands trial after trial,
so within `replaying` a refinement replays a tree, the spans a like
refinement requested before: its first integrand call also evaluates them,
and later requests are answered from those estimates, so that the call is
made only for spans that are new.  A panel's estimate depends on nothing
but its span and the integrand, so the replay changes no value, error,
evaluation count, partition or error message; it costs the points of the
replayed spans the refinement never asks for.

Nested double and triple integrals evaluate the inner antiderivative from
a cached panel partition (prefix sums plus one non-adaptive partial panel),
which avoids re-integrating the inner weight at every outer node.  The
same partition can be kept whole as a fixed rule (`FixedRule`), which
re-integrates a family of nearby integrands, such as one that depends on a
parameter, as a dot product over cached nodes.
"""

from __future__ import annotations

import heapq
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AccuracyError, ConfigurationError, DomainError, IntegrationError

_EPS = sys.float_info.epsilon

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898,
])
_WK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298,
])
_WK_CENTER = 0.209482141084728
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
])
_WG_CENTER = 0.417959183673469

_NODES = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:7:2] = _WG_HALF
_WG[7] = _WG_CENTER
_WG[9:15:2] = _WG_HALF[::-1]
_XK_OUTER = float(_XK_HALF[0])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget limits for the adaptive engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    max_radius: float = 1e4

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ConfigurationError("rel_tol and abs_tol must be positive and finite")
        if self.max_subdivisions < 1:
            raise ConfigurationError("max_subdivisions must be >= 1")
        if not self.max_radius > 0:
            raise ConfigurationError("max_radius must be positive")

    def loosened(self, rel_tol, max_subdivisions):
        """A copy with relaxed settings, used during parameter searches."""
        return replace(self, rel_tol=max(self.rel_tol, rel_tol),
                       max_subdivisions=min(self.max_subdivisions, max_subdivisions))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


def _kronrod_nodes(lo, hi):
    """The 15 Kronrod abscissae of each panel (lo[i], hi[i]), flattened
    panel by panel, and the half-width of each panel."""
    halves = 0.5 * (hi - lo)
    centers = 0.5 * (lo + hi)
    return (centers[:, None] + halves[:, None] * _NODES).ravel(), halves


def _panels(f, spans):
    """Gauss-Kronrod 15(7) estimates (value, error) of the panels `spans`,
    each with a QUADPACK-style error, from one call of f on all their nodes;
    None for a panel where f is not finite.

    The arithmetic of each panel is that of a panel evaluated on its own, so
    the estimates do not depend on which panels share the call.
    """
    lo, hi = np.array(spans).T
    x, halves = _kronrod_nodes(lo, hi)
    # an overflow is reported as a non-finite estimate, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        fv = np.asarray(f(x), dtype=float)
        if fv.shape != x.shape:
            fv = np.broadcast_to(fv, x.shape).astype(float)
        # np.vecdot sums a C-contiguous row with the bits of `_WK @ row`
        fv = np.ascontiguousarray(fv.reshape(len(spans), 15))
        finite = np.isfinite(fv).all(axis=1)
        if not finite.all():
            fv = np.where(finite[:, None], fv, 0.0)
        resk = halves * np.vecdot(fv, _WK)
        resg = halves * np.vecdot(fv, _WG)
        resabs = halves * np.vecdot(np.abs(fv), _WK)
        mean = resk / (hi - lo)
        resasc = halves * np.vecdot(np.abs(fv - mean[:, None]), _WK)
    out = []
    # the error term in Python floats: numpy's power rounds differently
    for ok, k, g, absum, asc in zip(finite.tolist(), resk.tolist(), resg.tolist(),
                                    resabs.tolist(), resasc.tolist()):
        err = abs(k - g)
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        out.append((k, max(err, 50.0 * _EPS * absum)) if ok else None)
    return out


def _initial_edges(a, b, points):
    edges = [a]
    for p in sorted(set(float(q) for q in points)):
        if a < p < b and not math.isclose(p, edges[-1], rel_tol=1e-14):
            edges.append(p)
    edges.append(b)
    return edges


def _chain(lo, hi, side, levels):
    """The halves of (lo, hi) and of its descendants on `side` (0 left, 1
    right), at most `levels` panels deep, and the depth of each: the last
    half on `side`, the end of the chain, carries the number of levels;
    every other half carries 1.

    Below the first level, a panel is split only when every node of both
    halves lies strictly inside them: at widths near rounding level a node
    can land on an edge, which the integrand need not tolerate.
    """
    spans = []
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        halves = [(lo, mid), (mid, hi)]
        if spans and not all(map(_interior, halves)):
            break
        spans += halves
        lo, hi = halves[side]
    depths = [1] * len(spans)
    depths[side - 2] = len(spans) // 2
    return spans, depths


def _interior(span):
    """Whether every node `_panels` evaluates on span lies strictly inside."""
    lo, hi = span
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return lo < center - half * _XK_OUTER and center + half * _XK_OUTER < hi


def _estimate(est, lo, hi):
    if est is None:
        raise IntegrationError(
            f"integrand returned a non-finite value in [{lo!r}, {hi!r}]")
    return est


def _refinement(a, b, cfg, points, tree):
    """The adaptive refinement of one integral over (a, b), as a generator:
    it yields the spans whose estimates it needs, is sent their `_panels`
    estimates in the same order, and returns (panels, value, error,
    evaluations).  It raises AccuracyError and IntegrationError itself.
    Appends each span it requests to the list `tree`.

    Refines panels worst-first.  Returns only when the error summed over the
    final panels (the running sums can cancel) meets the tolerance, and
    otherwise, as for a panel too narrow to halve, raises AccuracyError.

    A split can evaluate ahead along a chain, such as the bisections towards
    an endpoint singularity.  When the popped panel is the end of a chain
    evaluated ahead, or a half of the panel split in the step before, the
    same request also asks for the halves of its descendants on its own
    side, twice as many levels as its chain had (two for a new chain), but
    never more than the splits the budget has left.  The halves wait in
    `ahead` until the refinement, in its own order, splits their parent, so
    the estimates, the partition, the evaluation count (of the panels used)
    and every error are those of evaluating each split when it is made; a
    non-finite value raises only when its panel is used.
    """
    edges = _initial_edges(a, b, points)
    spans = list(zip(edges[:-1], edges[1:]))
    heap = []
    ahead = {}
    count = 0
    total = 0.0
    toterr = 0.0
    tree += spans
    for (lo, hi), est in zip(spans, (yield spans)):
        val, err = _estimate(est, lo, hi)
        # (-error, id, lo, hi, value, chain depth, side of its parent)
        heapq.heappush(heap, (-err, count, lo, hi, val, 1, 0))
        count += 1
        total += val
        toterr += err
    fresh = count  # the first id made by the last split
    while toterr > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if len(heap) >= cfg.max_subdivisions:
            raise _short(f"quadrature budget of {cfg.max_subdivisions} panels "
                         f"exhausted", total, toterr)
        neg_err, n, lo, hi, val, depth, side = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise _short(f"quadrature panel [{lo!r}, {hi!r}] is too narrow to "
                         f"halve", total, toterr)
        total -= val
        toterr += neg_err
        if (lo, mid) not in ahead:
            # a chain goes on from its end, or starts at a half of the panel
            # just split; it never outgrows the splits the budget has left
            levels = 2 * depth if depth > 1 or n >= fresh else 1
            room = cfg.max_subdivisions - 1 - len(heap)
            spans, depths = _chain(lo, hi, side, min(levels, room))
            tree += spans
            ahead.update(zip(spans, zip((yield spans), depths)))
        fresh = count
        for s, (p, q) in enumerate(((lo, mid), (mid, hi))):
            est, d = ahead.pop((p, q))
            v, e = _estimate(est, p, q)
            heapq.heappush(heap, (-e, count, p, q, v, d, s))
            count += 1
            total += v
            toterr += e
    panels = sorted((lo, hi, val, -neg) for neg, _, lo, hi, val, _, _ in heap)
    value = sum(p[2] for p in panels)
    error = sum(p[3] for p in panels)
    if error > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise _short("quadrature error over the final panels exceeds the "
                     "tolerance", value, error)
    return panels, value, error, 15 * count


def _short(why, value, error):
    """The AccuracyError of a refinement that stops short of its tolerance."""
    return AccuracyError(f"{why} (estimate {value!r}, error {error!r})",
                         best_estimate=value, error_estimate=error)


#: the panel trees of a bound search trial (`replaying`): the trees of the
#: trial before and those of this one, each by axis (lo, hi) a list of the
#: spans requested by the k-th refinement on it; None outside a trial
_trees: ContextVar[tuple[dict, dict] | None] = ContextVar("_trees", default=None)


@contextmanager
def replaying(trees: dict):
    """Within the block, the k-th refinement of `_adaptive` on an axis replays
    the k-th tree on that axis in `trees`, and a `lockstep` pass the latest
    tree of the block on its axis (see `_drive`).  Yields the dict of the
    block's own trees, filled as it runs: the trees a next block replays."""
    recorded = {}
    token = _trees.set((trees, recorded))
    try:
        yield recorded
    finally:
        _trees.reset(token)


def _drive(steps, panels, predicted):
    """Run the refinements `steps`, all on one axis, together to their ends,
    and return the value of each.

    Each round makes one call `panels(spans, members)` for the `_panels`
    estimates of spans, where members[i] is the step span i is for.  Each
    step keeps its estimates by span, and a round asks only for the spans it
    requests that its step has no estimate of yet.  The first round also
    asks, for every step, for the spans of the tree `predicted`.  An
    estimate depends only on its span and integrand, so every result and
    error is that of one call per request, and a predicted panel where the
    integrand is not finite raises only when its step requests it.
    """
    caches = [{} for _ in steps]
    wanted = {k: next(step) for k, step in enumerate(steps)}
    out = [None] * len(steps)
    while wanted:
        spans, members = [], []
        for k, need in wanted.items():
            new = [span for span in need if span not in caches[k]]
            if predicted:
                asked = set(need)
                new += [span for span in predicted if span not in asked]
            spans += new
            members += [k] * len(new)
        predicted = ()
        if spans:
            for k, span, est in zip(members, spans, panels(spans, members)):
                caches[k][span] = est
        for k, need in list(wanted.items()):
            try:
                wanted[k] = steps[k].send([caches[k].pop(span) for span in need])
            except StopIteration as done:
                out[k] = done.value
                del wanted[k]
    return out


def _caught(step):
    """The refinement `step`, returning the AccuracyError or IntegrationError
    it raises instead."""
    try:
        return (yield from step)
    except (AccuracyError, IntegrationError) as exc:
        return exc


def _adaptive(f, a, b, cfg, points=()):
    """Drive `_refinement` with one integrand: one call of f per request,
    after the first also evaluating the tree that `replaying` holds for this
    refinement, if any.  Returns (panels, value, error, evaluations)."""
    before, now = _trees.get() or ({}, {})
    old, trees = before.get((a, b), ()), now.setdefault((a, b), [])
    predicted = old[len(trees)] if len(trees) < len(old) else ()
    trees.append([])
    [res] = _drive([_refinement(a, b, cfg, points, trees[-1])],
                   lambda spans, members: _panels(f, spans), predicted)
    return res


def integrate(f, a, b, cfg: QuadratureConfig = DEFAULT_CONFIG,
              points: Sequence[float] = ()) -> IntegralResult:
    """Integrate f over the finite interval (a, b).

    f must accept numpy arrays and be pointwise: it is called at most once
    per refinement step, on the nodes of several panels, some of which the
    refinement may never use (see `_refinement`).  Nodes never touch an end
    at 0 but can touch another: (x-1)**-0.5 raises IntegrationError on (1, 2).
    `points` seeds panel edges at known breakpoints of the integrand.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate requires finite endpoints")
    if not a < b:
        raise DomainError(f"empty or reversed interval [{a}, {b}]")
    _, value, error, evals = _adaptive(f, a, b, cfg, points)
    return IntegralResult(value, error, evals)


def _unmapped(t, a=0.0):
    """x = a + t/(1-t) for t in [0, 1), and (1-t)^2, the divisor of the
    Jacobian dx/dt = 1/(1-t)^2."""
    om = 1.0 - t
    return a + t / om, om * om


def _transformed(f, a):
    def g(t, *args):
        x, den = _unmapped(np.asarray(t, dtype=float), a)
        return f(x, *args) / den
    return g


def integrate_semi_infinite(f, a, cfg: QuadratureConfig = DEFAULT_CONFIG,
                            points: Sequence[float] = ()) -> IntegralResult:
    """Integrate f over [a, inf) for integrands decaying faster than 1/x^2."""
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("lower endpoint must be finite")
    lo, hi, wrap, seeds = _axis(None, points, a)
    return integrate(wrap(f), lo, hi, cfg, points=seeds)


def lockstep(f, m: int, cfg: QuadratureConfig = DEFAULT_CONFIG,
             upper: float | None = None, points: Sequence[float] = ()):
    """Integrate m integrands over the axis `_axis(upper, points)` together.

    f(x, k) gives the values of integrand k[i] at x[i], for an integer
    array k.  Each member runs its own `_refinement` (its own heap, chain
    look-ahead, budget and errors), and each round calls f once on the nodes
    of the spans the unfinished members ask for, after the first round only
    those not yet evaluated for them: within `replaying` the first round
    also evaluates, for each member, the latest tree of the block on this
    axis, such as that of the `FixedRule` a search has just built.  Returns,
    per member, the `IntegralResult` of `integrate` or `integrate_semi_infinite`
    on that integrand, or the AccuracyError or IntegrationError it would
    raise; an exception of f itself propagates.
    """
    lo, hi, wrap, seeds = _axis(upper, points)
    g = wrap(f)
    trees = (_trees.get() or ({}, {}))[1].get((lo, hi))
    out = _drive([_caught(_refinement(lo, hi, cfg, seeds, [])) for _ in range(m)],
                 lambda spans, k: _panels(lambda x: g(x, np.repeat(k, 15)), spans),
                 trees[-1] if trees else ())
    return [res if isinstance(res, Exception) else IntegralResult(*res[1:])
            for res in out]


class CumulativeIntegral:
    """Cached antiderivative C(x) = integral of w from `lo` to x on [lo, hi].

    Built from the final panel partition of one adaptive pass: prefix sums
    over whole panels plus a single non-adaptive Kronrod evaluation of the
    partial panel containing x.
    """

    def __init__(self, w, lo, hi, cfg=DEFAULT_CONFIG, points=()):
        self._w = w
        self.lo = float(lo)
        self.hi = float(hi)
        panels, _, _, self.evaluations = _adaptive(w, lo, hi, cfg, points)
        self._lefts = np.array([p[0] for p in panels])
        self._prefix = np.concatenate([[0.0], np.cumsum([p[2] for p in panels])])

    def __call__(self, x, *, runs=None):
        """C at each point of the 1-d float array x, all in [lo, hi].
        `runs` splits x into consecutive runs (their lengths; default one
        run).  w is evaluated once on the partial panels of all of x, and
        those of each run are summed in one matrix product: the rounding of
        a row of a BLAS product can depend on its place in the product, so a
        nested integral passes each of its panels' reads as one run and gets
        the bits of one call per panel."""
        idx = np.searchsorted(self._lefts, x, side="right") - 1
        out = self._prefix[idx].copy()
        starts = self._lefts[idx]
        widths = x - starts
        live = widths > 0
        if np.any(live):
            # one fused Kronrod pass over all partial panels
            centers = starts[live] + 0.5 * widths[live]
            halves = 0.5 * widths[live]
            nodes = centers[:, None] + halves[:, None] * _NODES[None, :]
            # the number of live reads in each run that has any
            seen = np.concatenate([[0], np.cumsum(live)])[
                np.cumsum([x.size] if runs is None else runs)]
            counts = [c for c in np.diff(seen, prepend=0) if c]
            # as in `_panels`, a non-finite value is the caller's to report
            with np.errstate(over="ignore", invalid="ignore"):
                if isinstance(self._w, _Product):
                    fv = self._w(nodes.ravel(), runs=[15 * c for c in counts])
                else:
                    fv = self._w(nodes.ravel())
                fv = np.asarray(fv, dtype=float).reshape(nodes.shape)
                out[live] += halves * np.concatenate(
                    [run @ _WK for run in np.split(fv, np.cumsum(counts)[:-1])])
        return out


class _Product:
    """The weight w(t) times the cumulative integral `inner` at t: the
    integrand of one level of a nested integral.

    The adaptive engine calls it on the nodes of several panels at once, and
    `inner` reads each panel's 15 nodes as one run.  A `CumulativeIntegral`
    whose weight this is passes the runs of its own reads on instead.
    """

    def __init__(self, w, inner):
        self.w = w
        self.inner = inner

    def __call__(self, t, runs=None):
        if runs is None:
            runs = [15] * (t.size // 15)
        return self.w(t) * self.inner(t, runs=runs)


class FixedRule:
    """The final panel partition of one adaptive pass, kept as a fixed rule.

    Integrates w adaptively on the axis `_axis(upper, points)`, exactly as
    `integrate` and `integrate_semi_infinite` do; `total` is that value.
    `nodes` (in the original variable) and `weights` (panel half-widths
    times Kronrod weights, times the Jacobian of the map on a semi-infinite
    axis) then integrate any integrand close enough to w as
    `integral(values at nodes)`, without refinement and without calling w.
    """

    def __init__(self, w, cfg=DEFAULT_CONFIG, upper=None, points=()):
        lo, hi, wrap, seeds = _axis(upper, points)
        panels, self.total, _, _ = _adaptive(wrap(w), lo, hi, cfg, seeds)
        # the abscissae _panels evaluated on each final panel
        x, halves = _kronrod_nodes(*np.array([p[:2] for p in panels]).T)
        weights = (halves[:, None] * _WK[None, :]).ravel()
        if upper is None:
            x, den = _unmapped(x)
            weights = weights / den
        x.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = x
        self.weights = weights

    def integral(self, values) -> float:
        """Integral of the integrand whose values at `nodes` are `values`."""
        return float(np.dot(values, self.weights))


def _axis(upper, points, a=0.0):
    """(lo, hi, wrap, seeds) for the axis (a, upper), or for (a, inf) mapped
    onto (0, 1) by x = a + t/(1-t) when upper is None: wrap(f) is the
    integrand on (lo, hi), and seeds are the points inside it, mapped."""
    if upper is None:
        return (0.0, 1.0, lambda w: _transformed(w, a),
                [(p - a) / (1.0 + (p - a)) for p in points if p > a])
    upper = float(upper)
    if not upper > a:
        raise DomainError(f"upper limit must exceed {a!r}")
    return a, upper, lambda w: w, [p for p in points if a < p < upper]


def nested_double(w_out, w_in, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  upper: float | None = None,
                  points: Sequence[float] = ()) -> float:
    """Compute integral over x of w_out(x) * integral of w_in over (0, x),
    both on the axis (0, upper), or (0, inf) when upper is None (`_axis`)."""
    return _nested((w_out, w_in), cfg, upper, points)


def nested_triple(w1, w2, w3, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  upper: float | None = None,
                  points: Sequence[float] = ()) -> float:
    """Triply nested analogue of nested_double (ordered 0 < z < y < x)."""
    return _nested((w1, w2, w3), cfg, upper, points)


def _nested(weights, cfg, upper, points) -> float:
    """Integral of weights[0] times the cumulative integral of weights[1]
    times that of weights[2]..., each inner one a `CumulativeIntegral`."""
    lo, hi, wrap, seeds = _axis(upper, points)
    inner = CumulativeIntegral(wrap(weights[-1]), lo, hi, cfg, points=seeds)
    for w in weights[-2:0:-1]:
        inner = CumulativeIntegral(_Product(wrap(w), inner), lo, hi, cfg, points=seeds)
    return integrate(_Product(wrap(weights[0]), inner), lo, hi, cfg, points=seeds).value
