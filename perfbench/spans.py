"""Span tracing of the package's layers for the traced benchmark run.

``Tracer.installed()`` replaces the public functions of each layer, in every
``gcrit`` module namespace that holds them, with wrappers that record one
span per call: name, start, end, parent span and a work count.  Spans are
kept in flat in-memory arrays, written out once at the end, and reduced to
per-layer metrics.  Leaving the context restores every original, so nothing
leaks into an untraced run in the same process.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import math
import sys
from array import array
from time import perf_counter

import numpy as np

from gcrit import bounds, exact, optimize, potentials, quadrature, tables

#: bound methods the sandwich runs, by span name, with their fixed-parameter
#: building blocks (whose self time counts toward the method)
BOUND_METHODS = {
    "bargmann_schwinger": ("lower_bargmann_schwinger", None),
    "second_order": ("lower_second_order", None),
    "third_order": ("lower_third_order", None),
    "ggmt": ("lower_ggmt", "lower_ggmt_at"),
    "calogero_i": ("upper_calogero_I", "upper_calogero_I_at"),
    "calogero_ii": ("upper_calogero_II", "upper_calogero_II_at"),
    "variational": ("upper_variational", "upper_variational_at"),
}

_QUADRATURE_FUNCTIONS = ("integrate", "integrate_semi_infinite",
                         "nested_double", "nested_triple")
_EXACT_FUNCTIONS = {
    "critical_coupling_shooting": "exact.shooting",
    "shoot_zero_energy": "exact.shoot_zero_energy",
    "critical_coupling_nystrom": "exact.nystrom",
    "kernel_discretization": "exact.kernel_discretization",
    "largest_eigenvalue": "exact.largest_eigenvalue",
}
#: Kronrod nodes per panel, the cost of one partial panel of a cumulative
#: integral
_KRONROD_NODES = 15


def _points(args, _out) -> int:
    return int(np.size(args[1]))


def _evaluations(_args, out) -> int:
    return out.evaluations


def _cumulative_build(args, _out) -> int:
    return args[0].evaluations


def _cumulative_call(args, _out) -> int:
    return _KRONROD_NODES * int(np.size(args[1]))


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.raised = array("b")
        self.rejected = 0
        self.edge_hits = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call; ``work(args, out)`` gives the
        call's work count."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.work.append(0)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[i] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _minimize(self, fn):
        """Count rejected objective calls (returned inf) and edge hits."""
        def minimize(f, lo, hi, **kwargs):
            def objective(x):
                y = f(x)
                if not math.isfinite(y):
                    self.rejected += 1
                return y
            res = fn(objective, lo, hi, **kwargs)
            self.edge_hits += bool(res.edge_hit)
            return res
        return self.wrap("optimize.minimize", minimize, _evaluations)

    def _cumulative(self, cls):
        return type(cls.__name__, (cls,), {
            "__init__": self.wrap("quadrature.cumulative_build", cls.__init__,
                                  _cumulative_build),
            "__call__": self.wrap("quadrature.cumulative_call", cls.__call__,
                                  _cumulative_call),
        })

    # -- installation -------------------------------------------------------

    def _replace(self, original, replacement):
        """Swap ``original`` for ``replacement`` in every gcrit namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "gcrit" and not modname.startswith("gcrit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _install(self):
        Potential = potentials.Potential
        self._patch(Potential, "evaluate",
                    self.wrap("potentials.evaluate", Potential.evaluate, _points))
        for fname in _QUADRATURE_FUNCTIONS:
            fn = getattr(quadrature, fname)
            self._replace(fn, self.wrap(
                f"quadrature.{fname}", fn,
                _evaluations if fname == "integrate" else None))
        self._replace(quadrature.CumulativeIntegral,
                      self._cumulative(quadrature.CumulativeIntegral))
        self._replace(optimize.minimize_scalar_log,
                      self._minimize(optimize.minimize_scalar_log))
        for method, (fname, at_name) in BOUND_METHODS.items():
            fn = getattr(bounds, fname)
            self._replace(fn, self.wrap(f"bounds.{method}", fn))
            if at_name is not None:
                at = getattr(bounds, at_name)
                self._replace(at, self.wrap(f"bounds.{method}_at", at))
        for fname, span in _EXACT_FUNCTIONS.items():
            fn = getattr(exact, fname)
            self._replace(fn, self.wrap(span, fn))
        self._replace(tables.compute_table_row,
                      self.wrap("tables.compute_table_row", tables.compute_table_row))

    # -- reduction ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def dump(self, path):
        """Write every span, compressed; the names array decodes ``name``."""
        np.savez_compressed(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times, keyed by the benchmark's metric names."""
        a = self.arrays()
        names, name, parent, work = a["names"], a["name"], a["parent"], a["work"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        ids = {n: i for i, n in enumerate(names)}

        def mask(*span_names):
            wanted = [ids[n] for n in span_names if n in ids]
            return np.isin(name, wanted)

        def layer(prefix):
            return mask(*[n for n in names if n.startswith(prefix)])

        m: dict[str, float] = {}
        ev = mask("potentials.evaluate")
        m["potentials.evaluate.calls"] = int(ev.sum())
        m["potentials.evaluate.points"] = int(work[ev].sum())
        m["potentials.evaluate.self_s"] = float(self_time[ev].sum())

        quad = layer("quadrature.")
        quad_parent = np.zeros_like(quad)
        quad_parent[has_parent] = quad[parent[has_parent]]
        m["quadrature.integrate.calls"] = int(mask("quadrature.integrate").sum())
        m["quadrature.integrand_evals"] = int(work[mask(
            "quadrature.integrate", "quadrature.cumulative_build",
            "quadrature.cumulative_call")].sum())
        m["quadrature.nested.calls"] = int(mask(
            "quadrature.nested_double", "quadrature.nested_triple").sum())
        m["quadrature.failed"] = int((quad & ~quad_parent & (a["raised"] == 1)).sum())
        m["quadrature.self_s"] = float(self_time[quad].sum())

        mini = mask("optimize.minimize")
        evals = int(work[mini].sum())
        m["optimize.minimize.calls"] = int(mini.sum())
        m["optimize.objective_evals"] = evals
        m["optimize.rejected"] = self.rejected
        m["optimize.edge_hits"] = self.edge_hits
        m["optimize.accepted_ratio"] = (evals - self.rejected) / evals if evals else 0.0
        m["optimize.self_s"] = float(self_time[mini].sum())

        # each span belongs to its nearest bound-method ancestor (or itself)
        owner = np.where(mask(*[f"bounds.{k}" for k in BOUND_METHODS]),
                         np.arange(len(name)), -1)
        while True:
            inherit = (owner < 0) & has_parent
            inherit &= owner[np.where(has_parent, parent, 0)] >= 0
            if not inherit.any():
                break
            owner[inherit] = owner[parent[inherit]]
        owner_name = np.where(owner >= 0, name[np.maximum(owner, 0)], -1)
        for method in BOUND_METHODS:
            span = mask(f"bounds.{method}")
            mine = owner_name == ids.get(f"bounds.{method}", -2)
            m[f"bounds.{method}.calls"] = int(span.sum())
            m[f"bounds.{method}.total_s"] = float(dur[span].sum())
            m[f"bounds.{method}.self_s"] = float(
                self_time[mine & mask(f"bounds.{method}", f"bounds.{method}_at")].sum())
            m[f"bounds.{method}.evaluate_points"] = int(work[mine & ev].sum())
        m["bounds.calogero_ii_at.calls"] = int(mask("bounds.calogero_ii_at").sum())

        shoot = mask("exact.shooting")
        m["exact.shooting.calls"] = int(shoot.sum())
        m["exact.shooting.total_s"] = float(dur[shoot].sum())
        sze = mask("exact.shoot_zero_energy")
        m["exact.shoot_zero_energy.calls"] = int(sze.sum())
        m["exact.shoot_zero_energy.self_s"] = float(self_time[sze].sum())
        m["exact.nystrom.calls"] = int(mask("exact.nystrom").sum())
        m["exact.kernel_discretization.self_s"] = float(
            self_time[mask("exact.kernel_discretization")].sum())
        m["exact.largest_eigenvalue.self_s"] = float(
            self_time[mask("exact.largest_eigenvalue")].sum())

        row = mask("tables.compute_table_row")
        m["tables.compute_table_row.calls"] = int(row.sum())
        m["tables.compute_table_row.self_s"] = float(self_time[row].sum())
        m["trace.spans"] = len(dur)
        return m
