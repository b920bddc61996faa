"""Radial shape functions v(r) for attractive potentials V(r) = -g v(r).

Every kind is one entry of `SHAPES`: a square well, an exponential, a Yukawa,
a shifted truncated inverse-square (STIS) well, a narrow shell approximating
a delta ring, and a tabulated grid interpolating user data.  An analytic
kind is held at unit radius, so its critical strength is independent of the
radius R; a grid keeps its own units.  Only `Potential.scale` tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, TruncationError
from .optimize import bisect, bracket
from .quadrature import QuadratureConfig, integrate


class Kind(str, Enum):
    SQUARE_WELL = "square_well"
    EXPONENTIAL = "exponential"
    YUKAWA = "yukawa"
    STIS = "stis"
    SHELL = "shell"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class Shape:
    """One shape kind: v(x, q) in units of `Potential.scale`, so that at
    scale s the shape is v(r/s, q) / s^2.  An analytic kind's scale is its
    radius R, so its critical coupling does not depend on R; a grid's is 1."""

    v: Callable
    end: Callable | None = None       # support end(q); None: v decays
    breaks: Callable = lambda q: ()   # interior breakpoints breaks(q), sorted
    param: str | None = None          # the Potential field that sets q,
    per_radius: bool = False          # divided by R when set
    label: str | None = None          # label format of the field's value
    default: float | None = None      # its value in `gcrit check`'s default run
    start: float = 1e-6               # shooting start radius, in units of R


#: every shape kind; a grid's q is its read-only (radii, values) arrays
SHAPES = {
    Kind.SQUARE_WELL: Shape(lambda x, q: np.where(x <= 1.0, 1.0, 0.0),
                            end=lambda q: 1.0),
    Kind.EXPONENTIAL: Shape(lambda x, q: np.exp(-x)),
    # the 1/x singularity needs an earlier start than the default
    Kind.YUKAWA: Shape(lambda x, q: np.exp(-x) / x, start=1e-8),
    Kind.STIS: Shape(lambda x, q: np.where(x <= q, (1.0 + x) ** -2.0, 0.0),
                     end=lambda q: q, param="alpha", label="stis(alpha={:g})",
                     default=1.0),
    # 1 + q rounds, so v is 1 over the width as represented: the area is 1
    Kind.SHELL: Shape(lambda x, q: np.where((x >= 1.0) & (x <= 1.0 + q),
                                            1.0 / ((1.0 + q) - 1.0), 0.0),
                      end=lambda q: 1.0 + q, breaks=lambda q: (1.0,),
                      param="shell_width", per_radius=True,
                      label="shell(width={:g})"),
    # v0 below the first knot, linear between knots, zero beyond the last
    Kind.TABULATED: Shape(lambda x, q: np.interp(x, *q, left=q[1][0], right=0.0),
                          end=lambda q: float(q[0][-1]),
                          breaks=lambda q: tuple(q[0][:-1].tolist()), param="grid"),
}


@dataclass(frozen=True)
class AngularMomentum:
    """Partial-wave index; L is the half-integer combination ell + 1/2."""

    ell: int

    def __post_init__(self):
        if not isinstance(self.ell, (int, np.integer)) or self.ell < 0:
            raise DomainError(f"ell must be a nonnegative integer, got {self.ell!r}")

    @property
    def L(self) -> float:
        return self.ell + 0.5


@dataclass(frozen=True)
class RegularityReport:
    """Diagnostic for the behavior of v near the origin and at infinity."""

    eps: float
    origin_ok: bool
    tail_ok: bool
    origin_samples: tuple
    tail_samples: tuple

    @property
    def ok(self) -> bool:
        return self.origin_ok and self.tail_ok


@dataclass(frozen=True)
class Potential:
    """A nonnegative radial shape v(r), immutable after construction.

    Use the classmethod constructors; the generic fields exist so a shape is
    fully described by (kind, parameters).  The numerics work on `unit`.
    """

    kind: Kind
    R: float = 1.0
    alpha: float | None = None
    shell_width: float | None = None
    grid: tuple[tuple[float, float], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (isinstance(self.R, (int, float)) and math.isfinite(self.R) and self.R > 0):
            raise ConfigurationError(f"R must be a positive finite length, got {self.R!r}")
        spec = self._spec
        for kind, s in SHAPES.items():
            if s is not spec and s.param and getattr(self, s.param) is not None:
                raise ConfigurationError(
                    f"{s.param} is only meaningful for {kind.value}, not {self.kind.value}")
        value = getattr(self, spec.param) if spec.param else None
        q = value / self.R if value is not None and spec.per_radius else value
        if self.kind is Kind.TABULATED:
            if not self.grid:
                raise ConfigurationError("tabulated potential requires a nonempty grid")
            radii = np.array([p[0] for p in self.grid], dtype=float)
            values = np.array([p[1] for p in self.grid], dtype=float)
            if not np.all(np.isfinite(radii)) or not np.all(np.isfinite(values)):
                raise ConfigurationError("grid entries must be finite")
            if radii[0] <= 0 or np.any(np.diff(radii) <= 0):
                raise ConfigurationError("grid radii must be positive and strictly increasing")
            if np.any(values < 0):
                raise ConfigurationError("grid values must be nonnegative")
            if not np.any(values > 0):
                raise ConfigurationError("grid values must not all be zero")
            radii.flags.writeable = False
            values.flags.writeable = False
            q = (radii, values)
        elif spec.param and not (q is not None and math.isfinite(q) and q > 0):
            raise ConfigurationError(
                f"{self.kind.value} requires a positive {spec.param}, got {value!r}")
        # the parameter in units of `scale`; a plain attribute, so eq and
        # hash ignore it
        object.__setattr__(self, "_q", q)

    # -- constructors -------------------------------------------------------

    @classmethod
    def square_well(cls, R: float = 1.0) -> "Potential":
        """v(r) = 1/R^2 for r <= R, else 0."""
        return cls(Kind.SQUARE_WELL, R=R)

    @classmethod
    def exponential(cls, R: float = 1.0) -> "Potential":
        """v(r) = exp(-r/R)/R^2."""
        return cls(Kind.EXPONENTIAL, R=R)

    @classmethod
    def yukawa(cls, R: float = 1.0) -> "Potential":
        """v(r) = exp(-r/R)/(r R)."""
        return cls(Kind.YUKAWA, R=R)

    @classmethod
    def stis(cls, alpha: float, R: float = 1.0) -> "Potential":
        """v(r) = (R + r)^-2 on [0, alpha R], zero beyond the cutoff."""
        return cls(Kind.STIS, R=R, alpha=float(alpha))

    @classmethod
    def shell(cls, width: float, R: float = 1.0) -> "Potential":
        """v(r) = 1/(width R) on [R, R + width], else 0.

        The area integral of v is 1/R for every width, so the shape tends to
        a delta ring at radius R as width -> 0 (critical strength -> 1).
        """
        return cls(Kind.SHELL, R=R, shell_width=float(width))

    @classmethod
    def tabulated(cls, points: Sequence[tuple[float, float]]) -> "Potential":
        """Linear interpolation of (radius, value) samples.

        Below the first radius the first value is held constant; beyond the
        last radius the shape is zero.  The grid keeps its own units: R is
        the last radius, and it sets only the shooting start radius.
        """
        pts = tuple((float(r), float(v)) for r, v in points)
        return cls(Kind.TABULATED, R=pts[-1][0] if pts else 1.0, grid=pts)

    # -- geometry -----------------------------------------------------------

    @property
    def _spec(self) -> Shape:
        return SHAPES[self.kind]

    @property
    def unit(self) -> "Potential":
        """The shape the numerics work on, in units of `scale`: itself when
        the scale is 1, else the same kind at R = 1."""
        if self.scale == 1.0:
            return self
        param = self._spec.param
        return replace(self, R=1.0, **({param: self._q} if param else {}))

    @property
    def scale(self) -> float:
        """The length unit of `unit`, and the one member that tells the kinds
        apart: R for an analytic kind, 1 for a grid, kept in its own units."""
        return 1.0 if self.kind is Kind.TABULATED else self.R

    @property
    def is_compact(self) -> bool:
        return self.cutoff is not None

    @property
    def cutoff(self) -> float | None:
        """End of the support for compact shapes, None for decaying ones."""
        end = self._spec.end
        return None if end is None else end(self._q) * self.scale

    def breakpoints(self) -> tuple[float, ...]:
        """Interior radii where v jumps or kinks (support ends excluded)."""
        return tuple(b * self.scale for b in self._spec.breaks(self._q))

    @property
    def start_radius(self) -> float:
        """Where shooting starts: `Shape.start` times R (a grid's last radius)."""
        return self._spec.start * self.R

    @property
    def support(self) -> dict:
        """The support as quadrature's axis keywords: (0, cutoff), or (0, inf)
        for a decaying shape, with panel edges seeded at the breakpoints."""
        return {"upper": self.cutoff, "points": self.breakpoints()}

    def support_integral(self, f, cfg: QuadratureConfig) -> float:
        """Integral of f over the `support` axis."""
        return integrate(f, 0.0, self.cutoff, cfg, points=self.breakpoints()).value

    # -- evaluation ---------------------------------------------------------

    def _shape(self, r: np.ndarray) -> np.ndarray:
        spec, s = self._spec, self.scale
        if s == 1.0:   # the numerics' case: skip two array passes
            return spec.v(r, self._q)
        return spec.v(r / s, self._q) / s ** 2

    def evaluate(self, r):
        """v(r) for a positive radius or an array of positive radii."""
        arr = np.asarray(r, dtype=float)
        # two reductions; a NaN propagates through min and fails the test
        if arr.size and not (arr.min() > 0 and arr.max() < math.inf):
            raise DomainError("radius must be positive and finite")
        out = self._shape(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def support_radius(self, tail_tol: float, max_radius: float = 1e4) -> float:
        """Radius beyond which r*v(r) stays below tail_tol.

        Exact cutoff for compact shapes.  For decaying shapes the crossing of
        r*v(r) = tail_tol is bracketed by geometric scan and bisected; a
        crossing beyond max_radius raises TruncationError.
        """
        if not tail_tol > 0:
            raise DomainError("tail_tol must be positive")
        if self.is_compact:
            return self.cutoff

        def below(r):   # nonnegative where r*v is at most tail_tol
            return tail_tol - r * self.evaluate(r)

        # walk inward from R while r*v <= tail_tol, else double out to the cap
        lo, hi = bracket(below, self.R, 2.0, 2.0, 0.5e-12 * self.R, max_radius)
        if lo is None:   # r*v stays below tail_tol down to the floor
            return min(self.R, max_radius)
        if hi is None:
            raise TruncationError(
                f"tail of r*v never drops below {tail_tol} within r <= {max_radius}")
        # an outward bracket is bisected from R, not from the last doubling
        return bisect(below, min(lo, self.R), hi, 1e-12)[1]

    def validate_regularity(self, eps: float) -> RegularityReport:
        """Sample r^(2-eps) v near 0 and r^(2+eps) v at large r.

        Radii run over the geometric ladders 2^-k and 2^k, k = 0..40; each
        sequence passes if its last three samples are non-increasing, the
        pragmatic proxy for the limits being zero.  Never raises on a
        failing shape.
        """
        if not 0 < eps < 1:
            raise DomainError("eps must lie in (0, 1)")
        ks = np.arange(41)
        r_origin = 2.0 ** -ks
        r_tail = 2.0 ** ks
        s_origin = r_origin ** (2.0 - eps) * self._shape(r_origin)
        s_tail = r_tail ** (2.0 + eps) * self._shape(r_tail)
        origin_ok = bool(s_origin[-3] >= s_origin[-2] >= s_origin[-1])
        tail_ok = bool(s_tail[-3] >= s_tail[-2] >= s_tail[-1])
        return RegularityReport(eps, origin_ok, tail_ok,
                                tuple(s_origin), tuple(s_tail))

    def label(self) -> str:
        fmt = self._spec.label
        return self.kind.value if fmt is None else fmt.format(getattr(self, self._spec.param))
