"""Bracketing the critical coupling constant of attractive central potentials.

For a potential V(r) = -g v(r) with a nonnegative shape v, the critical
strength is the smallest g at which a given partial wave first supports a
zero-energy bound state.  This package computes lower limits (necessary
conditions for binding), upper limits (sufficient conditions, including an
optimized variational bound), and the strength itself through two
independent solvers, and reproduces the published comparison tables.
"""

from .bounds import (BoundResult, Method, SandwichReport, Side,
                     lower_bargmann_schwinger, lower_ggmt, lower_ggmt_at,
                     lower_second_order, lower_third_order, sandwich,
                     upper_calogero_I, upper_calogero_I_at, upper_calogero_II,
                     upper_calogero_II_at, upper_variational,
                     upper_variational_at, upper_variational_square_well)
from .exact import (KernelDiscretization, bessel_first_zero,
                    critical_coupling_nystrom, critical_coupling_shooting,
                    exponential_exact_swave, kernel_discretization,
                    shoot_zero_energy, square_well_exact, stis_exact_swave)
from .potentials import AngularMomentum, Kind, Potential, RegularityReport
from .quadrature import (IntegralResult, QuadratureConfig, integrate,
                         integrate_semi_infinite, nested_double, nested_triple)
from .tables import TableArtifact, printed_values, reproduce_table

__all__ = [
    "AngularMomentum", "BoundResult", "IntegralResult", "KernelDiscretization",
    "Kind", "Method", "Potential", "QuadratureConfig", "RegularityReport",
    "SandwichReport", "Side", "TableArtifact", "bessel_first_zero",
    "critical_coupling_nystrom", "critical_coupling_shooting",
    "exponential_exact_swave", "integrate", "integrate_semi_infinite",
    "kernel_discretization", "lower_bargmann_schwinger", "lower_ggmt",
    "lower_ggmt_at", "lower_second_order", "lower_third_order",
    "nested_double", "nested_triple", "printed_values", "reproduce_table",
    "sandwich", "shoot_zero_energy", "square_well_exact", "stis_exact_swave",
    "upper_calogero_I", "upper_calogero_I_at", "upper_calogero_II",
    "upper_calogero_II_at", "upper_variational", "upper_variational_at",
    "upper_variational_square_well",
]
