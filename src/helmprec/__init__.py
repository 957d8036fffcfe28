"""Helmholtz finite-element systems and nearby-preconditioner bound checks."""

from .assemble import (
    GalerkinSystem,
    MatrixSystem,
    ProblemSpec,
    assemble_load,
    assemble_system,
    validate_external,
)
from .bounds import (
    BoundReport,
    GardingConstants,
    InfSupLadder,
    garding_check,
    garding_constants_for,
    infsup_ladder,
    nearby_bound_report,
    norm_equivalence_report,
)
from .coeffs import (
    CoefficientField,
    absorption_shift,
    constant_field,
    field_diff_sup_norm,
    piecewise_field,
    pml_profile_1d,
    resample_field,
)
from .mesh import BoundaryTag, Mesh, build_interval_mesh, build_rect_mesh
from .numerics import (
    MassExtremes,
    SolutionOperatorNorms,
    discrete_inf_sup,
    gram_factor,
    mass_extremes,
    solution_operator_norms,
    weighted_operator_norm,
)
from .solvers import IterationTrace, fixed_point, gmres

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
