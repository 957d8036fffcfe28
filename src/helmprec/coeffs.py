"""Piecewise-constant complex coefficient fields.

A field assigns one value per mesh element: a complex scalar, or (for
the diffusion coefficient in 2D) a symmetric complex 2x2 matrix. The
two roles mirror the two coefficients of the operator
``-k^{-2} div(mu^{-1} grad) - eps``:

* MU_INV fields must have positive-definite real part elementwise,
* EPS fields are unconstrained bounded multipliers.

Every value of either role must be finite.

Because fields are piecewise constant, their sup-norm differences are
exact maxima and all element integrals in the assembly stay closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError
from .mesh import Mesh


class Role(Enum):
    MU_INV = "mu_inv"
    EPS = "eps"


@dataclass(frozen=True)
class AbsorptionSpec:
    """Absorption parameter: the perturbation eps -> (1 + i*alpha)*eps."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidArgumentError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-element coefficient values tied to a mesh.

    ``values`` has shape (n_elements,) for scalar fields or
    (n_elements, 2, 2) for matrix-valued diffusion coefficients in 2D.
    """

    mesh: Mesh
    values: np.ndarray
    role: Role

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)
        if values.shape[0] != self.mesh.n_elements:
            raise InvalidArgumentError(
                f"{values.shape[0]} values for {self.mesh.n_elements} elements"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidCoefficientError(f"{self.role.value} values must be finite")
        if values.ndim == 3:
            if self.mesh.dimension != 2 or values.shape[1:] != (2, 2):
                raise InvalidArgumentError(
                    "matrix-valued fields must be (n, 2, 2) on a 2D mesh"
                )
            if not np.allclose(values, np.swapaxes(values, 1, 2), atol=0, rtol=0):
                raise InvalidCoefficientError("matrix values must be symmetric")
        elif values.ndim != 1:
            raise InvalidArgumentError(f"bad value shape {values.shape}")
        if self.role == Role.MU_INV:
            if values.ndim == 1:
                re_min = values.real.min()
            else:
                re_min = np.linalg.eigvalsh(values.real).min()
            if not re_min > 0:
                raise InvalidCoefficientError(
                    f"Re(mu^-1) must be positive elementwise (min {re_min:g})"
                )

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == 3


def constant_field(mesh: Mesh, value, role: Role) -> CoefficientField:
    """Field with the same (scalar or 2x2) value on every element."""
    value = np.asarray(value, dtype=complex)
    if value.ndim == 0:
        values = np.full(mesh.n_elements, complex(value))
    elif value.shape == (2, 2):
        values = np.broadcast_to(value, (mesh.n_elements, 2, 2)).copy()
    else:
        raise InvalidArgumentError(f"value must be scalar or 2x2, got {value.shape}")
    return CoefficientField(mesh, values, role)


def piecewise_field(
    mesh: Mesh, region_rule: Callable, role: Role
) -> CoefficientField:
    """Field built by evaluating ``region_rule`` at element centroids.

    The rule receives a float in 1D and a length-2 coordinate array in
    2D, and returns a complex scalar (or a 2x2 array for MU_INV in 2D).
    """
    centroids = mesh.element_centroids()
    vals = []
    for c in centroids:
        point = float(c[0]) if mesh.dimension == 1 else c
        vals.append(np.asarray(region_rule(point), dtype=complex))
    shapes = {v.shape for v in vals}
    if len(shapes) != 1:
        raise InvalidArgumentError(f"rule returned mixed shapes: {shapes}")
    return CoefficientField(mesh, np.stack(vals), role)


def absorption_shift(
    eps: CoefficientField, alpha: AbsorptionSpec | float
) -> CoefficientField:
    """The absorption perturbation: multiply an EPS field by (1 + i*alpha)."""
    if eps.role != Role.EPS:
        raise InvalidArgumentError("absorption_shift applies to EPS fields only")
    if not isinstance(alpha, AbsorptionSpec):
        alpha = AbsorptionSpec(float(alpha))
    return CoefficientField(eps.mesh, (1.0 + 1j * alpha.alpha) * eps.values, eps.role)


def pml_profile_1d(
    mesh: Mesh, k: float, R: float, sigma0: float
) -> tuple[CoefficientField, CoefficientField]:
    """Complex-stretching coefficient pair for an absorbing layer on [R, b].

    With the stretching function

        s(x) = 1                                          for x <= R,
        s(x) = 1 + (i*sigma0/k) * ((x - R) / (b - R))^2   for x >  R,

    evaluated at element centroids, returns (mu_inv, eps) = (1/s, s).
    The quadratic ramp and the 1/k scaling keep the layer strength
    comparable across wavenumbers; Re(1/s) > 0 holds for any sigma0 >= 0.
    """
    if mesh.dimension != 1:
        raise InvalidArgumentError("pml_profile_1d needs a 1D mesh")
    if sigma0 < 0:
        raise InvalidArgumentError(f"sigma0 must be >= 0, got {sigma0}")
    if k <= 0:
        raise InvalidArgumentError(f"k must be positive, got {k}")
    a, b = mesh.coords[:, 0].min(), mesh.coords[:, 0].max()
    if not (a <= R < b):
        raise InvalidArgumentError(f"layer start {R} outside [{a}, {b})")
    x = mesh.element_centroids()[:, 0]
    ramp = np.where(x > R, ((x - R) / (b - R)) ** 2, 0.0)
    s = 1.0 + 1j * (sigma0 / k) * ramp
    mu_inv = CoefficientField(mesh, 1.0 / s, Role.MU_INV)
    eps = CoefficientField(mesh, s, Role.EPS)
    return mu_inv, eps


def field_diff_sup_norm(f1: CoefficientField, f2: CoefficientField) -> float:
    """Sup norm of the difference of two fields over the same mesh.

    For piecewise-constant multiplication operators this equals the
    L2 -> L2 operator norm of the difference exactly: max |v1 - v2| in
    the scalar case, max spectral norm in the matrix case.
    """
    if f1.mesh is not f2.mesh:
        raise InvalidArgumentError("fields live on different meshes")
    if f1.role != f2.role:
        raise InvalidArgumentError("fields have different roles")
    if f1.values.shape != f2.values.shape:
        raise InvalidArgumentError("fields have different value shapes")
    diff = f1.values - f2.values
    if diff.ndim == 3:
        return float(np.linalg.svd(diff, compute_uv=False).max()) if diff.size else 0.0
    return float(np.abs(diff).max()) if diff.size else 0.0


def resample_field(field: CoefficientField, new_mesh: Mesh) -> CoefficientField:
    """Transfer a piecewise-constant field onto another mesh of the domain.

    Each new element takes the value of the old element containing its
    centroid; exact for nested refinements of piecewise-constant data.
    """
    if new_mesh.dimension != field.mesh.dimension:
        raise InvalidArgumentError("meshes have different dimensions")
    idx = field.mesh.locate_elements(new_mesh.element_centroids())
    return CoefficientField(new_mesh, field.values[idx], field.role)
