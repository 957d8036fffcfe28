"""Piecewise-constant complex coefficient fields.

A field assigns one value per mesh element: a complex scalar, or (for
the diffusion coefficient in 2D) a symmetric complex 2x2 matrix. Every
value must be finite. A field does not know which coefficient of the
operator ``-k^{-2} div(mu^{-1} grad) - eps`` it is: the slot it fills,
``ProblemSpec.mu_inv`` or ``ProblemSpec.eps``, checks what that slot
needs (a positive-definite Re(mu^{-1}), a scalar eps).

Because fields are piecewise constant, their sup-norm differences are
exact maxima and all element integrals in the assembly stay closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError
from .mesh import Mesh


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-element coefficient values tied to a mesh.

    ``values`` has shape (n_elements,) for scalar fields or
    (n_elements, 2, 2) for symmetric matrix values on a 2D mesh, all finite.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)
        if values.shape[0] != self.mesh.n_elements:
            raise InvalidArgumentError(
                f"{values.shape[0]} values for {self.mesh.n_elements} elements"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidCoefficientError("coefficient values must be finite")
        if values.ndim == 3:
            if self.mesh.dimension != 2 or values.shape[1:] != (2, 2):
                raise InvalidArgumentError(
                    "matrix-valued fields must be (n, 2, 2) on a 2D mesh"
                )
            if not np.allclose(values, np.swapaxes(values, 1, 2), atol=0, rtol=0):
                raise InvalidCoefficientError("matrix values must be symmetric")
        elif values.ndim != 1:
            raise InvalidArgumentError(f"bad value shape {values.shape}")

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == 3

    def real_min(self) -> float:
        """Least eigenvalue of Re(value) over the elements (a scalar's Re)."""
        real = self.values.real
        return float((np.linalg.eigvalsh(real) if self.is_matrix else real).min())


def constant_field(mesh: Mesh, value) -> CoefficientField:
    """Field with the same (scalar or 2x2) value on every element."""
    value = np.asarray(value, dtype=complex)
    if value.ndim == 0:
        values = np.full(mesh.n_elements, complex(value))
    elif value.shape == (2, 2):
        values = np.broadcast_to(value, (mesh.n_elements, 2, 2)).copy()
    else:
        raise InvalidArgumentError(f"value must be scalar or 2x2, got {value.shape}")
    return CoefficientField(mesh, values)


def piecewise_field(mesh: Mesh, region_rule: Callable) -> CoefficientField:
    """Field built by evaluating ``region_rule`` at element centroids.

    The rule receives a float in 1D and a length-2 coordinate array in
    2D, and returns a complex scalar (or a 2x2 array in 2D).
    """
    centroids = mesh.element_centroids()
    vals = []
    for c in centroids:
        point = float(c[0]) if mesh.dimension == 1 else c
        vals.append(np.asarray(region_rule(point), dtype=complex))
    shapes = {v.shape for v in vals}
    if len(shapes) != 1:
        raise InvalidArgumentError(f"rule returned mixed shapes: {shapes}")
    return CoefficientField(mesh, np.stack(vals))


def absorption_shift(eps: CoefficientField, alpha: float) -> CoefficientField:
    """The absorption perturbation: multiply an eps field by (1 + i*alpha).

    ``alpha`` must be a finite real number >= 0 (a bool is not one). A
    product that leaves the float range is an InvalidCoefficientError
    naming alpha and max|eps|, raised without a warning.
    """
    number = isinstance(alpha, Real) and not isinstance(alpha, bool)
    if not (number and 0 <= alpha < math.inf):
        raise InvalidArgumentError(f"alpha must be a finite number >= 0, got {alpha!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = (1.0 + 1j * float(alpha)) * eps.values
    if not np.all(np.isfinite(values)):
        raise InvalidCoefficientError(
            f"(1 + i alpha) eps overflows: alpha = {float(alpha):g}, "
            f"max|eps| = {np.abs(eps.values).max():g}")
    return CoefficientField(eps.mesh, values)


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
    return CoefficientField(mesh, 1.0 / s), CoefficientField(mesh, s)


def field_diff_sup_norm(f1: CoefficientField, f2: CoefficientField) -> float:
    """Sup norm of the difference of two fields over the same mesh.

    For piecewise-constant multiplication operators this equals the
    L2 -> L2 operator norm of the difference exactly: max |v1 - v2| in
    the scalar case, max spectral norm in the matrix case.
    """
    if f1.mesh is not f2.mesh:
        raise InvalidArgumentError("fields live on different meshes")
    if f1.values.shape != f2.values.shape:
        raise InvalidArgumentError("fields have different value shapes")
    diff = f1.values - f2.values
    if diff.ndim == 3:
        return float(np.linalg.svd(diff, compute_uv=False).max()) if diff.size else 0.0
    return float(np.abs(diff).max()) if diff.size else 0.0


def resample_field(
    field: CoefficientField, new_mesh: Mesh, parent: np.ndarray
) -> CoefficientField:
    """Transfer a piecewise-constant field onto a nested refinement.

    New element i takes the value of old element ``parent[i]``, the
    element of ``field.mesh`` that holds it, which the caller computes
    once for all the fields it transfers
    (``field.mesh.locate_elements(new_mesh)``); the transfer is exact. The
    result is validated as any field is, so ``parent`` must have one entry
    per new element.
    """
    if new_mesh.dimension != field.mesh.dimension:
        raise InvalidArgumentError("meshes have different dimensions")
    return CoefficientField(new_mesh, field.values[parent])
