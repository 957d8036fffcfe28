"""Shared fixtures: canonical test problems and dense oracles.

The oracle helpers use dense scipy.linalg factorizations only, so they
stay independent of the package's sparse/iterative code paths.
"""

import importlib.util
import inspect
import os
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from helmprec import (
    ProblemSpec,
    Role,
    assemble_system,
    build_interval_mesh,
    build_rect_mesh,
    constant_field,
)
from helmprec.mesh import BoundaryTag

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def bench_run():
    """``bench/run.py`` as a module; its sibling ``check.py`` is its ``check``."""
    sys.path.insert(0, BENCH)  # run.py imports check.py
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_run", os.path.join(BENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(BENCH)
    return run


IMP = BoundaryTag.IMPEDANCE
DIR = BoundaryTag.DIRICHLET
NEU = BoundaryTag.NEUMANN


def canonical_spec_1d(k, n, left=IMP, right=IMP, theta=1.0, a=0.0, b=1.0):
    mesh = build_interval_mesh(a, b, n, left, right)
    return ProblemSpec(
        k, mesh, constant_field(mesh, 1.0, Role.MU_INV),
        constant_field(mesh, 1.0, Role.EPS), theta,
    )


def canonical_1d(k, n, **kw):
    return assemble_system(canonical_spec_1d(k, n, **kw))


def working_rung(spec, seed=0):
    """An inf-sup ladder's working rung: (spec, n, inf-sup report) of ``spec``'s system."""
    system = assemble_system(spec)
    return spec, system.n, system.inf_sup(seed)


def canonical_spec_2d(k, nx, ny, tags=IMP, theta=1.0):
    mesh = build_rect_mesh(1.0, 1.0, nx, ny, tags)
    return ProblemSpec(
        k, mesh, constant_field(mesh, 1.0, Role.MU_INV),
        constant_field(mesh, 1.0, Role.EPS), theta,
    )


def canonical_2d(k, nx, ny, **kw):
    return assemble_system(canonical_spec_2d(k, nx, ny, **kw))


# -- dense oracles -------------------------------------------------------------

def dense_chol(D):
    return sla.cholesky(np.asarray(D.toarray() if hasattr(D, "toarray") else D),
                        lower=True)


def oracle_weighted_norm(C, D, mode):
    """sigma_max of the conjugated matrix via dense Cholesky + SVD."""
    C = np.asarray(C.toarray() if hasattr(C, "toarray") else C)
    if mode == "euclid":
        return sla.svdvals(C)[0]
    L = dense_chol(D)
    if mode == "D":
        T = L.conj().T @ C @ sla.inv(L).conj().T
    else:
        T = sla.inv(L) @ C @ L
    return sla.svdvals(T)[0]


def oracle_infsup(A, D):
    """sigma_min of L^{-1} A L^{-*} via dense SVD."""
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    L = dense_chol(D)
    T = sla.solve_triangular(L, A, lower=True) @ sla.inv(L).conj().T
    return sla.svdvals(T)[-1]


def oracle_solution_norms(A, D, M):
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    L, R = dense_chol(D), dense_chol(M)
    Ainv = sla.inv(A)
    return (
        sla.svdvals(L.conj().T @ Ainv @ L)[0],
        sla.svdvals(L.conj().T @ Ainv @ R)[0],
        sla.svdvals(R.conj().T @ Ainv @ R)[0],
    )


def random_spd(rng, n, shift=None):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + (n if shift is None else shift) * np.eye(n)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def splu_calls(monkeypatch):
    """(shape, dtype) of every matrix passed to ``spla.splu``, in call order."""
    calls = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        calls.append((A.shape, A.dtype))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


@pytest.fixture
def live_factors(monkeypatch):
    """At every ``spla.splu`` call, in call order, how many of the
    ``LUFactor`` and ``GramFactor`` objects made earlier in the test are
    still alive. The objects are held by weak references only, and no
    collection is forced, so a factor kept alive by a reference cycle
    counts as alive, as its memory does."""
    from helmprec import numerics

    made, alive = [], []
    splu = spla.splu

    def tracking(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))
        return __init__

    def counting_splu(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return splu(*args, **kwargs)

    for cls in (numerics.LUFactor, numerics.GramFactor):
        monkeypatch.setattr(cls, "__init__", tracking(cls.__init__))
    monkeypatch.setattr(spla, "splu", counting_splu)
    return alive


def rebind_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` under every name a helmprec module binds it to."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "helmprec" or name.startswith("helmprec.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.fixture
def pencil_calls(monkeypatch):
    """Dimension of every eigensolve (``numerics._pencil_lambda_max`` call),
    in call order, counted through every helmprec module that binds it.
    The dimension is read by parameter name, wherever it sits in the call."""
    from helmprec import numerics

    calls = []
    pencil = numerics._pencil_lambda_max
    signature = inspect.signature(pencil)

    def counting_pencil(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments["n"])
        return pencil(*args, **kwargs)

    rebind_everywhere(monkeypatch, pencil, counting_pencil)
    return calls


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Every ``spla.eigsh`` call, in call order, as a dict: its keyword
    arguments (``kwargs``; a positional argument after the operator fails
    the call), the dtype and shape of its operator (``dtype``, ``shape``)
    and, once it returns, its eigenvectors (``vecs``)."""
    calls = []
    eigsh = spla.eigsh

    def recording_eigsh(A, **kwargs):
        call = {"kwargs": kwargs, "dtype": A.dtype, "shape": A.shape}
        calls.append(call)
        vals, call["vecs"] = eigsh(A, **kwargs)
        return vals, call["vecs"]

    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    return calls
