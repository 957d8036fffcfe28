"""Layer tracer for the helmprec benchmark, applied from outside the package.

``install`` wraps the public functions each helmprec module calls at its
layer boundary, plus the two scipy kernels ``numerics`` rests on
(``scipy.sparse.linalg.splu`` and ``eigsh``). Every call to a wrapped
function records a span: name, start, end and parent, all sharing one run
ID. Spans stay in memory; ``write`` saves them when the run ends.

Function wrappers replace *every* binding of the original object in every
loaded ``helmprec`` module, so ``from .numerics import gram_factor`` in
``bounds``, ``cli`` and ``solvers`` is covered as well as the defining
module. The tracer assumes one thread (the benchmark runs sweeps with the
default ``--threads 1``).

Self time of a span is its duration minus the time its child spans cover;
layer ``*_s`` metrics are sums of self time over spans of that layer.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_INDEX_BYTES = 4  # SuperLU stores int32 row indices


class Tracer:
    """Span recorder with online self-time and per-name counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, child time covered]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.max_s: defaultdict[str, float] = defaultdict(float)
        self.spans: Counter = Counter()
        self.counts: Counter = Counter()
        self.paths_written: set[str] = set()
        self.matrices: set[bytes] = set()
        self.rebinds: dict[str, int] = {}

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int):
        t = time.perf_counter()
        self.end[idx] = t
        _, covered = self._stack.pop()
        dur = t - self.start[idx]
        name = self.names[self.name[idx]]
        self.self_s[name] += dur - covered
        self.spans[name] += 1
        if dur > self.max_s[name]:
            self.max_s[name] = dur
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call; ``after(args, kwargs, out)``
        updates counters once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def write(self, path: str):
        """Save every span as parallel arrays (names indexed by ``name``)."""
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self, bytes_written: int) -> dict[str, float]:
        s, c, n = self.self_s, self.counts, self.spans
        factors = n["lu.factor"]
        applies = c["arpack.op_applies"]
        return {
            "lu.factors": factors,
            "lu.factor_s": s["lu.factor"],
            "lu.fill_nnz": c["lu.fill_nnz"],
            "lu.distinct_ratio": len(self.matrices) / factors if factors else 0.0,
            "lu.solves": c["lu.solves"],
            "lu.solve_s": s["lu.solve"],
            "lu.solve_bytes_computed": c["lu.solve_bytes"],
            "arpack.calls": n["arpack"],
            "arpack.op_applies": applies,
            "arpack.self_s": s["arpack"],
            "arpack.failed": c["arpack.failed"],
            "arpack.useful_ratio": c["arpack.useful_applies"] / applies if applies else 0.0,
            "numerics.gram_factors": n["numerics.gram_factor"],
            "numerics.gram_factor_s": s["numerics.gram_factor"],
            "numerics.inf_sup_s": s["numerics.inf_sup"],
            "numerics.op_norm_s": s["numerics.op_norm"],
            "numerics.mass_extremes_s": s["numerics.mass_extremes"],
            "numerics.solution_norms_s": s["numerics.solution_norms"],
            "numerics.eigensolves": c["numerics.eigensolves"],
            "bounds.garding_s": s["bounds.garding"],
            "bounds.nearby_report_s": s["bounds.nearby_report"],
            "bounds.norm_equiv_s": s["bounds.norm_equiv"],
            "bounds.ladder_s": s["bounds.ladder"],
            "bounds.remesh_s": s["bounds.remesh"],
            "mesh.build_s": s["mesh.build"],
            "mesh.locate_s": s["mesh.locate"],
            "mesh.locate_points": c["mesh.locate_points"],
            "coeffs.resample_s": s["coeffs.resample"],
            "coeffs.field_s": s["coeffs.field"],
            "assemble.system_s": s["assemble.system"],
            "assemble.systems": c["assemble.systems"],
            "assemble.dofs": c["assemble.dofs"],
            "solvers.fixed_point_s": s["solvers.fixed_point"],
            "solvers.gmres_s": s["solvers.gmres"],
            "solvers.direct_solve_s": s["solvers.direct_solve"],
            "solvers.fp_iters": c["solvers.fp_iters"],
            "solvers.gmres_iters": c["solvers.gmres_iters"],
            "io.config_s": s["io.config"],
            "io.write_s": s["io.write"],
            "io.bytes_written": bytes_written,
            "cli.points": n["cli.point"],
            "cli.point_s_max": self.max_s["cli.point"],
            "cli.self_s": s["cli.main"] + s["cli.cmd"] + s["cli.point"],
        }


class _TracedSuperLU:
    """SuperLU stand-in that records a span and counts bytes per solve."""

    __slots__ = ("_lu", "_tracer", "_col_bytes")

    def __init__(self, lu, tracer: Tracer, col_bytes: int):
        self._lu = lu
        self._tracer = tracer
        self._col_bytes = col_bytes

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        idx = tracer.enter("lu.solve")
        try:
            out = self._lu.solve(rhs, *args, **kwargs)
        finally:
            tracer.exit(idx)
        cols = 1 if np.ndim(rhs) < 2 else np.shape(rhs)[1]
        tracer.counts["lu.solves"] += 1
        tracer.counts["lu.solve_bytes"] += self._col_bytes * cols
        return out

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _matrix_digest(A) -> bytes:
    """Identity of a factored matrix: shape, sparsity pattern and values."""
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(A):
        A = A.tocsc(copy=True)  # sorting in place must not touch the caller's matrix
        A.sort_indices()
        parts = (np.asarray(A.shape), A.indptr, A.indices, A.data)
    else:
        A = np.asarray(A)
        parts = (np.asarray(A.shape), A)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.digest()


def _rebind(original, replacement, modules) -> int:
    """Replace every module attribute bound to ``original``; returns count."""
    count = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(run_id: str) -> Tracer:
    """Wrap the helmprec layer boundaries and scipy kernels; returns the tracer."""
    from helmprec import assemble, bounds, cli, coeffs, io, mesh, numerics, solvers

    tracer = Tracer(run_id)
    c = tracer.counts
    pkg_modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "helmprec" or name.startswith("helmprec."))
    ]

    def patch(name, fn, after=None):
        wrapper = tracer.wrap(name, fn, after)
        tracer.rebinds[f"{name}:{fn.__name__}"] = _rebind(fn, wrapper, pkg_modules)

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))
        tracer.rebinds[f"{name}:{cls.__name__}.{attr}"] = 1

    def count(key, value_of):
        def after(args, kwargs, out):
            c[key] += value_of(args, kwargs, out)
        return after

    # lu: every factorization goes through scipy.sparse.linalg.splu
    orig_splu = spla.splu

    def splu(A, *args, **kwargs):
        tracer.matrices.add(_matrix_digest(A))
        idx = tracer.enter("lu.factor")
        try:
            lu = orig_splu(A, *args, **kwargs)
        finally:
            tracer.exit(idx)
        c["lu.fill_nnz"] += lu.nnz
        itemsize = np.dtype(getattr(A, "dtype", np.float64)).itemsize
        return _TracedSuperLU(lu, tracer, lu.nnz * (itemsize + _INDEX_BYTES))

    tracer.rebinds["lu.factor:splu"] = _rebind(orig_splu, splu, [spla] + pkg_modules)

    # arpack: eigsh, counting applications of the operator A
    orig_eigsh = spla.eigsh

    def eigsh(A, *args, **kwargs):
        A = spla.aslinearoperator(A)
        applies = [0]

        def matvec(v):
            applies[0] += 1
            return A.matvec(v)

        op = spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        idx = tracer.enter("arpack")
        try:
            out = orig_eigsh(op, *args, **kwargs)
        except spla.ArpackNoConvergence:
            c["arpack.failed"] += 1
            raise
        else:
            c["arpack.useful_applies"] += applies[0]
        finally:
            tracer.exit(idx)
            c["arpack.op_applies"] += applies[0]
        return out

    tracer.rebinds["arpack:eigsh"] = _rebind(orig_eigsh, eigsh, [spla] + pkg_modules)

    # numerics
    patch("numerics.gram_factor", numerics.gram_factor)
    patch("numerics.inf_sup", numerics.discrete_inf_sup)
    patch("numerics.op_norm", numerics.weighted_operator_norm)
    patch("numerics.mass_extremes", numerics.mass_extremes)
    patch("numerics.solution_norms", numerics.solution_operator_norms)
    orig_pencil = numerics._pencil_lambda_max

    def pencil(*args, **kwargs):
        c["numerics.eigensolves"] += 1
        return orig_pencil(*args, **kwargs)

    tracer.rebinds["numerics.eigensolves:_pencil_lambda_max"] = _rebind(
        orig_pencil, pencil, pkg_modules
    )

    # bounds
    patch("bounds.garding", bounds.garding_check)
    patch("bounds.nearby_report", bounds.nearby_bound_report)
    patch("bounds.norm_equiv", bounds.norm_equivalence_report)
    patch("bounds.ladder", bounds.infsup_ladder)
    patch("bounds.remesh", bounds.remesh_problem)

    # mesh and coeffs
    patch("mesh.build", mesh.build_rect_mesh)
    patch("mesh.build", mesh.build_interval_mesh)
    patch_method(
        mesh.Mesh, "locate_elements", "mesh.locate",
        count("mesh.locate_points", lambda a, k, out: int(np.size(out))),
    )
    patch("coeffs.resample", coeffs.resample_field)
    for fn in (coeffs.constant_field, coeffs.piecewise_field, coeffs.pml_profile_1d,
               coeffs.absorption_shift, coeffs.field_diff_sup_norm):
        patch("coeffs.field", fn)
    patch_method(coeffs.CoefficientField, "__post_init__", "coeffs.field")

    # assemble (load vectors are counted in the same layer time)
    def systems(args, kwargs, out):
        c["assemble.systems"] += 1
        c["assemble.dofs"] += out.n

    patch("assemble.system", assemble.assemble_system, systems)
    patch("assemble.system", assemble.assemble_load)

    # solvers
    patch("solvers.fixed_point", solvers.fixed_point,
          count("solvers.fp_iters", lambda a, k, out: out.iterations))
    patch("solvers.gmres", solvers.gmres,
          count("solvers.gmres_iters", lambda a, k, out: out.iterations))
    patch("solvers.direct_solve", solvers.direct_solve)

    # io
    def written(args, kwargs, out):
        tracer.paths_written.add(args[0] if out is None else out)

    patch("io.config", io.load_config)
    patch("io.write", io.write_report, written)
    patch("io.write", io.write_csv, written)

    # cli: main is the root span of every run
    patch("cli.cmd", cli.cmd_verify)
    patch("cli.cmd", cli.cmd_sweep)
    patch("cli.point", cli._sweep_point)
    patch("cli.main", cli.main)
    return tracer


def summary(tracer: Tracer, bytes_written: int) -> dict:
    return {
        "run_id": tracer.run_id,
        "layers": tracer.layer_metrics(bytes_written),
        "spans": dict(tracer.spans),
        "rebinds": tracer.rebinds,
    }

