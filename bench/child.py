"""One measured helmprec process, started fresh by ``run.py``.

    python3 bench/child.py --src SRC --result OUT.json [--import-only]
                           [--trace SPANS.npz --run-id ID] -- <helmprec args>

Times ``import helmprec.cli`` (numpy and scipy included), then either
runs the speedometer (``--import-only``: a probe) or times the call into
``helmprec.cli.main`` and reads the peak resident set. With ``--trace``
the layer wrappers of ``tracer.py`` are installed after the import and
before the call. The CLI's own summary lines go to stdout; the
measurements go to the ``--result`` file as JSON.
"""

import argparse
import json
import os
import resource
import sys
import time


def speedometer() -> float:
    """Seconds taken by a fixed mix of the work helmprec's time goes to.

    Sparse triangular solves on a banded factor (memory bound), small
    sparse products in a Python loop (interpreter bound, like ARPACK's
    reverse communication) and a pure-Python loop. It uses numpy and scipy
    only, never helmprec, so a change to the program cannot move it.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 64
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(sp.identity(n), T) + sp.kron(T, sp.identity(n))).tocsc()
    B = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(500, 500)).tocsr()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        lu = spla.splu(A, permc_spec="NATURAL")
        b = np.ones(n * n)
        for _ in range(150):
            b = lu.solve(b)
            b /= np.linalg.norm(b)
        x = np.ones(500)
        for _ in range(9000):
            x = B @ x
            x = x / np.linalg.norm(x)
        acc = 0
        for i in range(450_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return (times[1] + times[2]) / 2  # the first pass warms the process up


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--import-only", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("--run-id", default="")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, os.path.abspath(args.src))
    t0 = time.perf_counter()
    import helmprec.cli

    result = {"import_s": time.perf_counter() - t0}
    if not os.path.abspath(helmprec.cli.__file__).startswith(os.path.abspath(args.src)):
        print(f"error: helmprec was imported from {helmprec.cli.__file__}", file=sys.stderr)
        return 1
    if args.import_only:
        result["speed_s"] = speedometer()
    else:
        tracer = None
        if args.trace:
            import tracer as bench_tracer

            tracer = bench_tracer.install(args.run_id)
        t1 = time.perf_counter()
        result["exit_code"] = helmprec.cli.main(cli_args)
        result["wall_s"] = time.perf_counter() - t1
        sys.stdout.flush()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            written = sum(os.path.getsize(p) for p in tracer.paths_written)
            result["trace"] = bench_tracer.summary(tracer, written)
            tracer.write(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
