"""One benchmark job process.

    python perfbench/job.py --ready FILE [--probe] [--trace FILE --job ID] -- <qfock args>

Imports ``qfock`` and ``qfock.cli`` from ``<checkout>/src``, writes the
monotonic time at which the command is ready to run to ``--ready``, and then
runs ``python -m qfock <qfock args>`` in this process through ``runpy``.

``--probe`` stops after the imports and adds the environment (versions, CPU
count, BLAS libraries and their thread counts) to the ready file.
``--trace`` installs ``tracing.Tracer`` before the command runs and writes
its spans and counts to FILE when the command ends.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import runpy
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
                break
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_libraries(),
    }


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    p = argparse.ArgumentParser(prog="job.py")
    p.add_argument("--ready", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("--job", type=int, default=0)
    opts = p.parse_args(argv[:split])
    qfock_args = argv[split + 1:]

    # what ``python -m qfock`` would find first on its path
    sys.path[0] = str(ROOT / "src")
    import qfock
    import qfock.cli  # noqa: F401

    ready = {"ready": time.monotonic(), "qfock": qfock.__file__}
    if opts.probe:
        ready["env"] = environment()
    with open(opts.ready, "w", encoding="utf-8") as fh:
        json.dump(ready, fh)
    if opts.probe:
        return 0

    tracer = None
    if opts.trace:
        tracer = tracing.Tracer()
        tracer.install("qfock")
    sys.argv = ["qfock", *qfock_args]
    try:
        runpy.run_module("qfock", run_name="__main__", alter_sys=True)
    finally:
        if tracer is not None:
            tracer.dump(opts.trace, opts.job)
    return 0


if __name__ == "__main__":
    sys.exit(main())
