"""Convergence experiment for the alternating-series inverse of the
deformation operator: residual norms, conjugate-variable norms and the
information estimate, term by term, from one pass over the series.

Usage: python scripts/neumann_convergence.py [q] [N] [L] [terms]
"""
import sys
from itertools import islice

import numpy as np

from qfock import make_context
from qfock import deformation as df
from qfock.derivations import dq_star
from qfock.fock import q_inner


def main() -> None:
    q = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    N = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    L = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    terms = int(sys.argv[4]) if len(sys.argv) > 4 else 20

    ctx = make_context(N, q, L)
    header = ["n", "residual"] + [f"cv_norm_{j}" for j in range(1, N + 1)] + ["fisher"]
    print(",".join(header))
    for n, _, U in islice(df.neumann_series(ctx, terms), 1, None):
        vecs = [dq_star(df.HSElement(ctx, U), j, ctx) for j in range(1, N + 1)]
        norms = [float(np.sqrt(q_inner(v, v, ctx).real)) for v in vecs]
        cells = [str(n), f"{df.neumann_residual(ctx, U):.6e}"]
        cells += [f"{x:.12f}" for x in norms]
        cells.append(f"{sum(x**2 for x in norms):.12f}")
        print(",".join(cells))


if __name__ == "__main__":
    main()
