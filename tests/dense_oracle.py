"""Dense oracles of the doubled-space actions for the tests.

The library applies every doubled-space action matrix-free.  Here the
actions are built as dense dim**2 x dim**2 matrices, whose row/column
``i * dim + j`` is (basis i) (x) (basis j), and decomposed in full; that is
affordable up to dim 63 or so (a 3969-square float matrix is 126 MB).
"""
from __future__ import annotations

import numpy as np

from qfock.deformation import _real_if_possible, _sym_stacks, _weighted_stack, xi_as_hs
from qfock.fock import metric
from qfock.operators import left_wick_stack, right_wick_stack


def dense_action(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of ``V -> sum_{u,v} C[u,v] . A_u @ V @ B_v^T``."""
    d = A.shape[1]
    W = _weighted_stack(_real_if_possible(C), B)  # (u, x2, y2)
    M = np.tensordot(A, W, axes=(0, 0))  # (x1, y1, x2, y2)
    return M.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def lr_action(T) -> np.ndarray:
    """Matrix of the left action of the tensor-square element T."""
    ctx = T.ctx
    return dense_action(left_wick_stack(ctx), right_wick_stack(ctx), T.coeffs)


def dense_sym_action(ctx, C: np.ndarray, which: str = "left") -> np.ndarray:
    """Matrix of the left (or right) action of C in metric-orthonormal
    coordinates."""
    Ah, Bh = _sym_stacks(ctx)
    if which == "right":
        Ah, Bh = Bh, Ah
    return dense_action(Ah, Bh, C)


def dense_xi_sqrt_right(ctx, C: np.ndarray) -> np.ndarray:
    """Coefficients of C hit on the right by the PSD square root of the
    deformation operator: ``eigh`` of the symmetrized dense right action,
    eigenvalues clipped at 0, applied in metric-orthonormal coordinates."""
    d = ctx.dim
    S = dense_sym_action(ctx, xi_as_hs(ctx).coeffs, which="right")
    w, U = np.linalg.eigh((S + S.conj().T) / 2)
    m = metric(ctx)
    v = (m["Gh"] @ C @ m["Gh"]).reshape(-1)
    out = (U @ (np.sqrt(np.clip(w, 0.0, None)) * (U.conj().T @ v))).reshape(d, d)
    return m["Gih"] @ out @ m["Gih"]
