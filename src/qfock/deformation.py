"""The deformation operator, its tensor-square realization, and explicit constants.

The central object is the graded multiplier that scales level ``n`` by
``q**n``.  It admits a second life as an element of the tensor square of the
operator algebra: summing ``p (x) p*`` over an orthonormal level basis gives
the level projection, so the multiplier equals ``sum_n q^n sum_i p_i (x) p_i*``.
``HSElement`` stores such tensor-square elements by their coefficient matrix
``C[u, v]`` in the (word operator) x (word operator) basis.

Two commuting actions on the doubled space (truncated space tensor itself)
matter:

* ``lr`` (left action): ``(a (x) b) . (x (x) y) = ax (x) yb`` — multiplication
  by the element in the tensor-square algebra; its operator norm is the
  computable proxy for the von Neumann tensor norm.
* ``rl`` (right action): ``(x (x) y) . (a (x) b) = xa (x) by`` — right
  multiplication, whose quadratic form computes norms of derivation values
  hit by the deformation operator on the right.

Everything here is a compression to levels <= L; operator norms are lower
bounds of their untruncated counterparts and are reported as one-sided
consistency checks, never as certifications.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetError,
    LevelRangeError,
    NonConvergenceWarning,
    QRangeError,
    SquareRootUnavailableError,
    check_doubled_axis,
)
from .fock import FockContext, _rev_perm, gram, metric
from .operators import FockOperator, c_q, left_wick_stack, right_wick_stack

__all__ = [
    "HSElement",
    "ConstantsReport",
    "xi_multiplier",
    "xi_as_hs",
    "multiplier_of",
    "lr_action",
    "lr_apply",
    "rl_apply",
    "hs_mult",
    "hs_inner",
    "hs_norm_of",
    "unit_hs",
    "doubled_op_norm",
    "doubled_psd_sqrt",
    "apply_in_orthonormal",
    "constants",
    "neumann_series",
    "neumann_residual",
    "xi_inverse_neumann",
    "NeumannResult",
]

@dataclass
class HSElement:
    """Element of the tensor square in word-operator coordinates.

    ``coeffs[u, v]`` is the coefficient of (word operator u) (x) (word
    operator v); both indices run over the full graded basis.
    """

    ctx: FockContext
    coeffs: np.ndarray

    def __post_init__(self):
        d = self.ctx.dim
        if self.coeffs.shape != (d, d):
            raise ValueError(
                f"coefficient matrix shape {self.coeffs.shape} != ({d}, {d})"
            )
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    def __add__(self, other: "HSElement") -> "HSElement":
        self.ctx.require_compatible(other.ctx)
        return HSElement(self.ctx, self.coeffs + other.coeffs)

    def __sub__(self, other: "HSElement") -> "HSElement":
        self.ctx.require_compatible(other.ctx)
        return HSElement(self.ctx, self.coeffs - other.coeffs)

    def __mul__(self, c: complex) -> "HSElement":
        return HSElement(self.ctx, self.coeffs * c)

    __rmul__ = __mul__


def unit_hs(ctx: FockContext) -> HSElement:
    """The unit 1 (x) 1."""
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    C[0, 0] = 1.0
    return HSElement(ctx, C)


def _level_cap(ctx: FockContext, Q: int | None) -> int:
    if Q is None:
        return ctx.L
    if not 0 <= Q <= ctx.L:
        raise LevelRangeError(
            f"level cap {Q} outside the truncation levels 0..{ctx.L}"
        )
    return Q


def xi_multiplier(ctx: FockContext, Q: int | None = None) -> FockOperator:
    """Graded multiplier: q**n on level n for n <= Q, zero above Q.

    ``Q = None`` means the full truncation (Q = L).  At q = 0 this is the
    vacuum projection.
    """
    Q = _level_cap(ctx, Q)
    diag = np.zeros(ctx.dim)
    for n in range(Q + 1):
        diag[ctx.level_slice(n)] = ctx.q**n
    return FockOperator(ctx, np.diag(diag), grading_shift=0)


def xi_as_hs(ctx: FockContext, Q: int | None = None) -> HSElement:
    """The multiplier as a tensor-square element.

    Level n contributes ``q^n sum_i p_i (x) p_i*`` over the orthonormal level
    basis; in word-operator coordinates that sum is the inverse Gram matrix
    with a reversed second index (the star of a word operator is the operator
    of the reversed word).
    """
    Q = _level_cap(ctx, Q)

    def build():
        d = ctx.dim
        C = np.zeros((d, d), dtype=complex)
        for n in range(Q + 1):
            block = gram(n, ctx)
            s = ctx.level_slice(n)
            C[s, s] = (ctx.q**n) * (block.b.entries @ block.b.entries)
        return HSElement(ctx, C[:, _rev_perm(ctx)])

    return ctx.memo(("xi_hs", Q), build)


def multiplier_of(T: HSElement) -> FockOperator:
    """The operator on the truncated space obtained by tracing against the
    second leg: ``(a (x) b) -> a <reversed b, .>``.

    Inverse of :func:`xi_as_hs` in the sense that the multiplier of the
    tensor-square form of the graded multiplier is the graded multiplier back.
    """
    ctx = T.ctx
    G = metric(ctx)["G"]
    rev = _rev_perm(ctx)
    return FockOperator(ctx, T.coeffs[:, rev] @ G)


# ---- actions on the doubled space -------------------------------------------


def _real_if_possible(C: np.ndarray) -> np.ndarray:
    # everything downstream is 4x faster on float64; coefficients are real
    # whenever they came from real polynomials at real q
    if np.iscomplexobj(C) and not np.any(C.imag):
        return C.real
    return C


def _weighted_stack(C: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # W[u] = sum_v C[u, v] * stack[v]
    return np.tensordot(C, stack, axes=(1, 0))


def _concat(stack: np.ndarray) -> np.ndarray:
    # (u, i, k) -> (i, u*d + k): the left GEMM operand of _action_matvec;
    # a free view when the stack already lives in this layout (_sym_stacks)
    d = stack.shape[1]
    return stack.transpose(1, 0, 2).reshape(d, -1)


def _action_matvec(A_cat: np.ndarray, W: np.ndarray):
    """The map ``V -> sum_u A_u @ V @ W_u^T`` on (dim, dim) arrays, with
    ``A_cat = _concat(A)``: one batched matmul plus one
    (d, d*d) x (d*d, d) GEMM per application."""
    Wt = W.transpose(0, 2, 1)
    d = A_cat.shape[0]

    def apply(V: np.ndarray) -> np.ndarray:
        P = np.matmul(V[None, :, :], Wt).reshape(-1, d)
        if np.iscomplexobj(P) and not np.iscomplexobj(A_cat):
            # real stack, complex P: one real GEMM on the interleaved
            # (re, im) columns instead of a complex copy of the stack
            return (A_cat @ P.view(float)).view(complex)
        return A_cat @ P

    return apply


def _action_apply(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, V: np.ndarray
) -> np.ndarray:
    W = _weighted_stack(_real_if_possible(C), B)
    return _action_matvec(_concat(A), W)(_real_if_possible(V))


def lr_apply(T: HSElement, V: np.ndarray) -> np.ndarray:
    """Left action of T on a doubled-space vector in (dim, dim) matrix form.

    ``(a (x) b)`` sends ``x (x) y`` to ``ax (x) yb``; with V[i, j] the
    coefficient of (basis i) (x) (basis j) this is
    ``sum_{u,v} C[u,v] . A_u @ V @ B_v^T``.
    """
    ctx = T.ctx
    return _action_apply(left_wick_stack(ctx), right_wick_stack(ctx), T.coeffs, V)


def rl_apply(T: HSElement, V: np.ndarray) -> np.ndarray:
    """Right action of T: ``x (x) y -> xa (x) by``, i.e. R_u @ V @ L_v^T."""
    ctx = T.ctx
    return _action_apply(right_wick_stack(ctx), left_wick_stack(ctx), T.coeffs, V)


def hs_mult(T: HSElement, S: HSElement) -> HSElement:
    """Product T # S in the tensor-square algebra.

    The coefficient matrix of the product is the left action of T applied to
    the coefficient matrix of S (exact when the combined degrees stay within
    the truncation; a compression otherwise).
    """
    T.ctx.require_compatible(S.ctx)
    return HSElement(T.ctx, lr_apply(T, S.coeffs))


def hs_inner(T: HSElement, S: HSElement) -> complex:
    """Tensor-square trace inner product, conjugate-linear in the first slot."""
    T.ctx.require_compatible(S.ctx)
    G = metric(T.ctx)["G"]
    return complex(np.vdot(T.coeffs, G @ S.coeffs @ G))


def hs_norm_of(T: HSElement) -> float:
    return float(math.sqrt(max(hs_inner(T, T).real, 0.0)))


def _dense_action(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Dense matrix of ``V -> sum_{u,v} C[u,v] . A_u @ V @ B_v^T`` (dim**2
    square), guarded by the doubled-axis capacity cap.

    Index convention: row/column ``i * dim + j`` is (basis i) (x) (basis j).
    """
    d = A.shape[1]
    check_doubled_axis(d, "dense doubled-space action matrix")
    W = _weighted_stack(_real_if_possible(C), B)  # (u, x2, y2)
    M = np.tensordot(A, W, axes=(0, 0))  # (x1, y1, x2, y2)
    return M.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def lr_action(T: HSElement) -> np.ndarray:
    """Dense matrix of the left action on the doubled space (dim**2 square)."""
    ctx = T.ctx
    return _dense_action(left_wick_stack(ctx), right_wick_stack(ctx), T.coeffs)


def _sym_stacks(ctx: FockContext) -> tuple[np.ndarray, np.ndarray]:
    """Word-operator stacks conjugated into metric-orthonormal coordinates.

    With ``S = G**(1/2)`` the sandwiched stacks ``S A_u S^-1``, ``S B_v S^-1``
    turn the doubled metric into the standard one, so operator norms become
    plain singular values; sandwiching once per context avoids any dim**2
    square matrix products.  Both come back indexed ``(u, i, k)``; the left
    stack is stored in the ``_concat`` layout and returned as a view of it.
    """

    def build():
        m = metric(ctx)
        Gh, Gih = m["Gh"][None, :, :], m["Gih"][None, :, :]
        Ah = np.matmul(np.matmul(Gh, left_wick_stack(ctx)), Gih)
        Bh = np.matmul(np.matmul(Gh, right_wick_stack(ctx)), Gih)
        return _concat(Ah), Bh

    A_cat, Bh = ctx.memo("sym_stacks", build)
    d = ctx.dim
    return A_cat.reshape(d, d, d).transpose(1, 0, 2), Bh


def _star(ctx: FockContext, C: np.ndarray) -> np.ndarray:
    """Coefficients of the adjoint element: ``C*[u, v] = conj(C[rev u, rev v])``.

    In metric-orthonormal coordinates the adjoint of a word operator is the
    operator of the reversed word, so the forward action of ``C*`` is the
    adjoint of the forward action of ``C``.
    """
    rev = _rev_perm(ctx)
    return C[np.ix_(rev, rev)].conj()


def _dense_sym_action(ctx: FockContext, C: np.ndarray, which: str = "left") -> np.ndarray:
    """Dense action matrix in metric-orthonormal coordinates (dim**2 square)."""
    Ah, Bh = _sym_stacks(ctx)
    if which == "right":
        Ah, Bh = Bh, Ah
    return _dense_action(Ah, Bh, C)


def _sym_action(ctx: FockContext, C: np.ndarray):
    """Matrix-free left action of C in metric-orthonormal coordinates, as a
    map on flattened doubled-space vectors; the weighted right stack is built
    once, here."""
    d = ctx.dim
    Ah, Bh = _sym_stacks(ctx)
    apply = _action_matvec(_concat(Ah), _weighted_stack(C, Bh))
    return lambda v: apply(v.reshape(d, d)).reshape(-1)


def _extreme_eig(matvec, d2: int, dtype, which: str) -> float:
    """Extreme eigenvalue of a self-adjoint operator on the doubled space:
    ``which`` is "LA" (largest), "SA" (smallest) or "LM" (largest modulus).

    Up to 128 rows the matrix is built from matvec columns and fully
    diagonalized.  Above that, deterministic Lanczos iteration (ARPACK) runs
    from one seeded Gaussian start vector: a constant vector is invariant
    under letter relabelling and word reversal, so its Krylov space never
    leaves that symmetric sector and misses extremes that lie outside it.
    """
    if d2 <= 128:
        w = np.linalg.eigvalsh(np.stack([matvec(e) for e in np.eye(d2)], axis=1))
        return float({"LA": w[-1], "SA": w[0], "LM": w[np.abs(w).argmax()]}[which])
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = LinearOperator((d2, d2), matvec=matvec, dtype=dtype)
    v0 = np.random.default_rng(0).standard_normal(d2)
    vals = eigsh(
        op, k=1, which=which, v0=v0, ncv=min(d2, 48), tol=1e-11,
        return_eigenvectors=False,
    )
    return float(vals[0])


def doubled_op_norm(T: HSElement, hermitian: bool = False) -> float:
    """Operator norm of the left action of T on the doubled space, in the
    deformed metric of the tensor-square trace.

    Matrix-free: the action is applied through the metric-orthonormal stacks
    with the weighted right stack built once per call, and the adjoint action
    is the forward action of the star element.  The top singular value is the
    square root of the top eigenvalue of the normal operator.  Pass
    ``hermitian=True`` for elements known to be self-adjoint (polynomials in
    the deformation operator): the largest |eigenvalue| of the symmetrized
    action ``(M + M^T) / 2`` is then computed instead.
    """
    ctx = T.ctx
    d2 = ctx.dim**2
    C = _real_if_possible(T.coeffs)
    if not np.abs(C).max():
        return 0.0
    if hermitian and not np.iscomplexobj(C):
        sym = _sym_action(ctx, (C + _star(ctx, C)) / 2)
        return abs(_extreme_eig(sym, d2, float, "LM"))
    fwd, adj = _sym_action(ctx, C), _sym_action(ctx, _star(ctx, C))
    top = _extreme_eig(lambda v: adj(fwd(v)), d2, C.dtype, "LA")
    return math.sqrt(max(top, 0.0))


def _xi_spectral_range(ctx: FockContext) -> tuple[float, float]:
    """(min, max) eigenvalue of the symmetrized doubled-space action of the
    deformation operator: the action of the hermitian shortcut of
    :func:`doubled_op_norm`, at both ends of its spectrum."""

    def build():
        C = _real_if_possible(xi_as_hs(ctx).coeffs)
        sym = _sym_action(ctx, (C + _star(ctx, C)) / 2)
        return tuple(_extreme_eig(sym, ctx.dim**2, C.dtype, w) for w in ("SA", "LA"))

    return ctx.memo("spec_range", build)


def doubled_psd_sqrt(T: HSElement, which: str = "right", tol: float = 1e-9) -> np.ndarray:
    """Metric-symmetric PSD square root of the (right or left) action of T.

    Returns a dense dim**2 matrix in METRIC-ORTHONORMAL coordinates; apply it
    with :func:`apply_in_orthonormal`.  Above dim 64 the doubled-axis cap
    raises :class:`CapacityError`.  Raises
    :class:`SquareRootUnavailableError` when the action has eigenvalues below
    ``-tol`` (possible for q < 0 at finite truncation); eigenvalues in
    (-tol, 0) are clipped to 0.
    """
    ctx = T.ctx
    sym = _dense_sym_action(ctx, T.coeffs, which)
    sym = (sym + sym.conj().T) / 2.0
    w, U = np.linalg.eigh(sym)
    if w.min() < -tol:
        raise SquareRootUnavailableError(
            f"doubled-space action has eigenvalue {w.min():.3e} < -{tol}; "
            f"no real PSD square root at this truncation (q = {ctx.q})"
        )
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)) @ U.conj().T


def apply_in_orthonormal(ctx: FockContext, M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Apply a metric-orthonormal-coordinates doubled matrix to a standard-
    coordinates vector (dim, dim), returning standard coordinates."""
    m = metric(ctx)
    Vg = m["Gh"] @ V @ m["Gh"]
    out = (M @ Vg.reshape(-1)).reshape(ctx.dim, ctx.dim)
    return m["Gih"] @ out @ m["Gih"]


# ---- explicit constants ------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    q: float
    N: int
    c_q: float
    nu: float
    rho: float
    nu_lt_1: bool
    rho_lt_1: bool


def _bracket(b: float) -> float:
    if b >= 1.0:
        return math.inf
    return 4 * b / (1 - b) + 5 * b**2 / (1 - b) ** 2 + 2 * b**3 / (1 - b) ** 3


def constants(q: float, N: int) -> ConstantsReport:
    """Closed-form norm bounds for the deformation operator minus the unit.

    ``nu`` bounds the projective tensor norm via the series in |q|N; ``rho``
    bounds the von Neumann tensor norm via the series in |q|sqrt(N).  Both
    carry the cube of the product constant.  Poles (argument >= 1) are
    reported as +inf, never raised; q outside (-1, 1) raises
    :class:`QRangeError` and N < 1 raises :class:`AlphabetError`.
    """
    if not -1.0 < q < 1.0:
        raise QRangeError(f"deformation parameter must satisfy -1 < q < 1, got {q}")
    if N < 1:
        raise AlphabetError(f"alphabet size must be a positive integer, got {N!r}")
    c = c_q(q)
    nu = c**3 * _bracket(abs(q) * N)
    rho = c**3 * _bracket(abs(q) * math.sqrt(N))
    return ConstantsReport(q, N, c, nu, rho, nu < 1.0, rho < 1.0)


# ---- Neumann series ----------------------------------------------------------


def neumann_series(ctx: FockContext, n_terms: int):
    """Yields ``(n, D^n, U_n)`` for n = 0..n_terms: the partial sums
    ``U_n = sum_{i<=n} (-1)^i D^i`` of the series for the inverse of the
    deformation operator, ``D = Xi - 1``, with powers taken in the truncated
    tensor-square algebra via the left action (in real arithmetic when q is
    real).  Warns when the working constants report ``rho >= 1``."""
    rep = constants(ctx.q, ctx.N)
    if not rep.rho_lt_1:
        warnings.warn(
            f"rho({ctx.q}, {ctx.N}) = {rep.rho:.3g} >= 1: the Neumann series "
            f"has no convergence guarantee at these parameters",
            NonConvergenceWarning,
        )
    delta = xi_as_hs(ctx) - unit_hs(ctx)
    term = _real_if_possible(unit_hs(ctx).coeffs)
    U = term.copy()
    yield 0, term, U
    for n in range(1, n_terms + 1):
        term = lr_apply(delta, term)
        U = U + (-1) ** n * term
        yield n, term, U


def neumann_residual(ctx: FockContext, U: np.ndarray) -> float:
    """Symmetrized (``hermitian=True``) doubled norm of ``Xi # U - 1 (x) 1``.

    At ``U = U_n`` the element is ``(-1)^n D^(n+1)`` in exact arithmetic; the
    product is formed anyway, as the recorded residuals were, since the two
    differ in rounding."""
    H = lr_apply(xi_as_hs(ctx), U)
    H[0, 0] -= 1.0
    return doubled_op_norm(HSElement(ctx, H), hermitian=True)


@dataclass
class NeumannResult:
    """Partial sum of the series for the inverse of the deformation operator,
    with ``residuals[i]`` the :func:`neumann_residual` of ``U_(i+1)``;
    monotone geometric decay is the convergence signature.
    """

    element: HSElement
    residuals: list[float]
    warned: bool


def xi_inverse_neumann(ctx: FockContext, n_terms: int) -> NeumannResult:
    """``U_n_terms`` of :func:`neumann_series` and the residuals of U_1..U_n_terms.

    A convergence warning (not an error) fires when the working constants
    report ``rho >= 1`` or when residuals increase over three consecutive terms.
    """
    residuals: list[float] = []
    for n, _, U in neumann_series(ctx, n_terms):
        if n:
            residuals.append(neumann_residual(ctx, U))
    warned = not constants(ctx.q, ctx.N).rho_lt_1
    runs = [b > a for a, b in zip(residuals, residuals[1:])]
    if any(all(runs[i : i + 3]) for i in range(len(runs) - 2)):
        warnings.warn(
            "Neumann residuals increased over three consecutive terms; "
            "the series is not converging at this truncation",
            NonConvergenceWarning,
        )
        warned = True
    return NeumannResult(HSElement(ctx, U), residuals, warned)
