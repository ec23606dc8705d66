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
    CapacityError,
    LevelRangeError,
    NonConvergenceWarning,
    SquareRootUnavailableError,
    check_doubled_axis,
)
from .fock import FockContext, gram, metric
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
    "xi_inverse_neumann",
    "NeumannResult",
]

_DENSE_DOUBLED_DIM = 64


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


def _rev_perm(ctx: FockContext) -> np.ndarray:
    """Word-reversal permutation of the graded basis (an involution)."""
    cached = ctx._stacks.get("rev")
    if cached is not None:
        return cached
    perm = np.empty(ctx.dim, dtype=int)
    for n in range(ctx.L + 1):
        off = ctx.level_offset(n)
        for idx in range(ctx.N**n):
            w = ctx.index_word(n, idx)
            perm[off + idx] = off + ctx.word_index(w[::-1])
    ctx._stacks["rev"] = perm
    return perm


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
    key = ("xi_hs", Q)
    cached = ctx._xi.get(key)
    if cached is not None:
        return cached
    d = ctx.dim
    C = np.zeros((d, d), dtype=complex)
    for n in range(Q + 1):
        block = gram(n, ctx)
        ginv = block.b.entries @ block.b.entries
        s = ctx.level_slice(n)
        rev = np.array(
            [ctx.word_index(ctx.index_word(n, i)[::-1]) for i in range(ctx.N**n)]
        )
        C[s, s] = (ctx.q**n) * ginv[:, rev]
    out = HSElement(ctx, C)
    ctx._xi[key] = out
    return out


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


def lr_action(T: HSElement) -> np.ndarray:
    """Dense matrix of the left action on the doubled space (dim**2 square).

    Index convention: row/column ``i * dim + j`` is (basis i) (x) (basis j).
    Guarded by the doubled-axis capacity cap.
    """
    ctx = T.ctx
    d = ctx.dim
    check_doubled_axis(d, "dense doubled-space action matrix")
    A = left_wick_stack(ctx)
    B = right_wick_stack(ctx)
    W = _weighted_stack(_real_if_possible(T.coeffs), B)  # (u, x2, y2)
    M = np.tensordot(A, W, axes=(0, 0))  # (x1, y1, x2, y2)
    return M.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _sym_stacks(ctx: FockContext) -> tuple[np.ndarray, np.ndarray]:
    """Word-operator stacks conjugated into metric-orthonormal coordinates.

    With ``S = G**(1/2)`` the sandwiched stacks ``S A_u S^-1``, ``S B_v S^-1``
    turn the doubled metric into the standard one, so operator norms become
    plain singular values; sandwiching once per context avoids any dim**2
    square matrix products.  Both come back indexed ``(u, i, k)``; the left
    stack is stored in the ``_concat`` layout and returned as a view of it.
    """
    cached = ctx._stacks.get("sym")
    if cached is None:
        m = metric(ctx)
        Gh, Gih = m["Gh"][None, :, :], m["Gih"][None, :, :]
        Ah = np.matmul(np.matmul(Gh, left_wick_stack(ctx)), Gih)
        Bh = np.matmul(np.matmul(Gh, right_wick_stack(ctx)), Gih)
        cached = ctx._stacks["sym"] = (_concat(Ah), Bh)
    A_cat, Bh = cached
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
    d = ctx.dim
    check_doubled_axis(d, "dense doubled-space action matrix")
    Ah, Bh = _sym_stacks(ctx)
    if which == "right":
        Ah, Bh = Bh, Ah
    W = _weighted_stack(_real_if_possible(C), Bh)
    M = np.tensordot(Ah, W, axes=(0, 0))
    return M.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _lanczos_top(matvec, d2: int, dtype, which: str) -> float:
    """Extreme eigenvalue (ARPACK ``which``: "LM" or "LA") of a self-adjoint
    operator, by deterministic Lanczos iteration from a fixed start vector."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = LinearOperator((d2, d2), matvec=matvec, dtype=dtype)
    v0 = np.full(d2, 1.0 / math.sqrt(d2))
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
    is the forward action of the star element.  The top singular value comes
    from deterministic Lanczos iteration on the normal operator.  Pass
    ``hermitian=True`` for elements known to be self-adjoint (polynomials in
    the deformation operator): the largest |eigenvalue| of the symmetrized
    action ``(M + M^T) / 2`` is then computed with one Lanczos run.
    """
    ctx = T.ctx
    d = ctx.dim
    C = _real_if_possible(T.coeffs)
    if not np.abs(C).max():
        return 0.0
    Ah, Bh = _sym_stacks(ctx)
    A_cat = _concat(Ah)

    def action(coeffs):
        apply = _action_matvec(A_cat, _weighted_stack(coeffs, Bh))
        return lambda v: apply(v.reshape(d, d)).reshape(-1)

    if d * d <= 128:
        fwd = action(C)
        M = np.stack([fwd(e) for e in np.eye(d * d)], axis=1)
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if hermitian and not np.iscomplexobj(C):
        sym = action((C + _star(ctx, C)) / 2)
        return abs(_lanczos_top(sym, d * d, float, "LM"))
    fwd, adj = action(C), action(_star(ctx, C))
    top = _lanczos_top(lambda v: adj(fwd(v)), d * d, C.dtype, "LA")
    return math.sqrt(max(top, 0.0))


def doubled_right_form(T: HSElement, X: np.ndarray, Y: np.ndarray) -> complex:
    """<X, (right action of T) Y> in the doubled metric, for (dim, dim) vectors."""
    ctx = T.ctx
    G = metric(ctx)["G"]
    Z = rl_apply(T, Y)
    return complex(np.vdot(X, G @ Z @ G))


def doubled_psd_sqrt(T: HSElement, which: str = "right", tol: float = 1e-9) -> np.ndarray:
    """Metric-symmetric PSD square root of the (right or left) action of T.

    Returns a dense dim**2 matrix in METRIC-ORTHONORMAL coordinates; apply it
    with :func:`apply_in_orthonormal`.  Raises
    :class:`SquareRootUnavailableError` when the action has eigenvalues below
    ``-tol`` (possible for q < 0 at finite truncation); eigenvalues in
    (-tol, 0) are clipped to 0.
    """
    ctx = T.ctx
    d = ctx.dim
    if d > _DENSE_DOUBLED_DIM:
        raise CapacityError(
            f"dense doubled-space square root unavailable at dim {d} > "
            f"{_DENSE_DOUBLED_DIM}"
        )
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
    reported as +inf, never raised.
    """
    c = c_q(q)
    nu = c**3 * _bracket(abs(q) * N)
    rho = c**3 * _bracket(abs(q) * math.sqrt(N))
    return ConstantsReport(q, N, c, nu, rho, nu < 1.0, rho < 1.0)


# ---- Neumann series ----------------------------------------------------------


@dataclass
class NeumannResult:
    """Partial sums of the alternating series for the inverse of the
    deformation operator, with per-term residual norms.

    ``residuals[i]`` is the doubled-space operator norm of
    ``(deformation op) # U_i - 1 (x) 1``; monotone geometric decay is the
    convergence signature.
    """

    element: HSElement
    residuals: list[float]
    warned: bool


def xi_inverse_neumann(
    ctx: FockContext, n_terms: int, compute_residuals: bool = True
) -> NeumannResult:
    """Alternating Neumann series ``U_n = sum_{i<=n} (-1)^i (Xi - 1)^i``.

    Powers are taken in the (truncated) tensor-square algebra via the left
    action.  A convergence warning (not an error) fires when the working
    constants report ``rho >= 1`` or when residuals increase over three
    consecutive terms.
    """
    rep = constants(ctx.q, ctx.N)
    warned = False
    if not rep.rho_lt_1:
        warnings.warn(
            f"rho({ctx.q}, {ctx.N}) = {rep.rho:.3g} >= 1: the Neumann series "
            f"has no convergence guarantee at these parameters",
            NonConvergenceWarning,
        )
        warned = True
    delta = xi_as_hs(ctx) - unit_hs(ctx)
    term = _real_if_possible(unit_hs(ctx).coeffs)
    U = term.copy()
    residuals: list[float] = []
    xi = xi_as_hs(ctx)
    for i in range(1, n_terms + 1):
        term = lr_apply(delta, term)
        U = U + (-1) ** i * term
        if compute_residuals:
            H = lr_apply(xi, U)
            H[0, 0] -= 1.0
            residuals.append(doubled_op_norm(HSElement(ctx, H), hermitian=True))
    if compute_residuals and len(residuals) >= 4:
        runs = [b > a for a, b in zip(residuals, residuals[1:])]
        if any(all(runs[i : i + 3]) for i in range(len(runs) - 2)):
            warnings.warn(
                "Neumann residuals increased over three consecutive terms; "
                "the series is not converging at this truncation",
                NonConvergenceWarning,
            )
            warned = True
    return NeumannResult(HSElement(ctx, U), residuals, warned)
