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
    EigensolverError,
    LevelRangeError,
    NonConvergenceWarning,
    QRangeError,
    SquareRootUnavailableError,
)
from .fock import FockContext, _rev_perm, gram, metric
from .operators import FockOperator, _power, c_q, left_wick_stack, right_wick_stack

__all__ = [
    "HSElement",
    "ConstantsReport",
    "xi_multiplier",
    "xi_as_hs",
    "multiplier_of",
    "lr_apply",
    "rl_apply",
    "hs_mult",
    "hs_inner",
    "hs_norm_of",
    "unit_hs",
    "doubled_op_norm",
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
    # (u, i, k) -> (i, u*d + k): the left GEMM operand of _action_matvec
    d = stack.shape[1]
    return stack.transpose(1, 0, 2).reshape(d, -1)


def _support(C: np.ndarray) -> tuple[int, int]:
    # [lo, hi): the contiguous range spanning the nonzero rows of C (0, 0 if none)
    rows = np.flatnonzero(np.any(C, axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _action_matvec(A_cat: np.ndarray, W: np.ndarray):
    """The map ``V -> sum_u A_u @ V @ W_u^T`` on (dim, dim) arrays, with
    ``A_cat = _concat(A)``: one batched matmul plus one
    (d, d*k) x (d*k, d) GEMM per application, k = len(W).  Callers pass only
    the word operators in the nonzero row range of the coefficients (see
    :func:`_trimmed_action`)."""
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


def _trimmed_action(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """:func:`_action_matvec` of ``sum_{u,v} C[u,v] . A_u @ V @ B_v^T`` over
    the word operators in the nonzero row range of C (for A) and column range
    (for B) only; a full-support C takes exactly the untrimmed arrays."""
    lo, hi = _support(C)
    clo, chi = _support(C.T)
    W = _weighted_stack(C[lo:hi, clo:chi], B[clo:chi])
    return _action_matvec(_concat(A[lo:hi]), W)


def _action_apply(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, V: np.ndarray
) -> np.ndarray:
    return _trimmed_action(A, B, _real_if_possible(C))(_real_if_possible(V))


def lr_apply(T: HSElement, V: np.ndarray) -> np.ndarray:
    """Left action of T on a doubled-space vector in (dim, dim) matrix form.

    ``(a (x) b)`` sends ``x (x) y`` to ``ax (x) yb``; with V[i, j] the
    coefficient of (basis i) (x) (basis j) this is
    ``sum_{u,v} C[u,v] . A_u @ V @ B_v^T``, contracted only over the word
    operators in the nonzero row and column range of C.
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


def _sym_stacks(ctx: FockContext) -> tuple[np.ndarray, np.ndarray]:
    """Word-operator stacks conjugated into metric-orthonormal coordinates.

    With ``S = G**(1/2)`` the sandwiched stacks ``S A_u S^-1``, ``S B_v S^-1``
    turn the doubled metric into the standard one, so operator norms become
    plain singular values; sandwiching once per context avoids any dim**2
    square matrix products.  Both come back indexed ``(u, i, k)``.  The left
    stack is stored in the contraction layout ``A2[i, k*d + u]`` of
    :func:`_sym_action` and returned as a view of it.
    """

    def build():
        m = metric(ctx)
        Gh, Gih = m["Gh"][None, :, :], m["Gih"][None, :, :]
        Ah = np.matmul(np.matmul(Gh, left_wick_stack(ctx)), Gih)
        Bh = np.matmul(np.matmul(Gh, right_wick_stack(ctx)), Gih)
        return np.ascontiguousarray(Ah.transpose(1, 2, 0)), Bh

    A2, Bh = ctx.memo("sym_stacks", build)
    return A2.transpose(2, 0, 1), Bh


def _star(ctx: FockContext, C: np.ndarray) -> np.ndarray:
    """Coefficients of the adjoint element: ``C*[u, v] = conj(C[rev u, rev v])``.

    In metric-orthonormal coordinates the adjoint of a word operator is the
    operator of the reversed word, so the forward action of ``C*`` is the
    adjoint of the forward action of ``C``.
    """
    rev = _rev_perm(ctx)
    return C[np.ix_(rev, rev)].conj()


def _sym_action(ctx: FockContext, C: np.ndarray):
    """Matrix-free left action of C in metric-orthonormal coordinates, as a
    map on flattened doubled-space vectors.

    ``V -> sum_{u,v} C[u,v] . Ah_u @ V @ Bh_v^T`` is two plain GEMMs,
    ``A2 @ (V @ Wh).reshape(-1, d)``, with ``A2[i, k*d + u] = Ah_u[i, k]`` and
    the weighted right stack ``Wh[l, u*d + j] = sum_v C[u,v] Bh_v[j, l]``;
    the product ``V @ Wh`` is already laid out as the right operand, so a
    matvec copies nothing.  Only the word operators in the nonzero row and
    column range of C take part; ``A2`` is a view of the stored stack when
    the rows span every word, and ``Wh`` is built once, here.  A complex
    product ``V @ Wh`` meets the real ``A2`` through its interleaved real
    view; a complex V against real coefficients runs as its two real parts.
    """
    d = ctx.dim
    Ah, Bh = _sym_stacks(ctx)
    lo, hi = _support(C)
    clo, chi = _support(C.T)
    A2 = Ah[lo:hi].transpose(1, 2, 0).reshape(d, -1)
    W = _weighted_stack(C[lo:hi, clo:chi], Bh[clo:chi])
    Wh = W.transpose(2, 0, 1).reshape(d, -1)

    def gemms(V: np.ndarray) -> np.ndarray:
        P = (V @ Wh).reshape(-1, d)
        if np.iscomplexobj(P):
            return (A2 @ P.view(float)).view(complex)
        return A2 @ P

    def apply(v: np.ndarray) -> np.ndarray:
        V = v.reshape(d, d)
        if np.iscomplexobj(V) and not np.iscomplexobj(Wh):
            return (gemms(V.real) + 1j * gemms(V.imag)).reshape(-1)
        return gemms(V).reshape(-1)

    return apply


# Lanczos constants: the tolerance of ARPACK's convergence rule, the number of
# steps between two tests of it, and the step cap past which a run that has
# neither converged nor exhausted its Krylov space is an internal failure
_LANCZOS_TOL = 1e-11
_LANCZOS_STRIDE = 4
_LANCZOS_MAX_STEPS = 1000
_EPS = np.finfo(float).eps
# the square root of the deformation action: unavailable below this least
# eigenvalue (those above it are clipped to 0), and converged once one stride
# changes it by at most _SQRT_TOL relative
_SQRT_NEG_TOL = 1e-9
_SQRT_TOL = 1e-13


def _lanczos(matvec, v: np.ndarray, dtype):
    """Lanczos iteration on a self-adjoint operator of the doubled space from
    the start vector ``v``, with full reorthogonalization (classical
    Gram-Schmidt, twice per step).

    Every ``_LANCZOS_STRIDE`` steps, and once the Krylov space is exhausted,
    yields ``(theta, S, beta, Q, exhausted)``: the eigendecomposition of the
    tridiagonal matrix, the norm of the new residual and the basis so far (the
    rows of Q).  The space is exhausted after ``len(v)`` steps, or when the new
    residual is at the rounding level of the matvec (an invariant subspace,
    e.g. the unit element after one step); the consumer stops there at the
    latest.  Raises :class:`EigensolverError` after ``_LANCZOS_MAX_STEPS``
    steps without a stop.
    """
    d2 = v.size
    m = min(d2, _LANCZOS_MAX_STEPS)
    Q = np.empty((min(m, 2 * _LANCZOS_STRIDE), d2), dtype=dtype)  # doubles as it fills
    alpha, beta = np.zeros(m), np.zeros(m)
    Q[0] = v / np.linalg.norm(v)
    anorm = 0.0
    for j in range(m):
        w = matvec(Q[j])
        anorm = max(anorm, float(np.linalg.norm(w)))
        basis = Q[: j + 1]
        for _ in range(2):
            h = (basis @ w.conj()).conj()
            w = w - h @ basis
            alpha[j] += h[j].real
        beta[j] = np.linalg.norm(w)
        exhausted = j + 1 == d2 or beta[j] <= math.sqrt(d2) * _EPS * anorm
        if exhausted or (j + 1) % _LANCZOS_STRIDE == 0:
            theta, S = np.linalg.eigh(
                np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            )
            yield theta, S, beta[j], Q[: j + 1], exhausted
        if j + 1 == len(Q) < m:
            Q = np.concatenate([Q, np.empty((min(len(Q), m - len(Q)), d2), dtype=dtype)])
        if j + 1 < m:
            Q[j + 1] = w / beta[j]
    raise EigensolverError(
        f"Lanczos did not converge in {m} steps on a doubled space of dimension {d2}"
    )


def _extreme_eig(matvec, d2: int, dtype, which: str) -> float:
    """Extreme eigenvalue of a self-adjoint operator on the doubled space:
    ``which`` is "LA" (largest), "SA" (smallest) or "LM" (largest modulus).

    :func:`_lanczos` from one seeded Gaussian start vector: a constant vector
    is invariant under letter relabelling and word reversal, so its Krylov
    space never leaves that symmetric sector and misses extremes that lie
    outside it.  The wanted Ritz value ``theta`` is tested with ARPACK's
    rule, ``|beta * s_last| <= _LANCZOS_TOL * max(|theta|, eps**(2/3) *
    max|Ritz value|)``; ARPACK's floor is ``eps**(2/3)`` itself, which would
    accept any Ritz value of an operator whose norm lies below it.  Ritz
    values are exact once the Krylov space is exhausted.
    """
    v = np.random.default_rng(0).standard_normal(d2)
    for theta, S, beta, _, exhausted in _lanczos(matvec, v, dtype):
        top = int(np.abs(theta).argmax())
        i = {"LA": -1, "SA": 0, "LM": top}[which]
        floor = _EPS ** (2 / 3) * abs(theta[top])
        if exhausted or beta * abs(S[-1, i]) <= _LANCZOS_TOL * max(abs(theta[i]), floor):
            return float(theta[i])


def _lanczos_sqrt(matvec, b: np.ndarray) -> np.ndarray:
    """``A**(1/2) b`` for a self-adjoint PSD operator A: ``|b| Q sqrt(T) e_1``
    over the :func:`_lanczos` basis Q from b, with the Ritz values of T
    clipped at 0 (Higham, *Functions of Matrices*, 2008, ch. 13).  Stops at
    exhaustion, or when one stride changes the coefficients over Q by at most
    ``_SQRT_TOL`` relative."""
    if not b.any():
        return b
    prev = np.zeros(0)
    for theta, S, _, Q, exhausted in _lanczos(matvec, b, b.dtype):
        c = S @ (np.sqrt(np.clip(theta, 0.0, None)) * S[0])
        change = np.linalg.norm(c - np.pad(prev, (0, len(c) - len(prev))))
        if exhausted or change <= _SQRT_TOL * np.linalg.norm(c):
            return np.linalg.norm(b) * (c @ Q)
        prev = c


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


def _xi_sqrt_right(ctx: FockContext, C: np.ndarray) -> np.ndarray:
    """Coefficients of T hit on the right by the PSD square root of the
    deformation operator, for T with coefficient matrix C.

    In metric-orthonormal coordinates the right action of an element X sends
    V to ``(left action of X^T on V^T)^T``.  The coefficient matrix of the
    deformation operator is symmetric (its Gram blocks are invariant under
    word reversal), so its right action has the spectrum of
    :func:`_xi_spectral_range`, and the root is unavailable when the lower
    end lies below ``-_SQRT_NEG_TOL``.  The root is applied matrix-free by
    :func:`_lanczos_sqrt` on the symmetrized left action of ``X^T``.
    """
    lo, _ = _xi_spectral_range(ctx)
    if lo < -_SQRT_NEG_TOL:
        raise SquareRootUnavailableError(
            f"doubled-space action has eigenvalue {lo:.3e} < -{_SQRT_NEG_TOL}; "
            f"no real PSD square root at this truncation (q = {ctx.q})"
        )
    m = metric(ctx)
    X = _real_if_possible(xi_as_hs(ctx).coeffs)
    sym = _sym_action(ctx, ((X + _star(ctx, X)) / 2).T)
    b = (m["Gh"] @ _real_if_possible(C) @ m["Gh"]).T.reshape(-1)
    Y = _lanczos_sqrt(sym, b).reshape(ctx.dim, ctx.dim).T
    return m["Gih"] @ Y @ m["Gih"]


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
    carry the cube of the product constant.  Poles (argument >= 1) and
    constants that overflow a float near |q| = 1 are reported as +inf, never
    raised; q outside (-1, 1) raises
    :class:`QRangeError` and N < 1 raises :class:`AlphabetError`.
    """
    if not -1.0 < q < 1.0:
        raise QRangeError(f"deformation parameter must satisfy -1 < q < 1, got {q}")
    if N < 1:
        raise AlphabetError(f"alphabet size must be a positive integer, got {N!r}")
    c = c_q(q)
    nu = _power(c, 3) * _bracket(abs(q) * N)
    rho = _power(c, 3) * _bracket(abs(q) * math.sqrt(N))
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
