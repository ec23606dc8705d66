"""Operators on the truncated deformed Fock space.

All operators here are compressions to levels 0..L: a raising operator maps
the top level to 0, and products of compressed operators lose the paths that
would cross the truncation boundary.  Consequences, stated once and relied on
throughout:

* moments ``<vacuum, (product of field operators) vacuum>`` are exact as soon
  as L is at least the number of factors;
* operator norms computed here are lower bounds for the untruncated norms
  (compression can only shrink a norm);
* applying a word operator built by the recursion below to a vector is exact
  whenever word length + vector level stays within L.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetError, HomogeneityError, check_dim
from .fock import FockContext, GradedVector, _rev_perm, metric, q_inner

__all__ = [
    "FockOperator",
    "creation",
    "annihilation",
    "right_creation",
    "right_annihilation",
    "right_annihilation_mirror",
    "gaussian",
    "right_gaussian",
    "adjoint",
    "wick_word",
    "wick_matrix",
    "right_wick_matrix",
    "left_wick_stack",
    "right_wick_stack",
    "trace_state",
    "op_norm",
    "hs_norm",
    "c_q",
    "bozejko_check",
    "BozejkoReport",
]

_WICK_CACHE_MAX_LEN = 3


@dataclass
class FockOperator:
    """Dense matrix over the full graded word basis, tagged with its context.

    ``grading_shift``, when set, asserts that only blocks mapping level n to
    level n + shift are nonzero (0 = block diagonal); it is a validation tag,
    not a behavioral switch.
    """

    ctx: FockContext
    mat: np.ndarray
    grading_shift: int | None = None

    def __post_init__(self):
        d = self.ctx.dim
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} does not match context dim {d}")
        if self.grading_shift is not None:
            self.validate_grading()

    def validate_grading(self) -> None:
        s = self.grading_shift
        for n_in in range(self.ctx.L + 1):
            for n_out in range(self.ctx.L + 1):
                if n_out == n_in + s:
                    continue
                block = self.mat[self.ctx.level_slice(n_out), self.ctx.level_slice(n_in)]
                # the compressed-away top block (L -> 0) is allowed to be zero only
                if np.abs(block).max(initial=0.0) > 0.0:
                    raise ValueError(
                        f"grading_shift={s} but block ({n_in} -> {n_out}) is nonzero"
                    )

    def apply(self, v: GradedVector) -> GradedVector:
        self.ctx.require_compatible(v.ctx)
        return GradedVector(self.ctx, self.mat @ v.data)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self.ctx.require_compatible(other.ctx)
        return FockOperator(self.ctx, self.mat @ other.mat)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self.ctx.require_compatible(other.ctx)
        return FockOperator(self.ctx, self.mat + other.mat)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self.ctx.require_compatible(other.ctx)
        return FockOperator(self.ctx, self.mat - other.mat)

    def __mul__(self, c: complex) -> "FockOperator":
        return FockOperator(self.ctx, self.mat * c)

    __rmul__ = __mul__

    @staticmethod
    def identity(ctx: FockContext) -> "FockOperator":
        return FockOperator(ctx, np.eye(ctx.dim), grading_shift=0)


def _check_letter(i: int, ctx: FockContext) -> None:
    if not (1 <= i <= ctx.N):
        raise AlphabetError(f"letter {i} outside 1..{ctx.N}")


def creation(i: int, ctx: FockContext) -> FockOperator:
    """Prepend letter ``i``; the top level is compressed away (mapped to 0)."""
    _check_letter(i, ctx)

    def build():
        N, d = ctx.N, ctx.dim
        M = np.zeros((d, d))
        for n in range(ctx.L):
            src = np.arange(N**n) + ctx.level_offset(n)
            # prepending shifts existing letters to higher digits
            tgt = (i - 1) + N * np.arange(N**n) + ctx.level_offset(n + 1)
            M[tgt, src] = 1.0
        return FockOperator(ctx, M, grading_shift=+1)

    return ctx.memo(("crea", i), build)


def annihilation(i: int, ctx: FockContext) -> FockOperator:
    """Delete letter ``i``: the word w maps to sum_k q^(k-1) [w_k = i] (w minus k)."""
    _check_letter(i, ctx)

    def build():
        N, q, d = ctx.N, ctx.q, ctx.dim
        M = np.zeros((d, d))
        for n in range(1, ctx.L + 1):
            off_src = ctx.level_offset(n)
            off_tgt = ctx.level_offset(n - 1)
            for idx in range(N**n):
                w = ctx.index_word(n, idx)
                for k in range(1, n + 1):
                    if w[k - 1] != i:
                        continue
                    shorter = w[: k - 1] + w[k:]
                    M[off_tgt + ctx.word_index(shorter), off_src + idx] += q ** (k - 1)
        return FockOperator(ctx, M, grading_shift=-1)

    return ctx.memo(("anni", i), build)


def right_creation(i: int, ctx: FockContext) -> FockOperator:
    """Append letter ``i``: :func:`creation` conjugated by word reversal."""
    _check_letter(i, ctx)

    def build():
        rev = _rev_perm(ctx)
        return FockOperator(ctx, creation(i, ctx).mat[np.ix_(rev, rev)], grading_shift=+1)

    return ctx.memo(("rcrea", i), build)


def right_annihilation(i: int, ctx: FockContext) -> FockOperator:
    """Adjoint of :func:`right_creation` in the deformed metric."""
    _check_letter(i, ctx)
    return ctx.memo(("ranni", i), lambda: adjoint(right_creation(i, ctx)))


def right_annihilation_mirror(i: int, ctx: FockContext) -> FockOperator:
    """Mirror formula sum_k q^(n-k) [w_k = i] (w minus k); cross-check only."""
    _check_letter(i, ctx)
    N, q, d = ctx.N, ctx.q, ctx.dim
    M = np.zeros((d, d))
    for n in range(1, ctx.L + 1):
        off_src = ctx.level_offset(n)
        off_tgt = ctx.level_offset(n - 1)
        for idx in range(N**n):
            w = ctx.index_word(n, idx)
            for k in range(1, n + 1):
                if w[k - 1] != i:
                    continue
                shorter = w[: k - 1] + w[k:]
                M[off_tgt + ctx.word_index(shorter), off_src + idx] += q ** (n - k)
    return FockOperator(ctx, M, grading_shift=-1)


def gaussian(i: int, ctx: FockContext) -> FockOperator:
    """Field operator: creation(i) + annihilation(i); self-adjoint in the metric."""
    return ctx.memo(
        ("gauss", i),
        lambda: FockOperator(ctx, creation(i, ctx).mat + annihilation(i, ctx).mat),
    )


def right_gaussian(i: int, ctx: FockContext) -> FockOperator:
    return ctx.memo(
        ("rgauss", i),
        lambda: FockOperator(
            ctx, right_creation(i, ctx).mat + right_annihilation(i, ctx).mat
        ),
    )


def adjoint(A: FockOperator) -> FockOperator:
    """The unique B with <A x, y> = <x, B y> in the deformed metric."""
    m = metric(A.ctx)
    shift = -A.grading_shift if A.grading_shift is not None else None
    return FockOperator(A.ctx, m["Gi"] @ A.mat.conj().T @ m["G"], grading_shift=shift)


# ---- word operators ---------------------------------------------------------


def wick_matrix(w: tuple[int, ...], ctx: FockContext) -> np.ndarray:
    """Matrix of the word operator with vacuum image equal to the basis word w.

    Three-term recursion on the first letter:
    ``psi_w = X_{w_1} psi_{w_2..} - sum_{j>=2} q^(j-2) [w_1 = w_j] psi_{w_2.. without j}``.
    Applying the result to the vacuum walks levels 0..len(w), so the vacuum
    property is exact for len(w) <= L.  Short words are memoized on the context.
    """
    w = tuple(w)
    if len(w) > ctx.L:
        raise ValueError(f"word length {len(w)} exceeds truncation level {ctx.L}")

    def build():
        if len(w) == 0:
            return np.eye(ctx.dim)
        tail = w[1:]
        M = gaussian(w[0], ctx).mat @ wick_matrix(tail, ctx)
        for j in range(2, len(w) + 1):
            if w[0] == w[j - 1]:
                hatted = tail[: j - 2] + tail[j - 1 :]
                M = M - ctx.q ** (j - 2) * wick_matrix(hatted, ctx)
        return M

    return ctx.memo(("L", w), build) if len(w) <= _WICK_CACHE_MAX_LEN else build()


def right_wick_matrix(w: tuple[int, ...], ctx: FockContext) -> np.ndarray:
    """Matrix of right multiplication by the word operator of w.

    Right multiplication reverses products, so the recursion multiplies the
    factors of :func:`wick_matrix` in swapped order with right-side field
    operators as the base case.
    """
    w = tuple(w)
    if len(w) > ctx.L:
        raise ValueError(f"word length {len(w)} exceeds truncation level {ctx.L}")

    def build():
        if len(w) == 0:
            return np.eye(ctx.dim)
        tail = w[1:]
        M = right_wick_matrix(tail, ctx) @ right_gaussian(w[0], ctx).mat
        for j in range(2, len(w) + 1):
            if w[0] == w[j - 1]:
                hatted = tail[: j - 2] + tail[j - 1 :]
                M = M - ctx.q ** (j - 2) * right_wick_matrix(hatted, ctx)
        return M

    return ctx.memo(("R", w), build) if len(w) <= _WICK_CACHE_MAX_LEN else build()


def wick_word(w: tuple[int, ...], ctx: FockContext) -> FockOperator:
    return FockOperator(ctx, wick_matrix(w, ctx))


def _wick_stack(ctx: FockContext, side: str) -> np.ndarray:
    def build():
        d = ctx.dim
        from .errors import DEFAULT_STACK_DIM_CAP, CapacityError

        if d > DEFAULT_STACK_DIM_CAP:
            raise CapacityError(
                f"dense word-operator stack needs {d}^3 floats (dim {d} > "
                f"{DEFAULT_STACK_DIM_CAP}); use per-word operators instead"
            )
        fn = wick_matrix if side == "L" else right_wick_matrix
        stack = np.empty((d, d, d))
        for n in range(ctx.L + 1):
            off = ctx.level_offset(n)
            for idx in range(ctx.N**n):
                stack[off + idx] = fn(ctx.index_word(n, idx), ctx)
        return stack

    return ctx.memo(("stack", side), build)


def left_wick_stack(ctx: FockContext) -> np.ndarray:
    """(dim, dim, dim) array of all word-operator matrices, graded basis order."""
    return _wick_stack(ctx, "L")


def right_wick_stack(ctx: FockContext) -> np.ndarray:
    return _wick_stack(ctx, "R")


# ---- state, norms, inequality harness ---------------------------------------


def trace_state(A: FockOperator) -> complex:
    """Vacuum expectation <vacuum, A vacuum> in the deformed metric.

    The level-0 Gram block is 1 and levels are orthogonal, so this is the
    (0, 0) matrix entry.
    """
    return complex(A.mat[0, 0])


def op_norm(A: FockOperator) -> float:
    """Largest singular value of A with respect to the deformed metric."""
    m = metric(A.ctx)
    sym = m["Gh"] @ A.mat @ m["Gih"]
    return float(np.linalg.svd(sym, compute_uv=False)[0])


def hs_norm(A: FockOperator) -> float:
    """Hilbert-Schmidt norm of A over any orthonormal basis of the metric."""
    m = metric(A.ctx)
    sym = m["Gh"] @ A.mat @ m["Gih"]
    return float(np.linalg.norm(sym))


def c_q(q: float, tol: float = 1e-15, max_factors: int = 10**6) -> float:
    """Reciprocal of the infinite product prod_{m>=1} (1 - |q|^m).

    The product is truncated once the next factor differs from 1 by less
    than ``tol``; geometric decay makes this a few dozen factors at most.
    """
    a = abs(q)
    if a >= 1.0:
        raise ValueError(f"|q| must be < 1, got {q}")
    prod = 1.0
    term = a
    for _ in range(max_factors):
        if term < tol:
            break
        prod *= 1.0 - term
        term *= a
    return 1.0 / prod


@dataclass(frozen=True)
class BozejkoReport:
    level: int
    lhs: float
    l2: float
    bound: float
    c_q: float
    passed: bool


def bozejko_check(xi: GradedVector, ctx: FockContext | None = None) -> BozejkoReport:
    """Check the level-n norm inequality for the word operator of xi.

    ``lhs`` is the operator norm of ``sum_w xi_w psi_w`` at this truncation
    (a compression, hence a lower bound of the untruncated norm, so a bound
    violation would be a genuine failure); ``bound`` is
    ``c_q(|q|)^(3/2) * (n+1) * ||xi||`` with the deformed two-norm.
    """
    if ctx is None:
        ctx = xi.ctx
    ctx.require_compatible(xi.ctx)
    levels = xi.support_levels()
    if len(levels) != 1:
        raise HomogeneityError(
            f"input must be supported on exactly one level, found levels {levels}"
        )
    n = levels[0]
    coeffs = xi.level(n)
    d = ctx.dim
    check_dim(d, "word operator for the norm inequality", ctx.cap_override)
    M = np.zeros((d, d), dtype=complex)
    for idx in np.flatnonzero(coeffs):
        M += coeffs[idx] * wick_matrix(ctx.index_word(n, idx), ctx)
    lhs = op_norm(FockOperator(ctx, M))
    l2 = float(np.sqrt(q_inner(xi, xi).real))
    c = c_q(ctx.q)
    bound = c**1.5 * (n + 1) * l2
    return BozejkoReport(n, lhs, l2, bound, c, lhs <= bound + 1e-9)
