"""Operators on the truncated deformed Fock space.

Every operator is the plain ``(dim, dim)`` array of its matrix in the graded
word basis; the functions that need the deformed metric (:func:`adjoint`,
:func:`op_norm`) take the context.  Memoized operators are read-only arrays.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_STACK_DIM_CAP,
    AlphabetError,
    CapacityError,
    HomogeneityError,
    check_dim,
)
from .fock import FockContext, GradedVector, _rev_perm, metric, norm_q

__all__ = [
    "creation",
    "annihilation",
    "right_creation",
    "right_annihilation",
    "right_annihilation_mirror",
    "gaussian",
    "right_gaussian",
    "adjoint",
    "wick_matrix",
    "left_wick_stack",
    "right_wick_stack",
    "trace_state",
    "op_norm",
    "c_q",
    "bozejko_check",
    "BozejkoReport",
]

_WICK_CACHE_MAX_LEN = 3
_C_Q_TOL = 1e-15
_C_Q_MAX_FACTORS = 10**6


def _check_letter(i: int, ctx: FockContext) -> None:
    if not (1 <= i <= ctx.N):
        raise AlphabetError(f"letter {i} outside 1..{ctx.N}")


def creation(i: int, ctx: FockContext) -> np.ndarray:
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
        return M

    return ctx.memo(("crea", i), build)


def annihilation(i: int, ctx: FockContext) -> np.ndarray:
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
        return M

    return ctx.memo(("anni", i), build)


def right_creation(i: int, ctx: FockContext) -> np.ndarray:
    """Append letter ``i``: :func:`creation` conjugated by word reversal."""
    _check_letter(i, ctx)
    rev = _rev_perm(ctx)
    return ctx.memo(("rcrea", i), lambda: creation(i, ctx)[np.ix_(rev, rev)])


def right_annihilation(i: int, ctx: FockContext) -> np.ndarray:
    """Adjoint of :func:`right_creation` in the deformed metric."""
    _check_letter(i, ctx)
    return ctx.memo(("ranni", i), lambda: adjoint(right_creation(i, ctx), ctx))


def right_annihilation_mirror(i: int, ctx: FockContext) -> np.ndarray:
    """Mirror formula sum_k q^(n-k) [w_k = i] (w minus k): :func:`annihilation`
    conjugated by word reversal, as :func:`right_creation` is built; a
    cross-check of :func:`right_annihilation` only."""
    _check_letter(i, ctx)
    rev = _rev_perm(ctx)
    return annihilation(i, ctx)[np.ix_(rev, rev)]


def gaussian(i: int, ctx: FockContext) -> np.ndarray:
    """Field operator: creation(i) + annihilation(i); self-adjoint in the metric."""
    return ctx.memo(("gauss", i), lambda: creation(i, ctx) + annihilation(i, ctx))


def right_gaussian(i: int, ctx: FockContext) -> np.ndarray:
    return ctx.memo(("rgauss", i), lambda: right_creation(i, ctx) + right_annihilation(i, ctx))


def _check_shape(A: np.ndarray, ctx: FockContext) -> None:
    d = ctx.dim
    if A.shape != (d, d):
        raise ValueError(f"matrix shape {A.shape} does not match context dim {d}")


def adjoint(A: np.ndarray, ctx: FockContext) -> np.ndarray:
    """The unique B with <A x, y> = <x, B y> in the deformed metric."""
    _check_shape(A, ctx)
    m = metric(ctx)
    return m["Gi"] @ A.conj().T @ m["G"]


# ---- word operators ---------------------------------------------------------


def _wick_step(w: tuple[int, ...], head: np.ndarray, lower, q: float) -> np.ndarray:
    """One step of the first-letter recursion for the word w:
    ``head - sum_{j>=2} q^(j-2) [w_1 = w_j] lower(w_2.. without w_j)``, where
    ``head`` is ``X_{w_1} psi_{w_2..}`` (for right multiplication, its
    mirror), updated in place and returned, and ``lower`` returns the
    operator of a word two letters shorter."""
    tail = w[1:]
    for j in range(2, len(w) + 1):
        if w[0] == w[j - 1]:
            head -= q ** (j - 2) * lower(tail[: j - 2] + tail[j - 1 :])
    return head


def wick_matrix(w: tuple[int, ...], ctx: FockContext) -> np.ndarray:
    """Matrix of the word operator with vacuum image equal to the basis word w.

    Three-term recursion on the first letter (:func:`_wick_step`):
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
        head = gaussian(w[0], ctx) @ wick_matrix(w[1:], ctx)
        return _wick_step(w, head, lambda h: wick_matrix(h, ctx), ctx.q)

    return ctx.memo(("L", w), build) if len(w) <= _WICK_CACHE_MAX_LEN else build()


def _stack(ctx: FockContext, side: str, m: int) -> np.ndarray:
    """``(words of length <= m, dim, dim)`` stack of the word operators of
    levels 0..m in graded basis order, for left (``side`` "L") or right
    ("R") multiplication; memoized per context.

    Filled level by level from its own lower entries by :func:`_wick_step`,
    in place: the head of a word is ``X_(w_1) S[tail]`` on the left, the
    bit-identical arithmetic of :func:`wick_matrix`, and ``S[tail] Y_(w_1)``
    with the right field operator Y on the right, where products compose in
    reverse.
    """

    def build():
        d = ctx.dim
        field = gaussian if side == "L" else right_gaussian
        S = np.empty((ctx.level_offset(m + 1), d, d))
        S[0] = np.eye(d)
        if m:
            # level 1: the field operators, exactly their products with the unit
            S[1 : ctx.N + 1] = [field(i, ctx) for i in range(1, ctx.N + 1)]
        for n in range(2, m + 1):
            for idx in range(ctx.N**n):
                w = ctx.index_word(n, idx)
                X = field(w[0], ctx)
                # the tail w_2.. has index idx // N one level down
                tail = S[ctx.level_offset(n - 1) + idx // ctx.N]
                head = S[ctx.level_offset(n) + idx]
                if side == "L":
                    np.matmul(X, tail, out=head)
                else:
                    np.matmul(tail, X, out=head)
                _wick_step(w, head, lambda h: S[ctx.global_index(h)], ctx.q)
        return S

    return ctx.memo(("stack", side, m), build)


def _level_stack(n: int, ctx: FockContext) -> np.ndarray:
    """``(N^n, dim, dim)`` view of the level-n left word operators, for
    ``n <= _WICK_CACHE_MAX_LEN``: only whole-level contractions use it;
    single words keep the per-word memo of :func:`wick_matrix`."""
    return _stack(ctx, "L", min(ctx.L, _WICK_CACHE_MAX_LEN))[ctx.level_slice(n)]


def _wick_stack(ctx: FockContext, side: str) -> np.ndarray:
    d = ctx.dim
    if d > DEFAULT_STACK_DIM_CAP:
        raise CapacityError(
            f"dense word-operator stack needs {d}^3 floats (dim {d} > "
            f"{DEFAULT_STACK_DIM_CAP}); {DEFAULT_STACK_DIM_CAP} is a fixed limit "
            f"on the dim^3 stack, which neither QFOCK_SIZE_CAP nor --cap-override raises"
        )
    return _stack(ctx, side, ctx.L)


def left_wick_stack(ctx: FockContext) -> np.ndarray:
    """(dim, dim, dim) array of all word-operator matrices, graded basis order."""
    return _wick_stack(ctx, "L")


def right_wick_stack(ctx: FockContext) -> np.ndarray:
    """(dim, dim, dim) array of the right multiplications by all word
    operators, graded basis order."""
    return _wick_stack(ctx, "R")


# ---- state, norms, inequality harness ---------------------------------------


def trace_state(A: np.ndarray) -> complex:
    """Vacuum expectation <vacuum, A vacuum> in the deformed metric.

    The level-0 Gram block is 1 and levels are orthogonal, so this is the
    (0, 0) matrix entry.
    """
    return complex(A[0, 0])


def _parity_metric(ctx: FockContext) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """``(indices, Gh block, Gih block)`` for the even and then the odd
    levels (both metrics are block diagonal by level)."""

    def build():
        m = metric(ctx)
        level = np.repeat(np.arange(ctx.L + 1), ctx.level_dims)
        out = []
        for parity in (0, 1):
            idx = np.flatnonzero(level % 2 == parity)
            cut = np.ix_(idx, idx)
            out.append((idx, m["Gh"][cut], m["Gih"][cut]))
        return tuple(out)

    return ctx.memo("parity_metric", build)


def _sandwich_norm(
    left: np.ndarray, B: np.ndarray, right: np.ndarray, B_imag: np.ndarray | None = None
) -> float:
    """Largest singular value of ``S = left @ (B + 1j * B_imag) @ right`` for
    real ``left``, ``right`` and ``B``: the square root of the top ``eigvalsh``
    eigenvalue of the smaller of ``S S^H`` and ``S^H S``.  A complex B goes
    through as its real and imaginary parts."""
    if np.iscomplexobj(B):
        B, B_imag = B.real, B.imag
    S = left @ B @ right
    if B_imag is not None:
        S = S + 1j * (left @ B_imag @ right)
    gram = S @ S.conj().T if S.shape[0] <= S.shape[1] else S.conj().T @ S
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _parity_support(ctx: FockContext, parts: tuple[np.ndarray, ...]) -> tuple[bool, bool]:
    """Whether the matrices ``parts`` have a nonzero entry in a level block
    that keeps the parity of the level, and in one that flips it; read from
    views of the level blocks, without copies."""
    levels = [ctx.level_slice(n) for n in range(ctx.L + 1)]
    found = [False, False]
    for m, rows in enumerate(levels):
        for n, cols in enumerate(levels):
            p = (m + n) % 2
            found[p] = found[p] or any(P[rows, cols].any() for P in parts)
    return found[0], found[1]


def _metric_norm(ctx: FockContext, re: np.ndarray, im: np.ndarray | None = None) -> float:
    """:func:`op_norm` of the operator ``re + 1j * im`` (``re`` alone when
    ``im`` is None), taken from its real and imaginary matrices as they are."""
    keeps, flips = _parity_support(ctx, (re,) if im is None else (re, im))
    if keeps and flips:
        m = metric(ctx)
        return _sandwich_norm(m["Gh"], re, m["Gih"], im)
    parity = _parity_metric(ctx)
    norms = []
    for r, c in [(0, 1), (1, 0)] if flips else [(0, 0), (1, 1)]:
        (rows, left, _), (cols, _, right) = parity[r], parity[c]
        if rows.size and cols.size:
            cut = np.ix_(rows, cols)
            norms.append(_sandwich_norm(left, re[cut], right, None if im is None else im[cut]))
    return max(norms)


def op_norm(A: np.ndarray, ctx: FockContext) -> float:
    """Largest singular value of A with respect to the deformed metric.

    That is the top singular value of ``Gh A Gih``.  When A keeps the parity
    of the level or flips it (its other two parity blocks are exact zeros, as
    for word and field operators and the word operator of a homogeneous
    vector), that matrix has one nonzero block per input parity, and the norm
    is the larger of the two blocks' values.  An operator that mixes parities
    is taken whole.  Each value comes from the smaller Gram matrix of the
    block (:func:`_sandwich_norm`).
    """
    _check_shape(A, ctx)
    return _metric_norm(ctx, A.real, A.imag if np.iscomplexobj(A) else None)


def c_q(q: float) -> float:
    """Reciprocal of the infinite product prod_{m>=1} (1 - |q|^m).

    The product is truncated once the next factor differs from 1 by less
    than ``_C_Q_TOL``; geometric decay makes this a few dozen factors at most.
    """
    a = abs(q)
    if a >= 1.0:
        raise ValueError(f"|q| must be < 1, got {q}")
    prod = 1.0
    term = a
    for _ in range(_C_Q_MAX_FACTORS):
        if term < _C_Q_TOL:
            break
        prod *= 1.0 - term
        term *= a
    # close to |q| = 1 the product underflows; the constant is then +inf
    return 1.0 / prod if prod > 0.0 else math.inf


def _power(c: float, e: float) -> float:
    """``c**e`` for c >= 0, or +inf where that overflows a float."""
    try:
        return c**e
    except OverflowError:
        return math.inf


def _hatted(C: np.ndarray, n: int, ctx: FockContext) -> np.ndarray:
    """Level-(n-2) coefficients of ``sum_w C[r, w] sum_{j>=2} q^(j-2)
    [w_1 = w_j] (w without letters 1 and j)`` for each row r of C: the
    subtracted words of the :func:`_wick_step` recursion, collected over all w."""
    # axis n-t of the tensor holds letter t (first letter least significant)
    T = C.reshape((len(C),) + (ctx.N,) * n)
    eta = np.zeros((len(C), ctx.N ** (n - 2)), dtype=C.dtype)
    for j in range(1, n):
        eta += ctx.q ** (j - 1) * np.diagonal(T, axis1=n - j, axis2=n).sum(-1).reshape(len(C), -1)
    return eta


def _wick_sum(C: np.ndarray, n: int, ctx: FockContext) -> np.ndarray:
    """``sum_w C[r, w] * wick_matrix(w)`` over the level-n words for each row
    r of the real block C, as a ``(rows, dim, dim)`` array; a complex vector
    goes in as the block of its real and imaginary parts.

    Up to level ``_WICK_CACHE_MAX_LEN`` that is one product of C with the
    level stack.  Above it, the first-letter recursion of :func:`wick_matrix`
    is linear in the word, so it applies to the whole block at once:
    ``psi(xi) = sum_i X_i psi(xi_i) - psi(eta)`` with ``xi_i(t) = xi(i t)``
    and eta from :func:`_hatted`.  For each row, the sub-sums of all first
    letters come from one block one level down and meet ``[X_1 ... X_N]`` in
    one product.
    """
    d = ctx.dim
    if n <= _WICK_CACHE_MAX_LEN:
        S = _level_stack(n, ctx)
        return (C @ S.reshape(len(S), d * d)).reshape(len(C), d, d)
    N = ctx.N
    # [r, i] holds the tails of the words of row r with first letter i + 1
    by_first = C.reshape(len(C), -1, N).transpose(0, 2, 1)
    fields = _level_stack(1, ctx).transpose(1, 0, 2).reshape(d, N * d)
    out = np.empty((len(C), d, d))
    for r in range(len(C)):
        np.matmul(fields, _wick_sum(by_first[r], n - 1, ctx).reshape(N * d, d), out=out[r])
    out -= _wick_sum(_hatted(C, n, ctx), n - 2, ctx)
    return out


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
    ``c_q(|q|)^(3/2) * (n+1) * ||xi||`` with the deformed two-norm, +inf
    where the constant overflows.  The operator is contracted from the
    memoized stack of the short words (:func:`_wick_sum`), not built
    word by word, and has the parity of n, so its norm is taken from two
    parity blocks of its real and imaginary matrices.
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
    check_dim(ctx.dim, "word operator for the norm inequality", ctx.cap_override)
    coeffs = xi.level(n)
    re, im = _wick_sum(np.stack([coeffs.real, coeffs.imag]), n, ctx)
    lhs = _metric_norm(ctx, re, im)
    l2 = norm_q(xi)
    c = c_q(ctx.q)
    bound = _power(c, 1.5) * (n + 1) * l2
    return BozejkoReport(n, lhs, l2, bound, c, lhs <= bound + 1e-9)
