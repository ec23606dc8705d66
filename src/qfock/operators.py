"""Operators on the truncated deformed Fock space.

Every operator is the plain ``(dim, dim)`` array of its matrix in the graded
word basis; the functions that need the deformed metric (:func:`adjoint`,
:func:`op_norm`) take the context.  Memoized operators are read-only arrays.

The ladder and field operators are compressions to levels 0..L: a raising
operator maps the top level to 0.  The word operators are not: the recursion
below builds each as a polynomial ``p_w(x)`` in the compressed fields ``x =
P X P``, where the compression would be ``P p_w(X) P``, and the two differ
on the top levels, where a path leaves level L and comes back.  Everything
built from them is a value of this truncated model.  Consequences, stated
once and relied on throughout:

* moments ``<vacuum, (product of field operators) vacuum>`` are exact as soon
  as L is at least the number of factors;
* applying a word operator built by the recursion below to a vector is exact
  whenever word length + vector level stays within L;
* operator norms computed here are norms of the truncated model.  For one
  letter (N = 1) they are lower bounds of the untruncated norms: the
  compressed field is a Jacobi matrix whose spectrum lies inside that of X,
  so a norm of a polynomial in it is a maximum over part of the true
  spectrum.  For N >= 2 no such argument covers them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pcg64 import _signed_uniforms
from .errors import (
    AlphabetError,
    EigensolverError,
    HomogeneityError,
    QRangeError,
    check_dim,
    check_store_bytes,
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


def _creation_matrix(i: int, ctx: FockContext) -> np.ndarray:
    N, d = ctx.N, ctx.dim
    M = np.zeros((d, d))
    for n in range(ctx.L):
        src = np.arange(N**n) + ctx.level_offset(n)
        # prepending shifts existing letters to higher digits
        tgt = (i - 1) + N * np.arange(N**n) + ctx.level_offset(n + 1)
        M[tgt, src] = 1.0
    return M


def _annihilation_matrix(i: int, ctx: FockContext) -> np.ndarray:
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


def creation(i: int, ctx: FockContext) -> np.ndarray:
    """Prepend letter ``i``; the top level is compressed away (mapped to 0)."""
    _check_letter(i, ctx)
    return ctx.memo(("crea", i), lambda: _creation_matrix(i, ctx))


def annihilation(i: int, ctx: FockContext) -> np.ndarray:
    """Delete letter ``i``: the word w maps to sum_k q^(k-1) [w_k = i] (w minus k)."""
    _check_letter(i, ctx)
    return ctx.memo(("anni", i), lambda: _annihilation_matrix(i, ctx))


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
    ctx.require_level(len(w), "word length")

    def build():
        if len(w) == 0:
            return np.eye(ctx.dim)
        head = gaussian(w[0], ctx) @ wick_matrix(w[1:], ctx)
        return _wick_step(w, head, lambda h: wick_matrix(h, ctx), ctx.q)

    return ctx.memo(("L", w), build) if len(w) <= _WICK_CACHE_MAX_LEN else build()


def _fill_stack(ctx: FockContext, side: str) -> np.ndarray:
    """``(dim, dim, dim)`` stack of the word operators of levels 0..L in
    graded basis order, for left (``side`` "L") or right ("R")
    multiplication.

    Filled level by level from its own lower entries by :func:`_wick_step`,
    in place: the head of a word is ``X_(w_1) S[tail]`` on the left, the
    bit-identical arithmetic of :func:`wick_matrix`, and ``S[tail] Y_(w_1)``
    with the right field operator Y on the right, where products compose in reverse.
    The left stack is stored word-second, ``(i, u, k)``, and returned as its
    ``(u, i, k)`` view, so that the words of a range side by side,
    ``S[lo:hi].transpose(1, 0, 2).reshape(dim, -1)``, are a view as well.
    """
    d = ctx.dim
    field = gaussian if side == "L" else right_gaussian
    S = np.empty((d, d, d)) if side == "R" else np.empty((d, d, d)).transpose(1, 0, 2)
    S[0] = np.eye(d)
    if ctx.L:
        # level 1: the field operators, exactly their products with the unit
        S[1 : ctx.N + 1] = [field(i, ctx) for i in range(1, ctx.N + 1)]
    for n in range(2, ctx.L + 1):
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


def left_wick_stack(ctx: FockContext) -> np.ndarray:
    """(dim, dim, dim) array of all word-operator matrices, graded basis
    order; memoized per context (:func:`_fill_stack`).  Its ``8 * dim**3``
    bytes are checked against the fixed store limit
    (:func:`~qfock.errors.check_store_bytes`) before it is built."""
    check_store_bytes("dense word-operator stack", 8 * ctx.dim**3, ctx.dim)
    return ctx.memo(("stack", "L"), lambda: _fill_stack(ctx, "L"))


def right_wick_stack(ctx: FockContext) -> np.ndarray:
    """(dim, dim, dim) array of the right multiplications by all word
    operators, graded basis order; memoized per context, under the same
    byte limit as :func:`left_wick_stack`."""
    check_store_bytes("dense word-operator stack", 8 * ctx.dim**3, ctx.dim)
    return ctx.memo(("stack", "R"), lambda: _fill_stack(ctx, "R"))


# ---- state, norms, inequality harness ---------------------------------------


def trace_state(A: np.ndarray) -> complex:
    """Vacuum expectation <vacuum, A vacuum> in the deformed metric.

    The level-0 Gram block is 1 and levels are orthogonal, so this is the
    (0, 0) matrix entry.
    """
    return complex(A[0, 0])


def _parity_metric(ctx: FockContext, k: int = 2) -> tuple[tuple[np.ndarray, ...], ...]:
    """The basis graded by level parity, level n in class ``n % k`` (k = 2:
    the even and then the odd levels; k = 1: the trivial grading, one class),
    as ``(indices, Gh block, Gih block)`` per class.  The operator of a word
    of length n is nonzero only in the blocks (x, y) with ``x ^ y == n % k``."""

    def build():
        m = metric(ctx)
        level = np.repeat(np.arange(ctx.L + 1), ctx.level_dims)
        out = []
        for c in range(k):
            idx = np.flatnonzero(level % k == c)
            cut = np.ix_(idx, idx)
            out.append((idx, m["Gh"][cut], m["Gih"][cut]))
        return tuple(out)

    return ctx.memo(("parity_metric", k), build)


def _grades(split, parts: tuple[np.ndarray, ...]) -> set[int]:
    """The grades ``x ^ y`` of the blocks between the classes (x, y) of
    ``split`` (:func:`_parity_metric`) where one of the matrices ``parts`` has
    a nonzero entry: ``{g}`` for a matrix that shifts every class x to
    ``x ^ g`` (g = 0 keeps the grading), none for a zero matrix."""
    nonzero = np.logical_or.reduce([P != 0 for P in parts])
    grades = set()
    for x, (rows, _, _) in enumerate(split):
        # the columns with a nonzero entry in a row of class x
        reached = nonzero[rows].any(axis=0)
        grades |= {x ^ y for y, (cols, _, _) in enumerate(split) if reached[cols].any()}
    return grades


def _sectors(k: int) -> list[list[tuple[int, int]]]:
    """The blocks ``(x, y)`` of k classes grouped by grade ``x ^ y``: entry g
    lists the blocks ``(x, x ^ g)``, those that a matrix of grade g has."""
    return [[(x, x ^ g) for x in range(k)] for g in range(k)]


# Lanczos constants: the tolerance of ARPACK's convergence rule, the number of
# steps between two tests of it, and the step cap past which a run that has
# neither converged nor exhausted its Krylov space is an internal failure
_LANCZOS_TOL = 1e-11
_LANCZOS_STRIDE = 4
_LANCZOS_MAX_STEPS = 1000
_EPS = np.finfo(float).eps


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _lanczos(matvec, v: np.ndarray, dtype):
    """Lanczos iteration on a self-adjoint operator from the start vector
    ``v``, by its three-term recurrence ``w = A q_j - beta_(j-1) q_(j-1)``,
    ``alpha_j = Re(q_j . w)``, ``w -= alpha_j q_j``, ``beta_j = |w|``: only
    the last two vectors are held, with no basis and no reorthogonalization.
    Orthogonality is lost as Ritz values converge, but a converged extreme
    Ritz value stays accurate to rounding (Paige, *Linear Algebra Appl.* 34,
    1980; Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).

    Every ``_LANCZOS_STRIDE`` steps, and once the Krylov space is exhausted,
    yields ``(alpha, beta, new, anorm, exhausted)``: the diagonal and
    off-diagonal of the tridiagonal matrix (:func:`_tridiagonal`), with the
    norm of the new residual as ``beta[-1]``; the list of the Lanczos
    vectors made since the last yield, which the caller keeps or drops; and
    ``anorm``, the largest ``|A q_j|`` seen, the scale of the matvec's
    rounding.  No eigendecomposition: each consumer does the eigen-work it
    needs.  The space is exhausted when the new residual is at the rounding
    level of the matvec (an invariant subspace, e.g. the unit element after
    one step); the consumer stops there at the latest.  Raises
    :class:`EigensolverError` after ``_LANCZOS_MAX_STEPS`` steps without a
    stop.
    """
    d2 = v.size
    alpha, beta, new = [], [], []
    q = np.asarray(v / _norm(v), dtype)
    q_prev, b = np.zeros_like(q), 0.0
    anorm = 0.0
    for j in range(_LANCZOS_MAX_STEPS):
        new.append(q)
        w = matvec(q)
        anorm = max(anorm, _norm(w))
        w = w - b * q_prev
        a = np.vdot(q, w).real
        w -= a * q
        b = _norm(w)
        alpha.append(a)
        beta.append(b)
        exhausted = b <= math.sqrt(d2) * _EPS * anorm
        if exhausted or (j + 1) % _LANCZOS_STRIDE == 0:
            yield np.array(alpha), np.array(beta), new, anorm, exhausted
            new = []
        q_prev, q = q, w / b
    raise EigensolverError(
        f"Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps on an operator "
        f"of dimension {d2}"
    )


def _tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The dense tridiagonal matrix of a :func:`_lanczos` yield."""
    return np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)


def _extreme_eig(matvec, v: np.ndarray, dtype, which: str) -> float:
    """Extreme eigenvalue of a self-adjoint operator: ``which`` is "LA"
    (largest), "SA" (smallest) or "LM" (largest modulus).

    :func:`_lanczos` from the start vector v.  The wanted Ritz value
    ``theta`` is tested with ARPACK's rule, ``|beta * s_last| <=
    _LANCZOS_TOL * max(|theta|, eps**(2/3) * max|Ritz value|)``; ARPACK's
    floor is ``eps**(2/3)`` itself, which would accept any Ritz value of an
    operator whose norm lies below it.  The bound never falls below ``eps *
    anorm``, the rounding of one matvec (``anorm`` the largest ``|A q_j|``
    of the run): a wanted eigenvalue near 0 would otherwise ask for a
    residual no matvec can resolve, and without a full basis the run would
    reach the step cap chasing it.  The Ritz values come from ``eigvalsh``
    of the tridiagonal T, and the last component ``s_last`` of the Ritz
    vector of theta from one step of inverse iteration: the solve ``(T -
    sigma) x = e_1``, with sigma = theta pushed outward by a few rounding
    units.  Theta is an end of the spectrum of T, so T - sigma stays
    definite, and x is that Ritz vector to rounding.  Its last entry is the
    cofactor ratio ``prod(beta) / det(T - sigma)``, a product with no
    cancellation, so ``|x_last| / |x|`` keeps its relative accuracy however
    small it gets, as the rule needs where its floor sets the bound (a right
    side such as ``(1, ..., 1)`` would leave an absolute error of order
    ``(sigma - theta) / gap`` there).  Ritz values are exact once the Krylov
    space is exhausted.
    """
    for alpha, beta, _, anorm, exhausted in _lanczos(matvec, v, dtype):
        T = _tridiagonal(alpha, beta)
        theta = np.linalg.eigvalsh(T)
        scale = max(abs(theta[0]), abs(theta[-1]))
        # the largest modulus is at an end; a tie takes the lower end
        i = {"LA": -1, "SA": 0, "LM": 0 if abs(theta[0]) >= abs(theta[-1]) else -1}[which]
        if exhausted:
            return float(theta[i])
        # outward: up from the top end (i = -1), down from the bottom one
        sigma = theta[i] + (4 if i else -4) * _EPS * scale
        x = np.linalg.solve(T - sigma * np.eye(len(T)), np.eye(len(T))[0])
        floor = _EPS ** (2 / 3) * scale
        bound = max(_LANCZOS_TOL * max(abs(theta[i]), floor), _EPS * anorm)
        if beta[-1] * abs(x[-1]) <= bound * _norm(x):
            return float(theta[i])


# _top_singular forms the Gram matrix while the smaller side of S is at most
# this, and runs Lanczos on its matvecs above it.  Per Bozejko block, Gram ->
# Lanczos (2 cores, OpenBLAS 0.3.31, best of 5), complex / real blocks:
# - side 85 and 91, (N, q, L) = (2, 0.1 and -0.3, 7) and (3, 0.1, 5):
#   1.0-1.6 -> 1.4-2.8 ms / 0.45-0.67 -> 0.7-1.9 ms;
# - side 130, (5, 0.1, 3): 3.5 -> 2.1 ms / 1.1 -> 1.8 ms;
# - side 170, (2, 0.1 and -0.3, 7) and (2, 0.1, 8): 3.8-5.7 -> 1.6-3.4 ms /
#   1.5-2.1 -> 0.8-1.9 ms;
# - side 273, (3, 0.1, 5) and (4, -0.2, 4): 12.6-18.2 -> 3.1-4.4 ms /
#   4.1-5.2 -> 1.7-3.0 ms.
# The Bozejko blocks are complex, so the cut lies below 130.
_GRAM_MAX_SIDE = 128


def _top_singular(S: np.ndarray) -> float:
    """Largest singular value of S: the square root of the top eigenvalue of
    the smaller of ``S S^H`` and ``S^H S``.  With at most
    ``_GRAM_MAX_SIDE`` rows or columns, that Gram matrix is formed and the
    top of its ``eigvalsh`` taken; above, :func:`_extreme_eig` finds it on
    the matvecs ``v -> S (S^H v)`` (or ``S^H (S v)``), from the fixed
    uniforms of :func:`~qfock._pcg64._signed_uniforms` as the doubled-space
    norms start, and the Gram matrix is never formed."""
    if min(S.shape) <= _GRAM_MAX_SIDE:
        gram = S @ S.conj().T if S.shape[0] <= S.shape[1] else S.conj().T @ S
        return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    H, wide = S.conj().T, S.shape[0] <= S.shape[1]
    start = _signed_uniforms(min(S.shape))
    top = _extreme_eig(lambda v: S @ (H @ v) if wide else H @ (S @ v), start, S.dtype, "LA")
    return math.sqrt(max(top, 0.0))


def _sandwich_norm(left: np.ndarray, B: np.ndarray, right: np.ndarray) -> float:
    """Largest singular value of ``S = left @ B @ right`` for real ``left``
    and ``right`` (:func:`_top_singular`).  A complex B goes through as its
    real and imaginary parts."""
    S = left @ B.real @ right
    if np.iscomplexobj(B):
        S = S + 1j * (left @ B.imag @ right)
    return _top_singular(S)


def op_norm(A: np.ndarray, ctx: FockContext) -> float:
    """Largest singular value of A with respect to the deformed metric.

    That is the top singular value of ``Gh A Gih``.  An A of one grade in
    the level-parity grading (:func:`_grades`) keeps the parity of the level
    or flips it, as word and field operators and the word operator of a
    homogeneous vector do; that matrix is then nonzero only in the two
    blocks of its grade (:func:`_sectors`), one per input parity, and the
    norm is the larger of their values.  An operator that mixes parities, or
    the zero matrix, is taken whole.  Each value is the
    :func:`_top_singular` of the sandwiched block (:func:`_sandwich_norm`):
    from its Gram matrix when a side of the block is at most
    ``_GRAM_MAX_SIDE``, by Lanczos above.
    """
    _check_shape(A, ctx)
    split = _parity_metric(ctx)
    grades = _grades(split, (A,))
    if len(grades) != 1:
        m = metric(ctx)
        return _sandwich_norm(m["Gh"], A, m["Gih"])
    norms = []
    for x, y in _sectors(len(split))[grades.pop()]:
        (rows, left, _), (cols, _, right) = split[x], split[y]
        if rows.size and cols.size:
            norms.append(_sandwich_norm(left, A[np.ix_(rows, cols)], right))
    return max(norms)


def c_q(q: float) -> float:
    """Reciprocal of the infinite product prod_{m>=1} (1 - |q|^m).

    The product is truncated once the next factor differs from 1 by less
    than ``_C_Q_TOL``; geometric decay makes this a few dozen factors at most.
    """
    a = abs(q)
    if a >= 1.0:
        raise QRangeError(f"|q| must be < 1, got {q}")
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


def _sandwiched_levels(ctx: FockContext, split, top: int):
    """Yield the left word operators of levels 0..top in metric-orthonormal
    coordinates, ``Ah_w = Gh psi_w Gih``, one level at a time, as their
    nonzero blocks between the k classes of ``split`` (a grading of
    :func:`_parity_metric`): level n is, for each class x, the ``(N^n, n_x,
    n_(x^g))`` array of the blocks ``Ah_w[x, x^g]`` (g = n % k) of the
    level-n words w in index order.

    Since ``Gh A Gih . Gh B Gih = Gh AB Gih``, each level fills from the two
    below it by :func:`_wick_step` in these coordinates, block by block: the
    head of w in block (x, x^g) is ``Xh_(w_1)[x, x^f] Ah_tail[x^f, x^g]``
    (f = 1 % k) with the sandwiched field operators ``Xh_i`` of level 1,
    built from unmemoized field operators.  No plain word or field operator
    is held, and besides level 1 only the two levels below the one being
    filled are kept.
    """
    N, k = ctx.N, len(split)
    size = [rows.size for rows, _, _ in split]
    f = 1 % k
    lower = tuple(np.eye(s)[None] for s in size)
    yield lower
    if not top:
        return
    field = tuple(np.empty((N, size[x], size[x ^ f])) for x in range(k))
    for i in range(1, N + 1):
        # the field operator unmemoized: nothing reads it once sandwiched
        X = _creation_matrix(i, ctx) + _annihilation_matrix(i, ctx)
        for x, (rows, Gh, _) in enumerate(split):
            cols, _, Gih = split[x ^ f]
            field[x][i - 1] = Gh @ X[np.ix_(rows, cols)] @ Gih
    yield field
    tails = field
    for n in range(2, top + 1):
        g = n % k
        level = tuple(np.empty((N**n, size[x], size[x ^ g])) for x in range(k))
        for idx in range(N**n):
            w = ctx.index_word(n, idx)
            for x in range(k):
                # the tail w_2.. has index idx // N one level down
                np.matmul(field[x][w[0] - 1], tails[x ^ f][idx // N], out=level[x][idx])
                _wick_step(w, level[x][idx], lambda h: lower[x][ctx.word_index(h)], ctx.q)
        yield level
        lower, tails = tails, level


def _short_blocks(ctx: FockContext) -> tuple[tuple[np.ndarray, ...], ...]:
    """The left word operators of levels 0..min(L, ``_WICK_CACHE_MAX_LEN``)
    in metric-orthonormal coordinates, ``Ah_w = Gh psi_w Gih``, kept as their
    nonzero level-parity blocks; memoized per context.  Entry n holds, for
    each class x of :func:`_parity_metric`, the ``(N^n, n_x, n_(x^g))``
    array of the blocks ``Ah_w[x, x^g]`` (g = n % 2) of the level-n words w
    in index order: every level that :func:`_sandwiched_levels` yields for
    the parity grading.

    No plain word or field operator is held, and the zero blocks of the
    other grade are not stored: at (N, L) = (3, 5), dim 364, the store is
    18.5 MB where the plain levels 0..3 take 42.4 MB.
    """
    top = min(ctx.L, _WICK_CACHE_MAX_LEN)
    return ctx.memo("short_blocks", lambda: tuple(_sandwiched_levels(ctx, _parity_metric(ctx), top)))


def _psi_blocks(C: np.ndarray, n: int, ctx: FockContext) -> tuple[np.ndarray, ...]:
    """The nonzero level-parity blocks of ``Gh psi(C[r]) Gih`` for each row
    r of the real block C of level-n coefficients, where ``psi(c) = sum_w
    c_w psi_w``: for each class x, the ``(rows, n_x, n_(x^g))`` array of the
    blocks (x, x^g), g = n % 2, as in :func:`_short_blocks`.

    Up to level ``_WICK_CACHE_MAX_LEN`` that is one product of C with each
    level-n array of the store.  Above it, the first-letter recursion of
    :func:`wick_matrix` is linear in the word, so it applies to the whole
    block at once: ``psi(xi) = sum_i X_i psi(xi_i) - psi(eta)`` with
    ``xi_i(t) = xi(i t)`` and eta from :func:`_hatted`, block by block as in
    the store.  The sub-sums of all rows and first letters come from one
    call one level down and meet ``[Xh_1 ... Xh_N]`` in one batched product.
    """
    store = _short_blocks(ctx)
    if n < len(store):
        return tuple((C @ B.reshape(len(B), -1)).reshape((len(C),) + B.shape[1:]) for B in store[n])
    N, rows = ctx.N, len(C)
    # row r * N + i holds the tails of the words of row r with first letter i + 1
    by_first = C.reshape(rows, -1, N).transpose(0, 2, 1).reshape(rows * N, -1)
    tails = _psi_blocks(by_first, n - 1, ctx)
    lower = _psi_blocks(_hatted(C, n, ctx), n - 2, ctx)
    out = []
    for x, F in enumerate(store[1]):
        T = tails[x ^ 1]
        # [Xh_1 ... Xh_N] against the tails of each row, stacked by first letter
        head = F.transpose(1, 0, 2).reshape(F.shape[1], -1) @ T.reshape(rows, -1, T.shape[2])
        head -= lower[x]
        out.append(head)
    return tuple(out)


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

    ``lhs`` is the operator norm of ``sum_w xi_w psi_w`` in the truncated
    model: a polynomial in the compressed fields, not a compression, so a
    lower bound of the untruncated norm for N = 1 only (see the module
    docstring), and a bound violation flags the model at this truncation;
    ``bound`` is
    ``c_q(|q|)^(3/2) * (n+1) * ||xi||`` with the deformed two-norm, +inf
    where the constant overflows.  The operator has the parity of n, so it
    is nonzero only in two level-parity blocks; these come in
    metric-orthonormal coordinates from the real and imaginary parts of xi
    (:func:`_psi_blocks`, from the memoized short words of
    :func:`_short_blocks`), no word operator is built on its own, and
    ``lhs`` is the larger top singular value of the two blocks
    (:func:`_top_singular`: by Lanczos for a block with both sides above
    ``_GRAM_MAX_SIDE``, e.g. the 273-square ones at (N, L) = (3, 5)).
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
    blocks = _psi_blocks(np.stack([coeffs.real, coeffs.imag]), n, ctx)
    lhs = max(_top_singular(re + 1j * im) for re, im in blocks if re.size)
    l2 = norm_q(xi)
    c = c_q(ctx.q)
    bound = _power(c, 1.5) * (n + 1) * l2
    return BozejkoReport(n, lhs, l2, bound, c, lhs <= bound + 1e-9)
