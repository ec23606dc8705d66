"""The deformation operator, its tensor-square realization, and explicit constants.

The central object is the graded multiplier that scales level ``n`` by
``q**n``.  It admits a second life as an element of the tensor square of the
operator algebra: summing ``p (x) p*`` over an orthonormal level basis gives
the level projection, so the multiplier equals ``sum_n q^n sum_i p_i (x) p_i*``.
A tensor-square element is a plain (dim, dim) array, its coefficient matrix
``C[u, v]`` in the (word operator) x (word operator) basis; every function
that needs the context takes it as its last argument.

The doubled space (truncated space tensor itself) carries one plain action,
``lr_apply``: ``(a (x) b) . (x (x) y) = ax (x) yb``, multiplication by the
element in the tensor-square algebra.  Its operator norm is the computable
proxy for the von Neumann tensor norm.  The product ``T # S`` in the tensor
square is the left action of T on the coefficients of S,
``lr_apply(T, S, ctx)``, exact when the combined degrees stay within the
truncation and a compression otherwise.

Everything here lives on levels <= L and is built from the word operators
of :mod:`qfock.operators`, polynomials in the compressed fields rather than
compressions of the untruncated ones.  The doubled-space norms are norms of
this truncated model: lower bounds of their untruncated counterparts for
N = 1 only, and reported as consistency checks, never as certifications.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._pcg64 import _signed_uniforms
from .errors import (
    AlphabetError,
    NonConvergenceWarning,
    QRangeError,
    SquareRootUnavailableError,
    check_store_bytes,
)
from .fock import FockContext, _rev_perm, gram, metric
from .operators import (
    _check_shape,
    _extreme_eig,
    _grades,
    _lanczos,
    _parity_metric,
    _power,
    _sandwiched_levels,
    _sectors,
    _tridiagonal,
    c_q,
    left_wick_stack,
    right_wick_stack,
)

__all__ = [
    "ConstantsReport",
    "xi_multiplier",
    "xi_as_hs",
    "multiplier_of",
    "lr_apply",
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


def unit_hs(ctx: FockContext) -> np.ndarray:
    """The unit 1 (x) 1."""
    C = np.zeros((ctx.dim, ctx.dim))
    C[0, 0] = 1.0
    return C


def _level_cap(ctx: FockContext, Q: int | None) -> int:
    if Q is None:
        return ctx.L
    ctx.require_level(Q, "level cap")
    return Q


def xi_multiplier(ctx: FockContext, Q: int | None = None) -> np.ndarray:
    """Graded multiplier: q**n on level n for n <= Q, zero above Q.

    ``Q = None`` means the full truncation (Q = L).  At q = 0 this is the
    vacuum projection.
    """
    Q = _level_cap(ctx, Q)
    diag = np.zeros(ctx.dim)
    for n in range(Q + 1):
        diag[ctx.level_slice(n)] = ctx.q**n
    return np.diag(diag)


def xi_as_hs(ctx: FockContext, Q: int | None = None) -> np.ndarray:
    """The multiplier as a tensor-square element.

    Level n contributes ``q^n sum_i p_i (x) p_i*`` over the orthonormal level
    basis; in word-operator coordinates that sum is the inverse Gram matrix
    with a reversed second index (the star of a word operator is the operator
    of the reversed word).
    """
    Q = _level_cap(ctx, Q)

    def build():
        d = ctx.dim
        C = np.zeros((d, d))
        for n in range(Q + 1):
            block = gram(n, ctx)
            s = ctx.level_slice(n)
            C[s, s] = (ctx.q**n) * (block.b @ block.b)
        return np.ascontiguousarray(C[:, _rev_perm(ctx)])

    return ctx.memo(("xi_hs", Q), build)


def multiplier_of(C: np.ndarray, ctx: FockContext) -> np.ndarray:
    """The operator on the truncated space obtained by tracing the element
    with coefficients C against the second leg: ``(a (x) b) -> a <reversed
    b, .>``.

    Inverse of :func:`xi_as_hs` in the sense that the multiplier of the
    tensor-square form of the graded multiplier is the graded multiplier back.
    """
    _check_shape(C, ctx)
    return C[:, _rev_perm(ctx)] @ metric(ctx)["G"]


# ---- actions on the doubled space -------------------------------------------


def _support(C: np.ndarray) -> tuple[int, int]:
    # [lo, hi): the contiguous range spanning the nonzero rows of C (0, 0 if none)
    rows = np.flatnonzero(np.any(C, axis=1))
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _by_parts(f, X: np.ndarray) -> np.ndarray:
    """``f(X)`` for a real-linear f that computes in real arithmetic only: a
    complex X enters as its parts, ``f(X.real) + 1j * f(X.imag)``."""
    if np.iscomplexobj(X):
        return f(X.real) + 1j * f(X.imag)
    return f(X)


def lr_apply(C: np.ndarray, V: np.ndarray, ctx: FockContext) -> np.ndarray:
    """Left action of the element with coefficients C on a doubled-space
    vector in (dim, dim) matrix form; with V the coefficients of S, the
    coefficients of the product ``C # S``.

    ``(a (x) b)`` sends ``x (x) y`` to ``ax (x) yb``; with V[i, j] the
    coefficient of (basis i) (x) (basis j) this is
    ``sum_{u,v} C[u,v] . A_u @ V @ B_v^T`` over the left (A) and right (B)
    word-operator stacks of all levels, contracted only over the word
    operators in the nonzero row range of C (for A) and column range (for
    B); a full-support C takes exactly the untrimmed stacks.  One application is
    ``W_u = sum_v C[u,v] B_v``, one batched matmul ``V @ W_u^T`` and one
    (d, d*m) x (d*m, d) GEMM against ``A_cat[i, u*d + k] = A_u[i, k]``, m the
    number of rows taking part, a view of the word-second left stack
    (:func:`~qfock.operators._fill_stack`).  Complex C and V enter by parts
    (:func:`_by_parts`).
    """
    _check_shape(C, ctx)
    d = ctx.dim
    A, B = left_wick_stack(ctx), right_wick_stack(ctx)

    def action(C: np.ndarray) -> np.ndarray:
        lo, hi = _support(C)
        clo, chi = _support(C.T)
        Wt = np.tensordot(C[lo:hi, clo:chi], B[clo:chi], axes=(1, 0)).transpose(0, 2, 1)
        A_cat = A[lo:hi].transpose(1, 0, 2).reshape(d, -1)
        return _by_parts(lambda V: A_cat @ np.matmul(V[None, :, :], Wt).reshape(-1, d), V)

    return _by_parts(action, C)


def hs_inner(T: np.ndarray, S: np.ndarray, ctx: FockContext) -> complex:
    """Tensor-square trace inner product of the elements with coefficients T
    and S, conjugate-linear in the first slot."""
    _check_shape(T, ctx)
    _check_shape(S, ctx)
    G = metric(ctx)["G"]
    return complex(np.vdot(T, G @ S @ G))


def hs_norm_of(T: np.ndarray, ctx: FockContext) -> float:
    return float(math.sqrt(max(hs_inner(T, T, ctx).real, 0.0)))


# The doubled-space norms run one Lanczos per parity sector from this dim on,
# one run over the whole basis below it.  From dim 40 on the parity classes
# win every norm (README has the per-norm times); at dim 31 the norms cost
# about the same and the command decides.  `conjugate --n 2 --q 0.05 --level
# 4 --terms 20` at 40 (one class) against 0 (parity classes), two sets of 6
# alternated 20 s perfbench pairs (2 cores, OpenBLAS 0.3.31): job_s 0.91, 0.78
# against 1.16, 0.82 s (one class faster in 6/6, 5/6), cpu_s 1.64, 1.46 against
# 1.28, 0.95 s.  The one-class GEMMs use both BLAS threads: wall time won.
_SECTOR_MIN_DIM = 40


def _basis_split(ctx: FockContext) -> tuple[tuple[np.ndarray, ...], ...]:
    """Classes of the graded basis for the doubled-space kernel: the
    level-parity grading (:func:`~qfock.operators._parity_metric`), with the
    even and the odd levels from ``_SECTOR_MIN_DIM`` on and its trivial form,
    one class holding the whole basis, below it."""
    return _parity_metric(ctx, 2 if ctx.dim >= _SECTOR_MIN_DIM else 1)


def _sym_blocks(ctx: FockContext) -> tuple[np.ndarray, ...]:
    """Left word operators in metric-orthonormal coordinates, ``Ah_u = S A_u
    S^-1`` with ``S = G**(1/2)``, kept as their blocks between the basis
    classes of :func:`_basis_split`: entry ``x * k + y`` (k classes) is
    ``Ah_u[x, y] = Gh_x A_u[x, y] Gih_y`` over the words u of class ``x ^
    y``, stored as ``T[k, u, i] = Ah_u[i, k]``, the layout that
    :func:`_sym_action` reads in place: the column index first, then the
    word, then the row.  With one class that is the whole sandwiched stack;
    with the parity classes, the only nonzero half of it (8.5 MB instead of
    16.4 MB at dim 127).  The doubled metric becomes the standard one, so
    operator norms are plain singular values.  Right multiplication by a
    word is the word reversal P times left multiplication by the reversed
    word times P, and P commutes with every Gram block, so the sandwiched
    right operators are ``P Ah_(rev v) P`` and need no store of their own.

    Built by the recursion of :func:`~qfock.operators._sandwiched_levels` in
    these coordinates, level by level straight into that layout: no plain
    stack is made, and besides the store only the levels the recursion holds
    are alive.  Its bytes, from the class sizes, are checked against the
    fixed limit of every word-operator store
    (:func:`~qfock.errors.check_store_bytes`) before anything is allocated:
    60.9 MiB at (N, L) = (2, 7) pass it.
    """
    split = _basis_split(ctx)
    k, n = len(split), [idx.size for idx, _, _ in split]
    shapes = [(n[y], n[x ^ y], n[x]) for x in range(k) for y in range(k)]
    check_store_bytes(
        "sandwiched word-operator store", 8 * sum(math.prod(shape) for shape in shapes), ctx.dim
    )

    def build():
        out = [np.empty(shape) for shape in shapes]
        # where the next level starts among the words of each class
        start = [0] * k
        for level, blocks in enumerate(_sandwiched_levels(ctx, split, ctx.L)):
            g, m = level % k, ctx.N**level
            for x, B in enumerate(blocks):
                out[x * k + (x ^ g)][:, start[g] : start[g] + m] = B.transpose(2, 0, 1)
            start[g] += m
        return tuple(out)

    return ctx.memo("sym_blocks", build)


def _gather(ctx: FockContext, blocks, V: np.ndarray) -> np.ndarray:
    """The doubled-space matrix V as a vector over ``blocks``: their
    flattened entries, one block after the other."""
    split = _basis_split(ctx)
    return np.concatenate([V[np.ix_(split[x][0], split[y][0])].ravel() for x, y in blocks])


def _scatter(ctx: FockContext, blocks, v: np.ndarray, V: np.ndarray) -> None:
    """Write the vector v over ``blocks`` into their entries of V (the
    inverse of :func:`_gather`)."""
    split, off = _basis_split(ctx), 0
    for x, y in blocks:
        rows, cols = split[x][0], split[y][0]
        V[np.ix_(rows, cols)] = v[off : off + rows.size * cols.size].reshape(rows.size, cols.size)
        off += rows.size * cols.size


def _start(ctx: FockContext, blocks) -> np.ndarray:
    """The start vector of the whole doubled space, restricted to ``blocks``:
    entry ``i * dim + j`` of the (dim, dim) matrix, memoized per context, is
    the fixed uniform of :func:`~qfock._pcg64._signed_uniforms` in [-1, 1).
    A constant vector would not do: it is invariant under letter relabelling
    and word reversal, so its Krylov space never leaves that symmetric
    sector and misses extremes that lie outside it."""
    d = ctx.dim
    return _gather(ctx, blocks, ctx.memo("start", lambda: _signed_uniforms(d * d).reshape(d, d)))


def _runs(ctx: FockContext, C: np.ndarray, normal: bool):
    """``(blocks, image blocks)`` of the Lanczos runs for the action of the
    coefficients C, or with ``normal`` for its normal operator.  The action of
    a C of one grade g (:func:`~qfock.operators._grades` over
    :func:`_basis_split`) maps sector i (:func:`~qfock.operators._sectors`)
    into sector ``i ^ g``: one run ``(sectors[i], sectors[i ^ g])`` per sector
    for its normal operator, and for the action itself when g = 0.  One run
    over all sectors concatenated otherwise."""
    split = _basis_split(ctx)
    sectors, grades = _sectors(len(split)), _grades(split, (C,))
    if len(grades) == 1 and (normal or grades == {0}):
        g = grades.pop()
        return [(s, sectors[i ^ g]) for i, s in enumerate(sectors)]
    whole = [b for s in sectors for b in s]
    return [(whole, whole)]


def _star(ctx: FockContext, C: np.ndarray) -> np.ndarray:
    """Coefficients of the adjoint element: ``C*[u, v] = conj(C[rev u, rev v])``.

    In metric-orthonormal coordinates the adjoint of a word operator is the
    operator of the reversed word, so the forward action of ``C*`` is the
    adjoint of the forward action of ``C``.
    """
    rev = _rev_perm(ctx)
    return C[np.ix_(rev, rev)].conj()


def _sym_action(ctx: FockContext, C: np.ndarray, ins, outs):
    """Matrix-free left action of C in metric-orthonormal coordinates with
    the words of its second leg reversed, from vectors over the doubled-space
    blocks ``ins`` to vectors over ``outs`` (:func:`_gather`):
    ``M: V -> sum_{u,v} C[u, rev v] . Ah_u @ V @ Ah_v^T``.  Since
    ``Bh_v = P Ah_(rev v) P`` (:func:`_sym_blocks`), the true action
    ``V -> sum_{u,v} C[u,v] . Ah_u @ V @ Bh_v^T`` is ``J M J`` for the
    orthogonal involution ``J: V -> V P``, which keeps every block; M has
    its singular values and spectrum.

    Block (a, b) of V reaches block (a', b') through the words u of class
    ``a ^ a'`` and v of class ``b ^ b'`` alone, in two GEMMs, and the
    action is one loop over the (input, output) pairs whose sub-block of
    the reversed coefficients is nonzero; only the words in its nonzero row
    and column range take part.  The first GEMM reads the store: ``P =
    V_ab^T @ T[:, lo:hi, :]`` with ``T`` the stored block ``Ah_u[a', a]``
    (:func:`_sym_blocks`), whose word range reshapes to ``(d_a, words *
    d_a')`` as a view, so ``P[l*h + u, i] = (Ah_u V_ab)[i, l]`` over the h
    words u taking part.  The second meets the pair's own operand ``WX[j,
    l*h + u] = sum_v C[u, rev v] Ah_v[b', b][j, l]``, built once, here:
    ``(WX @ P)^T`` is added into block (a', b') of the image.

    The l run in consecutive ranges of at most ``_IMAGE_CHUNK`` bytes of P
    (one l if that alone is larger), the two GEMMs once per range, every P
    in one buffer per matvec.  The store is never copied: between matvecs
    the action holds its operands ``WX`` and nothing else of size dim**3,
    and a matvec adds that buffer, at most ``_IMAGE_CHUNK`` bytes (one l of
    one pair if that is larger).  Complex C and v enter by parts
    (:func:`_by_parts`): a complex C as the actions of its real and
    imaginary parts.
    """
    if np.iscomplexobj(C):
        re, im = _sym_action(ctx, C.real, ins, outs), _sym_action(ctx, C.imag, ins, outs)
        return lambda v: re(v) + 1j * im(v)
    split = _basis_split(ctx)
    T = _sym_blocks(ctx)
    k, n = len(split), [idx.size for idx, _, _ in split]
    C = C[:, _rev_perm(ctx)]
    in_at = np.cumsum([0] + [n[a] * n[b] for a, b in ins]).tolist()
    out_at = np.cumsum([0] + [n[a] * n[b] for a, b in outs]).tolist()
    pairs, psize = [], 0
    for s0, s1, (a2, b2) in zip(out_at, out_at[1:], outs):
        for o0, o1, (a, b) in zip(in_at, in_at[1:], ins):
            sub = C[np.ix_(split[a ^ a2][0], split[b ^ b2][0])]
            (lo, hi), (clo, chi) = _support(sub), _support(sub.T)
            if lo == hi:
                continue
            # the pair's own operand, the only dim**3 array the action holds
            h = hi - lo
            WX = np.empty((n[b2], n[b] * h))
            cut = WX.reshape(n[b2], n[b], h).transpose(1, 0, 2)
            np.matmul(T[b2 * k + b][:, clo:chi].transpose(0, 2, 1), sub[lo:hi, clo:chi].T, out=cut)
            # the l in ranges of at most _IMAGE_CHUNK bytes of P, each met
            # by its columns of WX
            step = max(_IMAGE_CHUNK // (8 * n[a2] * h), 1)
            psize = max(psize, min(step, n[b]) * h * n[a2])
            ranges = [
                (l0, min(l0 + step, n[b]), WX[:, l0 * h : (l0 + step) * h]) for l0 in range(0, n[b], step)
            ]
            Tl = T[a2 * k + a][:, lo:hi].reshape(n[a], -1)
            pairs.append((slice(o0, o1), (n[a], n[b]), Tl, slice(s0, s1), n[a2], ranges))

    # The order of both GEMMs is measured: medians of one S0 matvec, this
    # order against the next best, interleaved in one process (2 cores,
    # OpenBLAS 0.3.31).  Second GEMM, WX kept as (d_b', rows) and the image
    # block (WX @ P)^T, against P^T @ WX with WX kept as (rows, d_b'):
    # Xi at dim 31 0.088 vs 0.099 ms, dim 63 0.53 vs 0.56 ms, dim 127 5.96 vs
    # 6.23 ms; d_1 xi_1 at dim 127 1.47 vs 1.56 ms and the tail Xi - Xi_5
    # 3.44 vs 3.66 ms.  First GEMM, V_ab^T @ T into P, against (T^T @ V_ab)^T:
    # Xi at dim 127 7.5 vs 12.0 ms, 1.6x at every size.  One order holds
    # from dim 31 to 127.
    def apply(v: np.ndarray) -> np.ndarray:
        # one buffer for the P of every range of every pair
        out, buf = np.zeros(out_at[-1]), np.empty(psize)
        for src, shape, Tl, dst, rows, ranges in pairs:
            Vt, image = v[src].reshape(shape).T, out[dst].reshape(rows, -1).T
            for l0, l1, W in ranges:
                P = buf[: (l1 - l0) * Tl.shape[1]]
                np.matmul(Vt[l0:l1], Tl, out=P.reshape(l1 - l0, -1))
                image += W @ P.reshape(-1, rows)
        return out

    return lambda v: _by_parts(apply, v)


# The bytes of P that one matvec of _sym_action fills before meeting WX: at
# dim 255 the image of Xi would otherwise hold a P as large as a pair's
# operand (19.7 MB).  Every P below dim 192 fits in one range.
_IMAGE_CHUNK = 8 * 2**20


# the square root of the deformation action: unavailable below this least
# eigenvalue (those above it are clipped to 0), and converged once one stride
# changes it by at most _SQRT_TOL relative
_SQRT_NEG_TOL = 1e-9
_SQRT_TOL = 1e-13


def _sym_extremes(ctx: FockContext, C: np.ndarray, which: tuple[str, ...]) -> list[list[float]]:
    """The extreme eigenvalues ``which`` (:func:`_extreme_eig`) of the
    symmetrized action ``(M + M^H) / 2`` of C, the action of ``(C + C*) / 2``,
    for each of its Lanczos runs (:func:`_runs`)."""
    Cs = (C + _star(ctx, C)) / 2
    out = []
    for blocks, _ in _runs(ctx, Cs, normal=False):
        sym, v = _sym_action(ctx, Cs, blocks, blocks), _start(ctx, blocks)
        out.append([_extreme_eig(sym, v, Cs.dtype, w) for w in which])
        # release this run's operand before the next run builds its own
        del sym
    return out


def _lanczos_sqrt(matvec, b: np.ndarray) -> np.ndarray:
    """``A**(1/2) b`` for a self-adjoint PSD operator A: ``|b| Q sqrt(T) e_1``
    over the Lanczos vectors Q from b, with the Ritz values of T clipped at
    0 (Higham, *Functions of Matrices*, 2008, ch. 13).  The only consumer of
    :func:`_lanczos` that needs those vectors: it keeps the ones each yield
    brings.  Stops at exhaustion, or when one stride changes the
    coefficients over Q by at most ``_SQRT_TOL`` relative."""
    if not b.any():
        return b
    prev, Q = np.zeros(0), []
    for alpha, beta, new, _, exhausted in _lanczos(matvec, b, b.dtype):
        Q += new
        theta, S = np.linalg.eigh(_tridiagonal(alpha, beta))
        c = S @ (np.sqrt(np.clip(theta, 0.0, None)) * S[0])
        change = np.linalg.norm(c - np.pad(prev, (0, len(c) - len(prev))))
        if exhausted or change <= _SQRT_TOL * np.linalg.norm(c):
            return np.linalg.norm(b) * (c @ np.array(Q))
        prev = c


def doubled_op_norm(C: np.ndarray, ctx: FockContext, hermitian: bool = False) -> float:
    """Operator norm of the left action of the element with coefficients C on
    the doubled space, in the deformed metric of the tensor-square trace.

    Matrix-free: the action is applied through the metric-orthonormal stack
    blocks (:func:`_sym_action`), in real arithmetic with complex
    coefficients by parts, and the adjoint action is the forward action of
    the star element.  The top singular value is the square root of the top
    eigenvalue of the normal operator.  Pass ``hermitian=True`` for elements
    known to be self-adjoint (polynomials in the deformation operator): the
    largest |eigenvalue| of the symmetrized action ``(M + M^H) / 2`` is then
    computed instead.  Where the operator keeps the sectors of the
    level-parity grading (:func:`_runs`), each sector has its own Lanczos run
    and the norm is the larger of their values; otherwise one run covers the
    whole doubled space.  Any C is taken in float64 (complex128 if complex).
    """
    _check_shape(C, ctx)
    C = np.asarray(C, np.result_type(C, np.float64))
    if not np.abs(C).max():
        return 0.0
    if hermitian:
        return max(abs(lm) for (lm,) in _sym_extremes(ctx, C, ("LM",)))
    star, tops = _star(ctx, C), []
    for blocks, image in _runs(ctx, C, normal=True):
        fwd, adj = _sym_action(ctx, C, blocks, image), _sym_action(ctx, star, image, blocks)
        tops.append(_extreme_eig(lambda v: adj(fwd(v)), _start(ctx, blocks), C.dtype, "LA"))
        # release this run's operands before the next run builds its own
        del fwd, adj
    return math.sqrt(max(max(tops), 0.0))


def _xi_spectral_range(ctx: FockContext) -> tuple[float, float]:
    """(min, max) eigenvalue of the symmetrized doubled-space action of the
    deformation operator: the action of the hermitian shortcut of
    :func:`doubled_op_norm`, at both ends of its spectrum (over both parity
    sectors, which it keeps)."""

    def build():
        ends = _sym_extremes(ctx, xi_as_hs(ctx), ("SA", "LA"))
        return min(lo for lo, _ in ends), max(hi for _, hi in ends)

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
    :func:`_lanczos_sqrt` on the symmetrized left action of ``X^T``, once
    per parity sector of the doubled space, which that action keeps; the
    action comes with its second leg reversed (:func:`_sym_action`), so the
    reversal goes once onto the columns of the start matrix and once onto
    those of the result.
    """
    lo, _ = _xi_spectral_range(ctx)
    if lo < -_SQRT_NEG_TOL:
        raise SquareRootUnavailableError(
            f"doubled-space action has eigenvalue {lo:.3e} < -{_SQRT_NEG_TOL}; "
            f"no real PSD square root at this truncation (q = {ctx.q})"
        )
    m, rev = metric(ctx), _rev_perm(ctx)
    X = xi_as_hs(ctx)
    Xs = ((X + _star(ctx, X)) / 2).T
    B = (m["Gh"] @ C @ m["Gh"]).T[:, rev]
    Y = np.zeros_like(B)
    for blocks, _ in _runs(ctx, Xs, normal=False):
        # the action lives for its own run only
        root = _lanczos_sqrt(_sym_action(ctx, Xs, blocks, blocks), _gather(ctx, blocks, B))
        _scatter(ctx, blocks, root, Y)
    return m["Gih"] @ Y[:, rev].T @ m["Gih"]


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
    term = unit_hs(ctx)
    U = term.copy()
    yield 0, term, U
    for n in range(1, n_terms + 1):
        term = lr_apply(delta, term, ctx)
        U = U + (-1) ** n * term
        yield n, term, U


def neumann_residual(ctx: FockContext, U: np.ndarray) -> float:
    """Symmetrized (``hermitian=True``) doubled norm of ``Xi # U - 1 (x) 1``.

    At ``U = U_n`` the element is ``(-1)^n D^(n+1)`` in exact arithmetic; the
    product is formed anyway, as the recorded residuals were, since the two
    differ in rounding."""
    H = lr_apply(xi_as_hs(ctx), U, ctx)
    H[0, 0] -= 1.0
    return doubled_op_norm(H, ctx, hermitian=True)


@dataclass
class NeumannResult:
    """Partial sum of the series for the inverse of the deformation operator,
    with ``residuals[i]`` the :func:`neumann_residual` of ``U_(i+1)``;
    monotone geometric decay is the convergence signature.
    """

    element: np.ndarray
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
    return NeumannResult(U, residuals, warned)
