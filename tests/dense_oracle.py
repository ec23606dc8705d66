"""Dense oracles of the doubled-space actions for the tests, and direct
evaluations of what the library derives by relabelling.

The library applies every doubled-space action matrix-free.  Here the
actions are built as dense dim**2 x dim**2 matrices, whose row/column
``i * dim + j`` is (basis i) (x) (basis j), and decomposed in full; that is
affordable up to dim 63 or so (a 3969-square float matrix is 126 MB).

The library builds the doubling derivation by priming letters, right
multiplication and the right-delete mirror by word reversal, and both the
change of basis between monomials and word operators and the Leibniz sum
from its level blocks of monomial vacuum images.  The functions at the end
evaluate each of them directly instead: primed monomials on the doubled
alphabet's field operators (applied to word dictionaries, which keeps the
doubled context's dense matrices out of the tests), products of right field
operators, the mirror formula word by word, the three-term recursion of the
word operators, and prefix/suffix vacuum images.

``lr_apply_by_copy`` is the library's left action with a contiguous copy
of the left stack's words where the library reads a view of them.
``dq_star_by_stack`` is the adjoint of the deformed derivation as a
contraction with the plain left stack, ``sum_u A_u rows[u]``: the reference
for the library's fold by the last-letter recursion.  ``poly_operator_by_products``
multiplies the field operators of each monomial out one by one: the
reference for the library's walk over the first letters.

The letter relabelling of the graded basis serves the symmetry tests.

``eigh_extreme_eig`` is the Lanczos convergence test with a full ``eigh`` of
the tridiagonal matrix at every test: the reference for the one solve from
which the library takes the last component of its Ritz vector.

Last come the group-algebra and norm identities that the library does not
use but the tests check: the inversion count, the product formula for the
inverse of the cycle sum M_n and its two readings, the Hilbert-Schmidt norm
of an operator and the doubling form under a left multiplier.
"""
from __future__ import annotations

import math

import numpy as np

from qfock.deformation import hs_inner, lr_apply, xi_as_hs
from qfock.derivations import (
    FDQ,
    NCPoly,
    _doubled_context,
    _prime,
    derive,
    poly_operator,
    poly_vector,
)
from qfock.fock import GradedVector, make_context, metric, q_inner
from qfock.operators import (
    _EPS,
    _LANCZOS_TOL,
    _lanczos,
    _tridiagonal,
    creation,
    gaussian,
    left_wick_stack,
    right_annihilation,
    right_gaussian,
    right_wick_stack,
)
from qfock.symgroup import Permutation, cycle_perm, mn_matrix, perm_action


# Dense oracles that several tests ask for at one configuration, built once
# per test session: keyed by (N, q, L) and, where the input is not the
# configuration alone, by its bytes.
_CACHE: dict = {}


def _cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def dense_action(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of ``V -> sum_{u,v} C[u,v] . A_u @ V @ B_v^T``."""
    d = A.shape[1]
    W = np.tensordot(C, B, axes=(1, 0))  # (u, x2, y2)
    M = np.tensordot(A, W, axes=(0, 0))  # (x1, y1, x2, y2)
    return M.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def lr_action(C: np.ndarray, ctx) -> np.ndarray:
    """Matrix of the left action of the tensor-square element with
    coefficients C."""
    return dense_action(left_wick_stack(ctx), right_wick_stack(ctx), C)


def lr_apply_by_copy(C: np.ndarray, V: np.ndarray, ctx) -> np.ndarray:
    """``lr_apply(C, V, ctx)`` by the same contraction, with the words of
    the left stack taken side by side as a contiguous copy, ``A_cat[i, u*d
    + k] = A_u[i, k]``, where the library reads a view."""
    d = ctx.dim
    A, B = left_wick_stack(ctx), right_wick_stack(ctx)

    def by_parts(f, X):
        return f(X.real) + 1j * f(X.imag) if np.iscomplexobj(X) else f(X)

    def action(C):
        rows, cols = np.flatnonzero(np.any(C, axis=1)), np.flatnonzero(np.any(C, axis=0))
        lo, hi, clo, chi = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
        Wt = np.tensordot(C[lo:hi, clo:chi], B[clo:chi], axes=(1, 0)).transpose(0, 2, 1)
        A_cat = A[lo:hi].transpose(1, 0, 2).copy().reshape(d, -1)
        return by_parts(lambda V: A_cat @ np.matmul(V[None, :, :], Wt).reshape(-1, d), V)

    return by_parts(action, C)


def dq_star_by_stack(C: np.ndarray, j: int, ctx) -> np.ndarray:
    """Coefficients of ``dq_star(C, j, ctx)``: ``sum_u A_u rows[u]`` over the
    plain left stack A, with ``rows = C X_j^T - (right-delete_j) C`` where
    X_j prepends letter j; complex rows by parts."""
    rows = C @ creation(j, ctx).T - right_annihilation(j, ctx) @ C
    A = left_wick_stack(ctx)

    def contract(R):
        return np.matmul(A, R[:, :, None])[..., 0].sum(0)

    if np.iscomplexobj(rows):
        return contract(rows.real) + 1j * contract(rows.imag)
    return contract(rows)


def poly_operator_by_products(P, ctx) -> np.ndarray:
    """``P(X)`` as the sum over monomials of their field operators
    multiplied out left to right."""
    M = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for w, c in P.terms.items():
        term = np.eye(ctx.dim)
        for letter in w:
            term = term @ gaussian(letter, ctx)
        M += c * term
    return M


def dense_sym_stacks(ctx) -> tuple[np.ndarray, np.ndarray]:
    """The left and right word-operator stacks in metric-orthonormal
    coordinates, ``G**(1/2) S G**(-1/2)``, sandwiched whole: no word
    reversal and no parity blocks.  Cached per configuration, read-only."""

    def build():
        m = metric(ctx)
        stacks = tuple(m["Gh"] @ S @ m["Gih"] for S in (left_wick_stack(ctx), right_wick_stack(ctx)))
        for S in stacks:
            S.setflags(write=False)
        return stacks

    return _cached(("sym_stacks", ctx.N, ctx.q, ctx.L), build)


def dense_sym_action(ctx, C: np.ndarray, which: str = "left") -> np.ndarray:
    """Matrix of the left (or right) action of C in metric-orthonormal
    coordinates, from both stacks of :func:`dense_sym_stacks`."""
    Ah, Bh = dense_sym_stacks(ctx)
    if which == "right":
        Ah, Bh = Bh, Ah
    return dense_action(Ah, Bh, C)


def dense_xi_sqrt_right(ctx, *coeffs: np.ndarray) -> list[np.ndarray]:
    """Each coefficient matrix C hit on the right by the PSD square root of
    the deformation operator: one ``eigh`` of the symmetrized dense right
    action, eigenvalues clipped at 0, applied in metric-orthonormal
    coordinates."""
    d = ctx.dim
    S = dense_sym_action(ctx, xi_as_hs(ctx), which="right")
    w, U = np.linalg.eigh((S + S.conj().T) / 2)
    m = metric(ctx)
    out = []
    for C in coeffs:
        v = (m["Gh"] @ C @ m["Gh"]).reshape(-1)
        Y = (U @ (np.sqrt(np.clip(w, 0.0, None)) * (U.conj().T @ v))).reshape(d, d)
        out.append(m["Gih"] @ Y @ m["Gih"])
    return out


def dense_top(S: np.ndarray, hermitian: bool = False) -> float:
    """Largest singular value of a dense action matrix, or largest |eigenvalue|
    of its symmetric part: full decompositions while cheap, ARPACK on the
    dense matrix to machine precision above that."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = S.shape[0]
    H = (S + S.conj().T) / 2 if hermitian else None
    if n <= 1000:
        if hermitian:
            return float(np.abs(np.linalg.eigvalsh(H)).max())
        return float(np.linalg.svd(S, compute_uv=False)[0])
    v0 = np.random.default_rng(0).standard_normal(n)
    if hermitian:
        top = eigsh(H, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]
        return float(abs(top))
    # S^H w as conj(S^T conj(w)): no conjugated copy of S per matvec
    normal = LinearOperator(
        (n, n), matvec=lambda v: (S.T @ (S @ v).conj()).conj(), dtype=S.dtype
    )
    top = eigsh(normal, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    return math.sqrt(top)


def eigh_extreme_eig(matvec, v: np.ndarray, dtype, which: str) -> float:
    """``_extreme_eig`` with the last component of the wanted Ritz vector
    read from a full ``eigh`` of the tridiagonal matrix at every test.  The
    Ritz values come from ``eigvalsh`` and the bound has the same rounding
    floor ``eps * anorm``, as in the library, so the two differ in that
    component alone."""
    for alpha, beta, _, anorm, exhausted in _lanczos(matvec, v, dtype):
        T = _tridiagonal(alpha, beta)
        theta, S = np.linalg.eigvalsh(T), np.linalg.eigh(T)[1]
        i = {"LA": -1, "SA": 0, "LM": 0 if abs(theta[0]) >= abs(theta[-1]) else -1}[which]
        floor = _EPS ** (2 / 3) * max(abs(theta[0]), abs(theta[-1]))
        bound = max(_LANCZOS_TOL * max(abs(theta[i]), floor), _EPS * anorm)
        if exhausted or beta[-1] * abs(S[-1, i]) <= bound:
            return float(theta[i])


def letter_relabelling(sigma: tuple[int, ...], ctx) -> np.ndarray:
    """The letter permutation ``a -> sigma[a - 1]`` on the graded basis:
    ``perm[i]`` is the index of the relabelled word of basis word i, so a
    vector v goes to ``w`` with ``w[perm] = v`` and a coefficient matrix C
    is invariant when ``C[np.ix_(perm, perm)] == C``."""
    perm = np.empty(ctx.dim, dtype=int)
    for n in range(ctx.L + 1):
        for idx, w in enumerate(ctx.words(n)):
            perm[ctx.level_offset(n) + idx] = ctx.global_index(tuple(sigma[a - 1] for a in w))
    return perm


def _field_on_words(vec: dict, i: int, q: float) -> dict:
    """The field operator of letter i on a {word: coefficient} vector:
    prepend i, plus delete each occurrence k of i with weight q^k."""
    out: dict = {}
    for w, c in vec.items():
        out[(i,) + w] = out.get((i,) + w, 0.0) + c
        for k, letter in enumerate(w):
            if letter == i:
                u = w[:k] + w[k + 1 :]
                out[u] = out.get(u, 0.0) + q**k * c
    return out


def doubling_by_evaluation(P, j: int, ctx) -> GradedVector:
    """Doubling derivation of P: each monomial with one occurrence of letter
    j primed (sent to j + N), evaluated on the vacuum by the field operators
    of the doubled alphabet, word by word, in the doubled context of level
    max(deg P, 1)."""
    dctx = make_context(2 * ctx.N, ctx.q, max(P.degree, 1))
    v = np.zeros(dctx.dim, dtype=complex)
    for w, c in P.terms.items():
        for m, letter in enumerate(w):
            if letter == j:
                vec = {(): 1.0}
                for x in reversed(w[:m] + (j + ctx.N,) + w[m + 1 :]):
                    vec = _field_on_words(vec, x, ctx.q)
                for u, a in vec.items():
                    v[dctx.global_index(u)] += c * a
    return GradedVector(dctx, v)


def right_mult_by_products(P, ctx) -> np.ndarray:
    """Right multiplication by P as products of right field operators,
    composed in reverse."""
    M = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for w, c in P.terms.items():
        term = np.eye(ctx.dim)
        for letter in reversed(w):
            term = term @ right_gaussian(letter, ctx)
        M += c * term
    return M


def mirror_by_words(i: int, ctx) -> np.ndarray:
    """Right delete by the mirror formula, word by word: the word w of level
    n maps to sum_k q^(n-k) [w_k = i] (w minus letter k)."""
    M = np.zeros((ctx.dim, ctx.dim))
    for n in range(1, ctx.L + 1):
        for idx in range(ctx.N**n):
            w = ctx.index_word(n, idx)
            for k in range(1, n + 1):
                if w[k - 1] == i:
                    M[ctx.global_index(w[: k - 1] + w[k:]), ctx.level_offset(n) + idx] += (
                        ctx.q ** (n - k)
                    )
    return M


def wick_poly(w: tuple[int, ...], ctx) -> NCPoly:
    """Monomial expansion of the word operator of w by the three-term
    recursion: the word operator of (i, u) is X_i times that of u, minus
    q^m times that of u without its letter m (counted from 0) for every
    occurrence of i in u."""
    if not w:
        return NCPoly.one()
    i, u = w[0], tuple(w[1:])
    P = NCPoly.x(i) * wick_poly(u, ctx)
    for m, letter in enumerate(u):
        if letter == i:
            P = P - ctx.q**m * wick_poly(u[:m] + u[m + 1 :], ctx)
    return P


def wick_expansion(v: GradedVector) -> NCPoly:
    """The polynomial whose vacuum image is v, as the sum of the recursion's
    expansions of its words."""
    out = NCPoly.zero()
    for n in range(v.ctx.L + 1):
        coeffs = v.level(n)
        for idx in np.flatnonzero(coeffs):
            out = out + coeffs[idx] * wick_poly(v.ctx.index_word(n, idx), v.ctx)
    return out


def leibniz_by_prefix_suffix(P, j: int, ctx) -> np.ndarray:
    """Free difference quotient coefficients: for each monomial, the vacuum
    images of all its prefixes and suffixes, then one outer product per
    occurrence of letter j."""
    d = ctx.dim
    C = np.zeros((d, d), dtype=complex)
    for w, c in P.terms.items():
        if not w:
            continue
        n = len(w)
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        prefix = [e0]
        for m in range(1, n + 1):
            u = e0
            for letter in reversed(w[:m]):
                u = gaussian(letter, ctx) @ u
            prefix.append(u)
        suffix = [None] * n + [e0]
        for m in range(n - 1, -1, -1):
            suffix[m] = gaussian(w[m], ctx) @ suffix[m + 1]
        for m in range(1, n + 1):
            if w[m - 1] == j:
                C += c * np.outer(prefix[m - 1], suffix[m])
    return C


def dense_fdq_top(v: GradedVector, k: int) -> float:
    """Top singular value of the dense doubled-space action of d_k P, where
    P is the polynomial with vacuum image v: the recursion's expansion, the
    prefix/suffix Leibniz loop and a full decomposition, none of them the
    library's change of basis or its Lanczos norm.  Cached per
    configuration, k and the bytes of v: the conjugate-variable tests ask
    for the same tops."""
    ctx = v.ctx

    def build():
        C = leibniz_by_prefix_suffix(wick_expansion(v), k, ctx)
        return dense_top(dense_sym_action(ctx, C if C.imag.any() else C.real))

    return _cached(("fdq_top", ctx.N, ctx.q, ctx.L, k, v.data.dtype.str, v.data.tobytes()), build)


def inversions(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j)."""
    im = p.images
    n = len(im)
    return sum(1 for i in range(n) for j in range(i + 1, n) if im[i] > im[j])


def _cycle_factor(coef: float, k: int, l: int, n: int, ctx) -> np.ndarray:
    return np.eye(ctx.N**n) - coef * perm_action(cycle_perm(k, l, n), ctx)


def _cycle_products(n: int, ctx) -> tuple[list[np.ndarray], np.ndarray]:
    """The factors of the second product of the inverse formula, and the
    first product, in the matrix order of :func:`mn_inverse`."""
    q = ctx.q
    second = [_cycle_factor(q ** (n - j), 2, n - j, n, ctx) for j in range(0, n - 1)]
    first = np.eye(ctx.N**n)
    for j in range(1, n):
        first = first @ _cycle_factor(q**j, 1, j + 1, n, ctx)
    return second, first


def mn_inverse(n: int, ctx) -> np.ndarray:
    """The product formula for mn_matrix(n)**-1, factor-wise inverses.

    In the group algebra the inverse is
    ``[prod_{j=n-1..1} (1 - q^j (1->j+1))] * [prod_{j=n-2..0} (1 - q^{n-j} (2->n-j))^{-1}]``
    with the inverse applied to each factor of the second product.  The matrix
    version runs both products in ascending j and in swapped order, because
    the word action is contravariant.
    """
    second, first = _cycle_products(n, ctx)
    left = np.eye(ctx.N**n)
    for F in second:
        left = left @ np.linalg.inv(F)
    return left @ first


def mn_inverse_readings(n: int, ctx) -> dict[str, float]:
    """Residuals of the candidate parenthesizations of the inverse formula.

    The printed formula has unbalanced parentheses; two readings make sense:
    ``factorwise`` inverts each factor of the second product (that is
    :func:`mn_inverse`), ``wholeprod`` inverts the second product as a single
    matrix.  Returns ``max |mn_matrix @ candidate - I|`` for each.
    """
    second, first = _cycle_products(n, ctx)
    whole = np.eye(ctx.N**n)
    for F in second:
        whole = whole @ F
    wholeprod = np.linalg.inv(whole) @ first
    Mn = mn_matrix(n, ctx)
    eye = np.eye(ctx.N**n)
    return {
        "factorwise": float(np.abs(Mn @ mn_inverse(n, ctx) - eye).max()),
        "wholeprod": float(np.abs(Mn @ wholeprod - eye).max()),
    }


def hs_norm(A: np.ndarray, ctx) -> float:
    """Hilbert-Schmidt norm of the operator A over any orthonormal basis of
    the metric of ctx."""
    m = metric(ctx)
    return float(np.linalg.norm(m["Gh"] @ A @ m["Gih"]))


def bimodule_form_discrepancy(P, Q, R, k: int, ctx) -> float:
    """Gap between the doubling form and the square-root form under a left
    multiplier R: ``|<R hat(P), R hat(Q)> - <R tilde(P), R tilde(Q)>|``.

    The R = 1 instance is an identity; for general R its vanishing rests on
    an external stochastic-integration argument, not re-derived here.
    """
    deg = max(P.degree, Q.degree) + R.degree
    dctx = _doubled_context(ctx, max(deg, 1))
    hatP = _prime(poly_vector(P, ctx), k, dctx)
    hatQ = _prime(poly_vector(Q, ctx), k, dctx)
    Rop_doubled = poly_operator(R, dctx)
    lhs = q_inner(
        GradedVector(dctx, Rop_doubled @ hatP.data),
        GradedVector(dctx, Rop_doubled @ hatQ.data),
        dctx,
    )
    Rop = poly_operator(R, ctx)
    RTP = Rop @ derive(P, k, FDQ, ctx)
    RTQ = Rop @ derive(Q, k, FDQ, ctx)
    rhs = hs_inner(RTP, lr_apply(RTQ, xi_as_hs(ctx), ctx), ctx)
    return abs(complex(lhs) - complex(rhs))
