"""Derivations on polynomials in the field operators.

The derivation domain is the free polynomial algebra on the N field
operators; a polynomial of degree <= L is represented exactly at truncation
(its vacuum image walks levels 0..deg only), and every tag below requires
deg P <= L (:class:`CapacityError` otherwise).  Four derivations share the
generator structure "delta on letter j, extended by the Leibniz rule":

* ``FDQ``           — generator value 1 (x) 1 (the free difference quotient);
* ``Q_COMMUTATOR``  — generator value the deformation operator (equivalently,
  the commutator with the right-side append operator);
* ``Q_TRUNCATED(Q)``— generator value the level-capped deformation operator;
* ``Q_SQRT``        — the FDQ output hit on the right by the PSD square root
  of the deformation operator on the doubled space;
* ``DOUBLING``      — the derivation into the double-alphabet algebra sending
  letter k to its primed copy k + N.  Word operators are second-quantized,
  so it relabels the vacuum image of P (:func:`_prime`): each word goes to
  the sum of its copies with one occurrence of k primed.

All identity checks quote the degree ranges on which truncation is exact;
outside those ranges results are values of the truncated model (word
operators are polynomials in the compressed fields, see :mod:`qfock.operators`)
and only convergence behavior is reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import (
    doubled_op_norm,
    hs_inner,
    hs_norm_of,
    lr_apply,
    multiplier_of,
    xi_as_hs,
    _by_parts,
    _star,
    _xi_sqrt_right,
    _xi_spectral_range,
)
from .errors import (
    AlphabetError,
    CapacityError,
    HomogeneityError,
    SquareRootUnavailableError,
)
from .fock import FockContext, GradedVector, _rev_perm, make_context, metric, norm_q, q_inner
from .operators import (
    _check_shape,
    _hatted,
    creation,
    gaussian,
    right_annihilation,
    right_creation,
    _sandwich_norm,
)

__all__ = [
    "NCPoly",
    "DerivationTag",
    "FDQ",
    "Q_COMMUTATOR",
    "Q_SQRT",
    "DOUBLING",
    "q_truncated",
    "derive",
    "real_structure",
    "commutator_check",
    "partial_tau",
    "number_check",
    "dq_star",
    "conjugate_variables",
    "fisher_estimate",
    "lipschitz_norms",
    "equivalence_check",
    "vector_to_poly",
    "poly_vector",
    "poly_operator",
]


# ---- polynomials -------------------------------------------------------------


@dataclass
class NCPoly:
    """Finitely supported map from monomial words to complex coefficients."""

    terms: dict[tuple[int, ...], complex]

    def __post_init__(self):
        self.terms = {
            tuple(w): complex(c) for w, c in self.terms.items() if c != 0
        }

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly({})

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): 1.0})

    @staticmethod
    def x(i: int) -> "NCPoly":
        return NCPoly({(i,): 1.0})

    @staticmethod
    def from_word(w: tuple[int, ...], c: complex = 1.0) -> "NCPoly":
        return NCPoly({tuple(w): c})

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def star(self) -> "NCPoly":
        return NCPoly({w[::-1]: np.conj(c) for w, c in self.terms.items()})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-1.0) * other

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            out: dict[tuple[int, ...], complex] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0.0) + c1 * c2
            return NCPoly(out)
        return NCPoly({w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__


def _coefficients(P: NCPoly, ctx: FockContext) -> list[np.ndarray]:
    """P's monomial coefficients by level: entry n holds the coefficient of
    each length-n word at its index within the level."""
    if P.degree > ctx.L:
        raise CapacityError(
            f"polynomial degree {P.degree} exceeds truncation level {ctx.L}"
        )
    out = [np.zeros(ctx.N**n, dtype=complex) for n in range(P.degree + 1)]
    for w, c in P.terms.items():
        out[len(w)][ctx.word_index(w)] = c
    return out


def _monomials(n: int, ctx: FockContext) -> np.ndarray:
    """Vacuum images of the level-n monomials, one column per word: column
    w is X_w Omega, exact for n <= L.

    Column (i, t) is the field operator of letter i applied to column t of
    level n - 1 (the first letter is the least significant digit).  The
    block is exactly the identity on level n's rows and exactly zero above
    them and on the rows of the other parity, so the blocks of all levels
    form a unit upper triangular change of basis from monomials to words.
    """

    def build():
        if n == 0:
            T = np.zeros((ctx.dim, 1))
            T[0, 0] = 1.0
            return T
        below = _monomials(n - 1, ctx)
        G = [gaussian(i, ctx) @ below for i in range(1, ctx.N + 1)]
        return np.stack(G, axis=-1).reshape(ctx.dim, ctx.N**n)

    return ctx.memo(("monomials", n), build)


def poly_vector(P: NCPoly, ctx: FockContext) -> GradedVector:
    """P applied to the vacuum; a linear isomorphism for degree <= L."""
    v = np.zeros(ctx.dim, dtype=complex)
    for n, c in enumerate(_coefficients(P, ctx)):
        v += _monomials(n, ctx) @ c
    return GradedVector(ctx, v)


def poly_operator(P: NCPoly, ctx: FockContext) -> np.ndarray:
    M = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for w, c in P.terms.items():
        term = np.eye(ctx.dim)
        for letter in w:
            term = term @ gaussian(letter, ctx)
        M += c * term
    return M


def poly_right_mult(P: NCPoly, ctx: FockContext) -> np.ndarray:
    """Matrix of right multiplication by P: left multiplication by P with
    every monomial reversed, conjugated by word reversal."""
    rev = _rev_perm(ctx)
    reversed_P = NCPoly({w[::-1]: c for w, c in P.terms.items()})
    return poly_operator(reversed_P, ctx)[np.ix_(rev, rev)]


def vector_to_poly(v: GradedVector) -> NCPoly:
    """The polynomial whose vacuum image is v: back substitution through
    the monomial blocks, from the top level down."""
    ctx = v.ctx
    r = v.data.copy()
    terms = {}
    for n in range(ctx.L, -1, -1):
        c = r[ctx.level_slice(n)]
        cut = ctx.level_offset(n)
        r[:cut] -= _monomials(n, ctx)[:cut] @ c
        terms.update((ctx.index_word(n, i), c[i]) for i in np.flatnonzero(c))
    return NCPoly(terms)


# ---- derivation tags ----------------------------------------------------------


@dataclass(frozen=True)
class DerivationTag:
    kind: str
    Q: int | None = None

    def __post_init__(self):
        if self.kind not in {"FDQ", "Q_COMMUTATOR", "Q_SQRT", "Q_TRUNCATED", "DOUBLING"}:
            raise ValueError(f"unknown derivation kind {self.kind!r}")
        if self.kind == "Q_TRUNCATED" and (self.Q is None or self.Q < 0):
            raise ValueError("Q_TRUNCATED requires a level cap Q >= 0")


FDQ = DerivationTag("FDQ")
Q_COMMUTATOR = DerivationTag("Q_COMMUTATOR")
Q_SQRT = DerivationTag("Q_SQRT")
DOUBLING = DerivationTag("DOUBLING")


def q_truncated(Q: int) -> DerivationTag:
    return DerivationTag("Q_TRUNCATED", Q)


def _fdq_coeffs(P: NCPoly, j: int, ctx: FockContext) -> np.ndarray:
    """Leibniz sum: every monomial split at each occurrence of letter j, as
    (prefix image) (x) (suffix image), one product per level and position.

    The monomials of level n with letter j at position k + 1 have prefix
    index ``t % N**k`` and suffix index ``t // N**(k + 1)``, so their
    coefficients are a slice of the level's coefficients reshaped to
    (suffix, letter, prefix).  The one producer of coefficients from
    polynomials owns their dtype: contiguous float64 when the imaginary part
    vanishes, complex128 otherwise, so real data stays in real arithmetic.
    """
    N = ctx.N
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for n, c in enumerate(_coefficients(P, ctx)):
        for k in range(n):
            S = c.reshape(N ** (n - k - 1), N, N**k)[:, j - 1, :]
            C += _monomials(k, ctx) @ S.T @ _monomials(n - k - 1, ctx).T
    return C if C.imag.any() else np.ascontiguousarray(C.real)


def _doubled_context(ctx: FockContext, level: int) -> FockContext:
    return ctx.memo(
        ("doubled", level),
        lambda: make_context(2 * ctx.N, ctx.q, level, cap_override=ctx.cap_override),
    )


def _prime(v: GradedVector, k: int, dctx: FockContext) -> GradedVector:
    """Each word of v sent to the sum of its copies with one occurrence of
    letter k primed (k + N) in the doubled context dctx, where v vanishes
    above level dctx.L.  Distinct (word, occurrence) pairs give distinct
    primed words, so coefficients are moved, never added."""
    src = v.ctx
    out = GradedVector.zero(dctx)
    for n in range(1, min(src.L, dctx.L) + 1):
        digits = np.arange(src.N**n)[:, None] // src.N ** np.arange(n) % src.N
        base = digits @ dctx.N ** np.arange(n)
        for t in range(n):
            hit = digits[:, t] == k - 1
            # the primed letter's digit is N above the plain one
            out.level(n)[base[hit] + src.N * dctx.N**t] = v.level(n)[hit]
    return out


def derive(P: NCPoly, j: int, tag: DerivationTag, ctx: FockContext):
    """Tagged derivation of P with respect to letter j.

    Returns the (dim, dim) coefficient matrix for the tensor-square valued
    tags and a doubled-context :class:`GradedVector` for ``DOUBLING``.
    """
    if not (1 <= j <= ctx.N):
        raise AlphabetError(f"letter {j} outside 1..{ctx.N}")
    if tag.kind == "DOUBLING":
        return _prime(poly_vector(P, ctx), j, _doubled_context(ctx, max(P.degree, 1)))
    T = _fdq_coeffs(P, j, ctx)
    if tag.kind == "FDQ":
        return T
    if tag.kind == "Q_SQRT":
        return _xi_sqrt_right(ctx, T)
    # Q_COMMUTATOR (cap None, the full truncation) and Q_TRUNCATED
    return lr_apply(T, xi_as_hs(ctx, tag.Q), ctx)


def real_structure(C: np.ndarray, ctx: FockContext) -> np.ndarray:
    """The conjugation (a (x) b) -> (b* (x) a*) of the element with
    coefficients C, in word-operator coordinates."""
    _check_shape(C, ctx)
    return _star(ctx, C.T)


# ---- identity checks -----------------------------------------------------------


def commutator_check(P: NCPoly, j: int, ctx: FockContext) -> float:
    """Residual of (operator of the deformed derivation) vs the commutator
    with the right-append operator, on inputs of level <= L - deg(P) - 1.

    On that range both sides are computed exactly at truncation, so the
    residual is machine-level when the identity holds.
    """
    deg = P.degree
    K = ctx.L - deg - 1
    if K < 0:
        raise CapacityError(
            f"commutator check needs L >= deg + 1 = {deg + 1}, have L = {ctx.L}"
        )
    lhs = multiplier_of(derive(P, j, Q_COMMUTATOR, ctx), ctx)
    Pop = poly_operator(P, ctx)
    r = right_creation(j, ctx)
    rhs = Pop @ r - r @ Pop
    cut = ctx.level_offset(K + 1)
    m = metric(ctx)
    return _sandwich_norm(m["Gh"], (lhs - rhs)[:, :cut], m["Gih"][:cut, :cut])


def partial_tau(P: NCPoly, j: int, ctx: FockContext) -> GradedVector:
    """Trace out the right leg of the deformed derivation of P.

    Equals the right-delete operator applied to the vacuum image of P; exact
    for deg(P) <= L because the right-leg trace only reads protected blocks.
    """
    return GradedVector(ctx, derive(P, j, Q_COMMUTATOR, ctx)[:, 0].copy())


def number_check(xi: GradedVector, eta: GradedVector, ctx: FockContext) -> dict:
    """Dirichlet form of the doubling derivation against the level count.

    For homogeneous inputs of levels n, m the form equals n <xi, eta> when
    n = m and vanishes otherwise; computed from doubled words and the doubled
    Gram matrix, independently of the right-hand side.
    """
    ctx.require_compatible(xi.ctx)
    ctx.require_compatible(eta.ctx)

    def _level(v: GradedVector) -> int | None:
        levels = v.support_levels()
        if not levels:
            return None
        if len(levels) > 1:
            raise HomogeneityError(f"input supported on several levels {levels}")
        return levels[0]

    n, m = _level(xi), _level(eta)
    rhs = 0.0 + 0.0j
    if n is not None and n == m:
        rhs = n * q_inner(xi, eta, ctx)
    lhs = 0.0 + 0.0j
    if n is not None and m is not None and n == m and n > 0:
        dctx = _doubled_context(ctx, n)
        for k in range(1, ctx.N + 1):
            lhs += q_inner(_prime(xi, k, dctx), _prime(eta, k, dctx), dctx)
    return {
        "lhs": complex(lhs),
        "rhs": complex(rhs),
        "residual": abs(complex(lhs) - complex(rhs)),
    }


# ---- adjoint machinery -----------------------------------------------------------


def dq_star(C: np.ndarray, j: int, ctx: FockContext) -> GradedVector:
    """Adjoint of the deformed derivation applied to the tensor-square
    element with coefficients C.

    Linear extension of
    ``(a (x) b) -> a X_j b - (right-delete_j a) b - a (left-delete_j b)``;
    the first and third terms combine into ``a (prepend_j b)``, so the
    result is ``sum_u A_u rows[u]`` over the left word operators.  It is
    folded from the top level down by the last-letter recursion ``psi_(wi)
    = psi_w X_i - sum_k q^(n-1-k) [w_k = i] psi_(w without k)``: level n,
    as ``[last letter i, w]``, adds ``sum_i R[i] @ X_i^T`` to level n - 1
    and its pairs, the first-letter pairs of the reversed words
    (:func:`~qfock.operators._hatted`), to level n - 2; the vacuum row is
    then the sum.  No word operator is built.
    """
    _check_shape(C, ctx)
    if not (1 <= j <= ctx.N):
        raise AlphabetError(f"letter {j} outside 1..{ctx.N}")
    rows = C @ creation(j, ctx).T - right_annihilation(j, ctx) @ C
    N, rev = ctx.N, _rev_perm(ctx)

    def fold(R: np.ndarray) -> np.ndarray:
        R = R.copy()
        for n in range(ctx.L, 0, -1):
            top = R[ctx.level_slice(n)].reshape(N, N ** (n - 1), -1)
            for i in range(N):
                R[ctx.level_slice(n - 1)] += top[i] @ gaussian(i + 1, ctx).T
            if n > 1:
                R[rev[ctx.level_slice(n - 2)]] -= _hatted(R[rev[ctx.level_slice(n)]].T, n, ctx).T
        return R[0]

    return GradedVector(ctx, _by_parts(fold, rows))


def conjugate_variables(U: np.ndarray, ctx: FockContext) -> list[GradedVector]:
    """The conjugate variables ``xi_j = dq_star(U, j, ctx)`` for j = 1..N,
    where the coefficients U approximate the inverse of the deformation
    operator (the element of :func:`~qfock.deformation.xi_inverse_neumann`
    or a partial sum of :func:`~qfock.deformation.neumann_series`)."""
    return [dq_star(U, j, ctx) for j in range(1, ctx.N + 1)]


def fisher_estimate(cvs: list[GradedVector]) -> float:
    """Sum over letters of the squared deformed two-norm of the conjugate
    variables; exactly N at q = 0."""
    return sum(norm_q(v) ** 2 for v in cvs)


def lipschitz_norms(cvs: list[GradedVector]) -> list[list[float]]:
    """Doubled-space operator norms of the free difference quotients
    ``d_k xi_j``, as the N x N table ``[j - 1][k - 1]``: the computable proxy
    of their von Neumann tensor norms.  No extrapolation beyond the
    truncation is claimed.

    Contract: ``cvs`` is ``conjugate_variables(U, ctx)`` for a letter-invariant U
    (every partial sum of :func:`~qfock.deformation.neumann_series` is one,
    and so is the element of :func:`~qfock.deformation.xi_inverse_neumann`).
    A letter relabelling sigma leaves every Gram block unchanged, so it is a
    unitary of the truncated space that fixes U; then ``xi_sigma(j) = sigma
    xi_j`` and ``d_sigma(k) xi_sigma(j) = (sigma (x) sigma)(d_k xi_j)``,
    whose norm is that of ``d_k xi_j``.  The table therefore takes one value
    on its diagonal and one off it, and only ``cvs[0]`` is read: the norms
    of ``d_1 xi_1`` and, when N >= 2, of ``d_2 xi_1``.
    """
    ctx = cvs[0].ctx
    P = vector_to_poly(cvs[0])
    diag = doubled_op_norm(derive(P, 1, FDQ, ctx), ctx)
    off = doubled_op_norm(derive(P, 2, FDQ, ctx), ctx) if ctx.N > 1 else None
    return [[diag if j == k else off for k in range(ctx.N)] for j in range(ctx.N)]


# ---- norm equivalences -----------------------------------------------------------


def equivalence_check(P: NCPoly, ctx: FockContext, trunc_q: int | None = None) -> dict:
    """Two-norms of the four derivations of P and the sandwich inequalities
    relating them, with the truncated model's operator norms substituted.

    Those norms are lower bounds of the untruncated ones for N = 1 only, so
    the inequality flags are consistency checks of the model.  Also
    cross-checks the doubling-derivation form against the square-root form
    (they agree letter by letter).
    """
    if trunc_q is None:
        trunc_q = ctx.L
    xi = xi_as_hs(ctx)
    xiQ = xi_as_hs(ctx, trunc_q)
    lo, hi = _xi_spectral_range(ctx)
    norm_xi_half = math.sqrt(max(hi, 0.0))
    norm_xi_invhalf = math.inf if lo <= 1e-14 else 1.0 / math.sqrt(lo)
    # at the full truncation xiQ is Xi itself, whose norm the range already gives
    norm_xiQ = max(-lo, hi) if trunc_q == ctx.L else doubled_op_norm(xiQ, ctx, hermitian=True)
    norm_tail = doubled_op_norm(xi - xiQ, ctx, hermitian=True)
    # 0 * inf would poison the truncation penalty when the tail vanishes
    tail_penalty = 0.0 if norm_tail == 0.0 else norm_tail * norm_xi_invhalf**2
    tol = 1e-9
    per_k = {}
    for k in range(1, ctx.N + 1):
        T = derive(P, k, FDQ, ctx)
        S = lr_apply(T, xi, ctx)
        SQ = lr_apply(T, xiQ, ctx)
        fdq = hs_norm_of(T, ctx)
        qcomm = hs_norm_of(S, ctx)
        tilde_sq = hs_inner(T, S, ctx).real
        if tilde_sq < -1e-10:
            raise SquareRootUnavailableError(
                f"right-action quadratic form returned {tilde_sq:.3e} < 0; the "
                f"doubled action is not PSD at this truncation (q = {ctx.q})"
            )
        tilde = math.sqrt(max(tilde_sq, 0.0))
        qQ = hs_norm_of(SQ, ctx)
        hat = derive(P, k, DOUBLING, ctx)
        hat_sq = q_inner(hat, hat).real
        per_k[k] = {
            "fdq": fdq,
            "tilde": tilde,
            "qcomm": qcomm,
            "qtrunc": qQ,
            "hat_sq": hat_sq,
            "hat_vs_tilde_residual": abs(hat_sq - tilde_sq),
            "sandwich_1": qcomm <= norm_xi_half * tilde + tol
            and norm_xi_half * tilde <= norm_xi_half**2 * fdq + tol,
            "sandwich_2": fdq <= norm_xi_invhalf * tilde + tol
            and fdq <= norm_xi_invhalf**2 * qcomm + tol,
            "sandwich_3": qcomm * (1.0 - tail_penalty) <= qQ + tol
            and qQ <= norm_xiQ * fdq + tol,
        }
    return {
        "norm_xi_half": norm_xi_half,
        "norm_xi_invhalf": norm_xi_invhalf,
        "norm_xi_trunc": norm_xiQ,
        "norm_tail": norm_tail,
        "per_letter": per_k,
    }
