"""Derivations on polynomials in the field operators.

The derivation domain is the free polynomial algebra on the N field
operators; a polynomial of degree <= L is represented exactly at truncation
(its vacuum image walks levels 0..deg only).  Four derivations share the
generator structure "delta on letter j, extended by the Leibniz rule":

* ``FDQ``           — generator value 1 (x) 1 (the free difference quotient);
* ``Q_COMMUTATOR``  — generator value the deformation operator (equivalently,
  the commutator with the right-side append operator);
* ``Q_TRUNCATED(Q)``— generator value the level-capped deformation operator;
* ``Q_SQRT``        — the FDQ output hit on the right by the PSD square root
  of the deformation operator on the doubled space;
* ``DOUBLING``      — the derivation into the double-alphabet algebra sending
  letter k to its primed copy k + N.

All identity checks quote the degree ranges on which truncation is exact;
outside those ranges results are compressions and only convergence behavior
is reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import (
    HSElement,
    doubled_op_norm,
    doubled_psd_sqrt,
    hs_inner,
    hs_mult,
    hs_norm_of,
    multiplier_of,
    neumann_series,
    xi_as_hs,
    _star,
    _xi_spectral_range,
)
from .errors import AlphabetError, CapacityError, SquareRootUnavailableError
from .fock import FockContext, GradedVector, gram, make_context, metric, q_inner
from .operators import (
    FockOperator,
    creation,
    gaussian,
    left_wick_stack,
    right_annihilation,
    right_creation,
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
    "conjugate_variable",
    "fisher_estimate",
    "lipschitz_diagnostic",
    "equivalence_check",
    "bimodule_form_discrepancy",
    "wick_poly",
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


def _word_vector(w: tuple[int, ...], ctx: FockContext) -> np.ndarray:
    """Vacuum image of the monomial product, exact for len(w) <= L."""
    if len(w) > ctx.L:
        raise CapacityError(
            f"monomial degree {len(w)} exceeds truncation level {ctx.L}"
        )
    v = np.zeros(ctx.dim, dtype=complex)
    v[0] = 1.0
    for letter in reversed(w):
        v = gaussian(letter, ctx).mat @ v
    return v


def poly_vector(P: NCPoly, ctx: FockContext) -> GradedVector:
    """P applied to the vacuum; a linear isomorphism for degree <= L."""
    v = np.zeros(ctx.dim, dtype=complex)
    for w, c in P.terms.items():
        v += c * _word_vector(w, ctx)
    return GradedVector(ctx, v)


def poly_operator(P: NCPoly, ctx: FockContext) -> FockOperator:
    M = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for w, c in P.terms.items():
        term = np.eye(ctx.dim)
        for letter in w:
            term = term @ gaussian(letter, ctx).mat
        M += c * term
    return FockOperator(ctx, M)


def poly_left_mult(P: NCPoly, ctx: FockContext) -> np.ndarray:
    """Matrix of left multiplication by P on the truncated space."""
    return poly_operator(P, ctx).mat


def poly_right_mult(P: NCPoly, ctx: FockContext) -> np.ndarray:
    """Matrix of right multiplication by P (factors compose in reverse)."""
    from .operators import right_gaussian

    M = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for w, c in P.terms.items():
        term = np.eye(ctx.dim)
        for letter in reversed(w):
            term = term @ right_gaussian(letter, ctx).mat
        M += c * term
    return M


def wick_poly(w: tuple[int, ...], ctx: FockContext) -> NCPoly:
    """Monomial expansion of the word operator (three-term recursion)."""
    w = tuple(w)

    def build():
        if len(w) == 0:
            return NCPoly.one()
        tail = w[1:]
        P = NCPoly.x(w[0]) * wick_poly(tail, ctx)
        for j in range(2, len(w) + 1):
            if w[0] == w[j - 1]:
                hatted = tail[: j - 2] + tail[j - 1 :]
                P = P - (ctx.q ** (j - 2)) * wick_poly(hatted, ctx)
        return P

    return ctx.memo(("poly", w), build)


def vector_to_poly(v: GradedVector) -> NCPoly:
    """The polynomial whose vacuum image is v (via the word-operator basis)."""
    ctx = v.ctx
    out = NCPoly.zero()
    for n in range(ctx.L + 1):
        coeffs = v.level(n)
        for idx in np.flatnonzero(np.abs(coeffs) > 0):
            out = out + coeffs[idx] * wick_poly(ctx.index_word(n, idx), ctx)
    return out


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
    """Leibniz sum: split each monomial at every letter equal to j."""
    if P.degree > ctx.L:
        raise CapacityError(
            f"polynomial degree {P.degree} exceeds truncation level {ctx.L}"
        )
    d = ctx.dim
    C = np.zeros((d, d), dtype=complex)
    for w, c in P.terms.items():
        if not w:
            continue
        # prefix[m] = X_{w_1..w_m} vacuum, suffix[m] = X_{w_{m+1}..} vacuum
        n = len(w)
        prefix = [None] * (n + 1)
        suffix = [None] * (n + 1)
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        prefix[0] = e0
        for m in range(1, n + 1):
            # X_{w_1..w_m} vacuum = X-product applied right-to-left
            prefix[m] = _word_vector(w[:m], ctx)
        suffix[n] = e0
        for m in range(n - 1, -1, -1):
            suffix[m] = gaussian(w[m], ctx).mat @ suffix[m + 1]
        for m in range(1, n + 1):
            if w[m - 1] == j:
                C += c * np.outer(prefix[m - 1], suffix[m])
    return C


def _doubled_context(ctx: FockContext, level: int) -> FockContext:
    return ctx.memo(
        ("doubled", level),
        lambda: make_context(2 * ctx.N, ctx.q, level, cap_override=ctx.cap_override),
    )


def derive(P: NCPoly, j: int, tag: DerivationTag, ctx: FockContext):
    """Tagged derivation of P with respect to letter j.

    Returns an :class:`HSElement` for the tensor-square valued tags and a
    doubled-context :class:`GradedVector` for ``DOUBLING``.
    """
    if not (1 <= j <= ctx.N):
        raise AlphabetError(f"letter {j} outside 1..{ctx.N}")
    if tag.kind == "DOUBLING":
        deg = max(P.degree, 1)
        dctx = _doubled_context(ctx, deg)
        v = np.zeros(dctx.dim, dtype=complex)
        for w, c in P.terms.items():
            for m, letter in enumerate(w):
                if letter == j:
                    primed = w[:m] + (j + ctx.N,) + w[m + 1 :]
                    v += c * _word_vector(primed, dctx)
        return GradedVector(dctx, v)
    C = _fdq_coeffs(P, j, ctx)
    if tag.kind == "FDQ":
        return HSElement(ctx, C)
    if tag.kind == "Q_COMMUTATOR":
        return hs_mult(HSElement(ctx, C), xi_as_hs(ctx))
    if tag.kind == "Q_TRUNCATED":
        if tag.Q > ctx.L:
            raise ValueError(f"level cap {tag.Q} exceeds truncation level {ctx.L}")
        return hs_mult(HSElement(ctx, C), xi_as_hs(ctx, tag.Q))
    if tag.kind == "Q_SQRT":
        root = doubled_psd_sqrt(xi_as_hs(ctx), which="right")
        from .deformation import apply_in_orthonormal

        return HSElement(ctx, apply_in_orthonormal(ctx, root, C))
    raise AssertionError(tag)


def real_structure(T: HSElement) -> HSElement:
    """The conjugation (a (x) b) -> (b* (x) a*) in word-operator coordinates."""
    return HSElement(T.ctx, _star(T.ctx, T.coeffs.T))


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
    T = derive(P, j, Q_COMMUTATOR, ctx)
    lhs = multiplier_of(T).mat
    Pop = poly_operator(P, ctx).mat
    r = right_creation(j, ctx).mat
    rhs = Pop @ r - r @ Pop
    cut = ctx.level_offset(K + 1)
    m = metric(ctx)
    diff = (lhs - rhs)[:, :cut]
    sym = m["Gh"] @ diff @ m["Gih"][:cut, :cut]
    return float(np.linalg.svd(sym, compute_uv=False)[0])


def partial_tau(P: NCPoly, j: int, ctx: FockContext) -> GradedVector:
    """Trace out the right leg of the deformed derivation of P.

    Equals the right-delete operator applied to the vacuum image of P; exact
    for deg(P) <= L because the right-leg trace only reads protected blocks.
    """
    T = derive(P, j, Q_COMMUTATOR, ctx)
    return GradedVector(ctx, T.coeffs[:, 0].copy())


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
            from .errors import HomogeneityError

            raise HomogeneityError(f"input supported on several levels {levels}")
        return levels[0]

    n, m = _level(xi), _level(eta)
    rhs = 0.0 + 0.0j
    if n is not None and n == m:
        rhs = n * q_inner(xi, eta, ctx)
    lhs = 0.0 + 0.0j
    if n is not None and m is not None and n == m and n > 0:
        dctx = _doubled_context(ctx, n)
        gamma = gram(n, dctx).gamma.entries
        for k in range(1, ctx.N + 1):
            dk_xi = _doubling_words(xi, k, n, dctx)
            dk_eta = _doubling_words(eta, k, n, dctx)
            lhs += np.vdot(dk_xi, gamma @ dk_eta)
    return {
        "lhs": complex(lhs),
        "rhs": complex(rhs),
        "residual": abs(complex(lhs) - complex(rhs)),
    }


def _doubling_words(v: GradedVector, k: int, n: int, dctx: FockContext) -> np.ndarray:
    """Replace one occurrence of letter k at a time by its primed copy."""
    ctx = v.ctx
    out = np.zeros(dctx.N**n, dtype=complex)
    coeffs = v.level(n)
    for idx in np.flatnonzero(np.abs(coeffs) > 0):
        w = ctx.index_word(n, idx)
        for t, letter in enumerate(w):
            if letter == k:
                primed = w[:t] + (k + ctx.N,) + w[t + 1 :]
                out[dctx.word_index(primed)] += coeffs[idx]
    return out


# ---- adjoint machinery -----------------------------------------------------------


def dq_star(T: HSElement, j: int, ctx: FockContext) -> GradedVector:
    """Adjoint of the deformed derivation applied to a tensor-square element.

    Linear extension of
    ``(a (x) b) -> a X_j b - (right-delete_j a) b - a (left-delete_j b)``;
    the first and third terms combine into ``a (prepend_j b)``.
    """
    ctx.require_compatible(T.ctx)
    if not (1 <= j <= ctx.N):
        raise AlphabetError(f"letter {j} outside 1..{ctx.N}")
    C = T.coeffs
    rows = C @ creation(j, ctx).mat.T - right_annihilation(j, ctx).mat @ C
    A = left_wick_stack(ctx)
    d = ctx.dim
    out = A.transpose(1, 0, 2).reshape(d, d * d) @ rows.reshape(d * d)
    return GradedVector(ctx, out)


def _neumann_sum(ctx: FockContext, n_terms: int) -> HSElement:
    for _, _, U in neumann_series(ctx, n_terms):
        pass
    return HSElement(ctx, U)


def conjugate_variable(
    j: int, n_terms: int, ctx: FockContext, series: bool = False
):
    """Adjoint of the deformed derivation on the Neumann inverse approximant.

    With ``series=True`` also returns the deformed two-norms of the partial
    results, one per series order, for convergence monitoring.
    """
    if not (1 <= j <= ctx.N):
        raise AlphabetError(f"letter {j} outside 1..{ctx.N}")
    if not series:
        return dq_star(_neumann_sum(ctx, n_terms), j, ctx)
    norms = []
    for _, _, U in neumann_series(ctx, n_terms):
        vec = dq_star(HSElement(ctx, U), j, ctx)
        norms.append(float(np.sqrt(q_inner(vec, vec, ctx).real)))
    return vec, norms


def fisher_estimate(n_terms: int, ctx: FockContext) -> float:
    """Sum over letters of the squared deformed two-norm of the conjugate
    variable approximant; exactly N at q = 0."""
    U = _neumann_sum(ctx, n_terms)
    total = 0.0
    for j in range(1, ctx.N + 1):
        v = dq_star(U, j, ctx)
        total += q_inner(v, v, ctx).real
    return float(total)


def lipschitz_diagnostic(j: int, k: int, n_terms: int, ctx: FockContext) -> dict:
    """Free difference quotient of the conjugate-variable approximant.

    Reports its tensor-square two-norm and the doubled-space operator norm of
    its left action (the computable proxy for the von Neumann tensor norm).
    No extrapolation beyond the truncation is claimed.
    """
    v = dq_star(_neumann_sum(ctx, n_terms), j, ctx)
    T = derive(vector_to_poly(v), k, FDQ, ctx)
    return {
        "l2_norm": hs_norm_of(T),
        "lr_op_norm": doubled_op_norm(T),
    }


# ---- norm equivalences -----------------------------------------------------------


def bimodule_form_discrepancy(
    P: NCPoly, Q: NCPoly, R: NCPoly, k: int, ctx: FockContext
) -> float:
    """Gap between the doubling form and the square-root form under a left
    multiplier R: ``|<R hat(P), R hat(Q)> - <R tilde(P), R tilde(Q)>|``.

    The R = 1 instance is an asserted identity; for general R the value is
    reported for the record only (its vanishing rests on an external
    stochastic-integration argument, not re-derived here).
    """
    deg = max(P.degree, Q.degree) + R.degree
    dctx = _doubled_context(ctx, max(deg, 1))
    hatP = _reembed(derive(P, k, DOUBLING, ctx), dctx)
    hatQ = _reembed(derive(Q, k, DOUBLING, ctx), dctx)
    Rop_doubled = poly_operator(R, dctx).mat
    lhs = q_inner(
        GradedVector(dctx, Rop_doubled @ hatP.data),
        GradedVector(dctx, Rop_doubled @ hatQ.data),
        dctx,
    )
    TP = derive(P, k, FDQ, ctx)
    TQ = derive(Q, k, FDQ, ctx)
    Rop = poly_left_mult(R, ctx)
    RTP = HSElement(ctx, Rop @ TP.coeffs)
    RTQ = HSElement(ctx, Rop @ TQ.coeffs)
    rhs = hs_inner(RTP, hs_mult(RTQ, xi_as_hs(ctx)))
    return abs(complex(lhs) - complex(rhs))


def _reembed(v: GradedVector, dctx: FockContext) -> GradedVector:
    out = GradedVector.zero(dctx)
    src = v.ctx
    for n in range(src.L + 1):
        coeffs = v.level(n)
        for idx in np.flatnonzero(np.abs(coeffs) > 0):
            out.data[dctx.global_index(src.index_word(n, idx))] += coeffs[idx]
    return out


def equivalence_check(P: NCPoly, ctx: FockContext, trunc_q: int | None = None) -> dict:
    """Two-norms of the four derivations of P and the sandwich inequalities
    relating them, with compressed operator norms substituted.

    Compressed norms are lower bounds, so the inequality flags are one-sided
    consistency checks.  Also cross-checks the doubling-derivation form
    against the square-root form (they agree letter by letter).
    """
    if trunc_q is None:
        trunc_q = ctx.L
    xi = xi_as_hs(ctx)
    xiQ = xi_as_hs(ctx, trunc_q)
    lo, hi = _xi_spectral_range(ctx)
    norm_xi_half = math.sqrt(max(hi, 0.0))
    norm_xi_invhalf = math.inf if lo <= 1e-14 else 1.0 / math.sqrt(lo)
    # at the full truncation xiQ is Xi itself, whose norm the range already gives
    norm_xiQ = max(-lo, hi) if trunc_q == ctx.L else doubled_op_norm(xiQ, hermitian=True)
    norm_tail = doubled_op_norm(xi - xiQ, hermitian=True)
    # 0 * inf would poison the truncation penalty when the tail vanishes
    tail_penalty = 0.0 if norm_tail == 0.0 else norm_tail * norm_xi_invhalf**2
    tol = 1e-9
    per_k = {}
    for k in range(1, ctx.N + 1):
        T = derive(P, k, FDQ, ctx)
        S = hs_mult(T, xi)
        SQ = hs_mult(T, xiQ)
        fdq = hs_norm_of(T)
        qcomm = hs_norm_of(S)
        tilde_sq = hs_inner(T, S).real
        if tilde_sq < -1e-10:
            raise SquareRootUnavailableError(
                f"right-action quadratic form returned {tilde_sq:.3e} < 0; the "
                f"doubled action is not PSD at this truncation (q = {ctx.q})"
            )
        tilde = math.sqrt(max(tilde_sq, 0.0))
        qQ = hs_norm_of(SQ)
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
