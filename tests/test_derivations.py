from itertools import islice, permutations

import numpy as np
import pytest

from qfock import GradedVector, make_context, q_inner
from qfock.fock import norm_q
from qfock.deformation import (
    doubled_op_norm,
    hs_inner,
    hs_norm_of,
    lr_apply,
    neumann_series,
    unit_hs,
    xi_as_hs,
    xi_inverse_neumann,
)
from qfock.derivations import (
    DOUBLING,
    FDQ,
    NCPoly,
    Q_COMMUTATOR,
    Q_SQRT,
    _fdq_coeffs,
    _monomials,
    commutator_check,
    conjugate_variables,
    derive,
    dq_star,
    equivalence_check,
    fisher_estimate,
    lipschitz_norms,
    number_check,
    partial_tau,
    poly_operator,
    poly_right_mult,
    poly_vector,
    q_truncated,
    real_structure,
    vector_to_poly,
)
from qfock.errors import AlphabetError, CapacityError
from qfock.operators import right_annihilation

from dense_oracle import (
    bimodule_form_discrepancy,
    dense_fdq_top,
    doubling_by_evaluation,
    dq_star_by_stack,
    leibniz_by_prefix_suffix,
    letter_relabelling,
    right_mult_by_products,
    wick_expansion,
    wick_poly,
)


def random_poly(ctx, rng, deg, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, deg + 1))
        w = tuple(int(x) for x in rng.integers(1, ctx.N + 1, size=k))
        terms[w] = complex(rng.standard_normal(), rng.standard_normal())
    return NCPoly(terms)


def random_hs(ctx, rng, leg_cap):
    cut = ctx.level_offset(leg_cap + 1)
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    C[:cut, :cut] = rng.standard_normal((cut, cut)) + 1j * rng.standard_normal(
        (cut, cut)
    )
    return C


# ---- polynomials ------------------------------------------------------------------


def test_wick_poly_examples():
    ctx = make_context(2, 0.3, 4)
    assert vector_to_poly(GradedVector.from_word(ctx, (1,))).terms == {(1,): 1.0}
    p = vector_to_poly(GradedVector.from_word(ctx, (1, 1)))
    assert p.terms == {(1, 1): 1.0, (): -1.0}


def test_wick_poly_vacuum_roundtrip():
    ctx = make_context(2, -0.4, 4)
    for w in [(1,), (2, 1), (1, 1, 2), (2, 2, 1, 1)]:
        v = poly_vector(vector_to_poly(GradedVector.from_word(ctx, w)), ctx)
        assert np.abs(v.data - GradedVector.from_word(ctx, w).data).max() < 1e-12


def poly_gap(P, Q) -> float:
    """Largest coefficient difference of two polynomials."""
    words = P.terms.keys() | Q.terms.keys()
    return max((abs(P.terms.get(w, 0) - Q.terms.get(w, 0)) for w in words), default=0.0)


# Back substitution and the recursion order their sums differently, so the
# tolerance is roundoff: 1e-13 relative to the largest coefficient.  At q = 0
# every coefficient is an integer and the two agree exactly.
@pytest.mark.parametrize("N, q, L", [(1, 0.3, 5), (2, -0.4, 4), (3, 0.37, 3), (2, 0.0, 4)])
def test_vector_to_poly_matches_wick_recursion(N, q, L):
    ctx = make_context(N, q, L)
    for n in range(L + 1):
        for w in ctx.words(n):
            got = vector_to_poly(GradedVector.from_word(ctx, w))
            ref = wick_poly(w, ctx)
            if q == 0:
                assert got.terms == ref.terms, w
            else:
                scale = max(abs(c) for c in ref.terms.values())
                assert poly_gap(got, ref) <= 1e-13 * scale, w


def test_vector_to_poly_roundtrip():
    ctx = make_context(2, 0.35, 4)
    rng = np.random.default_rng(0)
    v = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
    P = vector_to_poly(v)
    back = poly_vector(P, ctx)
    assert np.abs(back.data - v.data).max() < 1e-10


@pytest.mark.parametrize("N, q, L", [(1, 0.3, 5), (2, -0.4, 4), (3, 0.37, 3)])
def test_poly_vector_roundtrip(N, q, L):
    # complex polynomials of degree L back from their vacuum images, within
    # 1e-13 of the largest coefficient
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(5)
    for _ in range(3):
        P = random_poly(ctx, rng, L, n_terms=8)
        back = vector_to_poly(poly_vector(P, ctx))
        assert poly_gap(back, P) <= 1e-13 * max(abs(c) for c in P.terms.values())


@pytest.mark.parametrize("N, q, L", [(1, 0.3, 5), (2, -0.4, 4), (3, 0.37, 3)])
def test_monomial_blocks_are_unit_upper_triangular(N, q, L):
    ctx = make_context(N, q, L)
    for n in range(L + 1):
        T = _monomials(n, ctx)
        assert T.shape == (ctx.dim, N**n)
        s = ctx.level_slice(n)
        assert np.array_equal(T[s], np.eye(N**n))
        assert not T[s.stop :].any()
        for m in range((n + 1) % 2, n, 2):
            assert not T[ctx.level_slice(m)].any(), (n, m)


def test_poly_star_reverses_words():
    P = NCPoly({(1, 2): 1.0 + 2.0j})
    assert P.star().terms == {(2, 1): 1.0 - 2.0j}


def test_poly_degree_cap():
    ctx = make_context(2, 0.3, 3)
    P = NCPoly.from_word((1, 1, 1, 1))
    with pytest.raises(CapacityError):
        poly_vector(P, ctx)
    for tag in (FDQ, Q_COMMUTATOR, Q_SQRT, q_truncated(2), DOUBLING):
        with pytest.raises(CapacityError):
            derive(P, 1, tag, ctx)


# ---- generator values ----------------------------------------------------------------


def test_fdq_on_generators():
    ctx = make_context(2, 0.3, 4)
    for i in (1, 2):
        for j in (1, 2):
            T = derive(NCPoly.x(i), j, FDQ, ctx)
            expected = unit_hs(ctx) if i == j else 0.0
            assert np.abs(T - expected).max() < 1e-14


def test_qcommutator_on_generators():
    ctx = make_context(2, 0.3, 4)
    for i in (1, 2):
        for j in (1, 2):
            T = derive(NCPoly.x(i), j, Q_COMMUTATOR, ctx)
            expected = xi_as_hs(ctx) if i == j else 0.0
            assert np.abs(T - expected).max() < 1e-12


def test_fdq_leibniz_two_letter():
    ctx = make_context(2, 0.3, 4)
    T = derive(NCPoly.from_word((1, 2)), 1, FDQ, ctx)
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[0, ctx.global_index((2,))] = 1.0
    assert np.abs(T - expected).max() < 1e-14


def test_derive_letter_out_of_range():
    ctx = make_context(2, 0.3, 4)
    with pytest.raises(AlphabetError):
        derive(NCPoly.x(1), 3, FDQ, ctx)


def test_leibniz_rule_random():
    ctx = make_context(2, -0.35, 5)
    rng = np.random.default_rng(1)
    for _ in range(3):
        P = random_poly(ctx, rng, 2)
        Q = random_poly(ctx, rng, 2)
        lhs = derive(P * Q, 1, FDQ, ctx)
        rhs = (
            poly_operator(P, ctx) @ derive(Q, 1, FDQ, ctx)
            + derive(P, 1, FDQ, ctx) @ poly_right_mult(Q, ctx).T
        )
        assert np.abs(lhs - rhs).max() < 1e-10


def test_real_structure_property():
    ctx = make_context(2, 0.3, 5)
    rng = np.random.default_rng(2)
    for tag in (FDQ, Q_COMMUTATOR):
        P = random_poly(ctx, rng, 3)
        lhs = derive(P.star(), 1, tag, ctx)
        rhs = real_structure(derive(P, 1, tag, ctx), ctx)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_q_to_zero_continuity():
    ctx_eps = make_context(2, 1e-8, 4)
    ctx_0 = make_context(2, 0.0, 4)
    P = NCPoly({(1, 2, 1): 1.0, (2,): -0.5})
    for tag in (FDQ, Q_COMMUTATOR):
        a = derive(P, 1, tag, ctx_eps)
        b = derive(P, 1, tag, ctx_0)
        assert np.abs(a - b).max() < 1e-6


# ---- commutator characterization ------------------------------------------------------


def test_commutator_on_generator():
    ctx = make_context(2, 0.3, 6)
    assert commutator_check(NCPoly.x(1), 1, ctx) < 1e-10
    assert commutator_check(NCPoly.x(2), 1, ctx) < 1e-10


@pytest.mark.parametrize("q", [-0.3, 0.3])
def test_commutator_on_monomials_degree_three(q):
    ctx = make_context(2, q, 6)
    for w in [(1, 1), (1, 2), (2, 1, 1), (1, 2, 1)]:
        assert commutator_check(NCPoly.from_word(w), 1, ctx) < 1e-9


def test_commutator_on_constants():
    ctx = make_context(2, 0.3, 6)
    assert commutator_check(NCPoly.one(), 1, ctx) < 1e-14


# ---- partial trace ---------------------------------------------------------------------


def test_partial_tau_on_generator():
    ctx = make_context(2, 0.45, 5)
    out = partial_tau(NCPoly.x(1), 1, ctx)
    assert np.abs(out.data - GradedVector.vacuum(ctx).data).max() < 1e-12


def test_partial_tau_matches_right_delete():
    ctx = make_context(2, 0.45, 5)
    rng = np.random.default_rng(3)
    for j in (1, 2):
        for _ in range(5):
            P = random_poly(ctx, rng, 4)
            lhs = partial_tau(P, j, ctx)
            rhs = right_annihilation(j, ctx) @ poly_vector(P, ctx).data
            assert np.abs(lhs.data - rhs).max() < 1e-10


def test_partial_tau_kills_constants():
    ctx = make_context(2, 0.45, 5)
    out = partial_tau(NCPoly.one(), 1, ctx)
    assert np.abs(out.data).max() < 1e-14


# ---- number form ------------------------------------------------------------------------


def test_number_check_two_letter_words():
    q = 0.3
    ctx = make_context(2, q, 4)
    same = GradedVector.from_word(ctx, (1, 1))
    rep = number_check(same, same, ctx)
    assert rep["lhs"] == pytest.approx(2 * (1 + q), abs=1e-12)
    diff = GradedVector.from_word(ctx, (1, 2))
    rep = number_check(diff, diff, ctx)
    assert rep["lhs"] == pytest.approx(2 * 1.0, abs=1e-12)


def test_number_check_level_mismatch_vanishes():
    ctx = make_context(2, 0.3, 4)
    a = GradedVector.from_word(ctx, (1,))
    b = GradedVector.from_word(ctx, (1, 2))
    rep = number_check(a, b, ctx)
    assert rep["lhs"] == 0.0
    assert rep["rhs"] == 0.0


def test_number_check_random_pairs():
    ctx = make_context(2, -0.45, 4)
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            xi = GradedVector.zero(ctx)
            eta = GradedVector.zero(ctx)
            xi.level(n)[:] = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            eta.level(n)[:] = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            assert number_check(xi, eta, ctx)["residual"] < 1e-9


def test_number_diagonality():
    # the quadratic form equals n times the squared norm on each level
    ctx = make_context(2, 0.4, 4)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        xi = GradedVector.zero(ctx)
        xi.level(n)[:] = rng.standard_normal(2**n)
        rep = number_check(xi, xi, ctx)
        assert rep["lhs"].real == pytest.approx(
            n * q_inner(xi, xi, ctx).real, rel=1e-10
        )


# ---- adjoint machinery --------------------------------------------------------------------


def test_dq_star_on_unit():
    ctx = make_context(2, 0.4, 5)
    for j in (1, 2):
        out = dq_star(unit_hs(ctx), j, ctx)
        assert np.abs(out.data - GradedVector.from_word(ctx, (j,)).data).max() < 1e-12


def test_dq_star_free_case_conjugate_variable():
    ctx = make_context(2, 0.0, 5)
    out = dq_star(unit_hs(ctx), 1, ctx)
    assert np.abs(out.data - GradedVector.from_word(ctx, (1,)).data).max() == 0.0


@pytest.mark.parametrize(
    "N, q, L, complex_c",
    [
        (2, 0.1, 5, False),
        (1, 0.3, 6, False),
        (3, 0.05, 3, False),
        (2, -0.5, 5, False),
        (2, 0.0, 4, False),
        (2, 0.2, 0, False),
        (3, 0.1, 1, False),
        (2, 0.1, 4, True),
        (3, -0.2, 3, True),
    ],
)
def test_dq_star_matches_the_stack_contraction(N, q, L, complex_c):
    # the fold by the last-letter recursion against sum_u A_u rows[u] over
    # the plain left stack, on random coefficients of full support
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(11)
    C = rng.standard_normal((ctx.dim, ctx.dim))
    if complex_c:
        C = C + 1j * rng.standard_normal((ctx.dim, ctx.dim))
    for j in range(1, N + 1):
        got, ref = dq_star(C, j, ctx).data, dq_star_by_stack(C, j, ctx)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def _stack_keys(ctx):
    return [key for key in ctx._memo if isinstance(key, tuple) and key[0] == "stack"]


def test_dq_star_at_dim_255_builds_no_stack():
    # above the fixed limit of the dim**3 stores: the fold holds one (dim,
    # dim) array and matches the per-word sum over the short nonzero rows
    from qfock import wick_matrix
    from qfock.operators import creation

    ctx = make_context(2, 0.1, 7)
    assert ctx.dim == 255
    rng = np.random.default_rng(12)
    C = np.zeros((ctx.dim, ctx.dim))
    C[:7] = rng.standard_normal((7, ctx.dim))
    got = dq_star(C, 1, ctx).data
    rows = C @ creation(1, ctx).T - right_annihilation(1, ctx) @ C
    words = [w for n in range(3) for w in ctx.words(n)]
    assert not rows[len(words) :].any()
    ref = sum(wick_matrix(w, ctx) @ rows[u] for u, w in enumerate(words))
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    assert not _stack_keys(ctx)


def test_dq_star_of_full_support_builds_no_stack():
    ctx = make_context(2, 0.1, 6)
    U = np.random.default_rng(13).standard_normal((ctx.dim, ctx.dim))
    assert np.isfinite(dq_star(U, 2, ctx).data).all()
    assert not _stack_keys(ctx)


def test_adjoint_duality_random():
    ctx = make_context(2, 0.35, 6)
    rng = np.random.default_rng(6)
    for trial in range(8):
        T = random_hs(ctx, rng, leg_cap=2)
        P = random_poly(ctx, rng, 3)
        j = 1 + trial % 2
        lhs = q_inner(dq_star(T, j, ctx), poly_vector(P, ctx), ctx)
        rhs = hs_inner(T, derive(P, j, Q_COMMUTATOR, ctx), ctx)
        assert abs(lhs - rhs) < 1e-9


# ---- conjugate variables --------------------------------------------------------------------


def test_conjugate_variable_free_case():
    ctx = make_context(2, 0.0, 5)
    cvs = conjugate_variables(xi_inverse_neumann(ctx, 6).element, ctx)
    for j, v in enumerate(cvs, start=1):
        assert np.abs(v.data - GradedVector.from_word(ctx, (j,)).data).max() < 1e-12


def test_conjugate_variable_series_monitoring():
    ctx = make_context(2, 0.05, 4)
    norms = [
        norm_q(conjugate_variables(U, ctx)[0]) for _, _, U in neumann_series(ctx, 6)
    ]
    assert len(norms) == 7
    # geometric stabilization of the norm sequence
    assert abs(norms[-1] - norms[-2]) < 1e-4 * norms[-1]


def test_conjugate_variable_rejects_bad_letter():
    ctx = make_context(2, 0.0, 4)
    with pytest.raises(AlphabetError):
        dq_star(xi_inverse_neumann(ctx, 4).element, 3, ctx)


def test_fisher_free_case():
    for N, expected in [(2, 2.0), (1, 1.0)]:
        ctx = make_context(N, 0.0, 4)
        U = xi_inverse_neumann(ctx, 4).element
        assert fisher_estimate(conjugate_variables(U, ctx)) == pytest.approx(expected)


def test_lipschitz_free_case():
    ctx = make_context(2, 0.0, 4)
    cvs = conjugate_variables(xi_inverse_neumann(ctx, 3).element, ctx)
    assert lipschitz_norms(cvs)[0][0] == pytest.approx(1.0, abs=1e-10)
    P = vector_to_poly(cvs[0])
    assert hs_norm_of(derive(P, 1, FDQ, ctx), ctx) == pytest.approx(1.0, abs=1e-10)
    assert hs_norm_of(derive(P, 2, FDQ, ctx), ctx) < 1e-12
    # xi_j = X_j: d_k xi_j is 1 (x) 1 on the diagonal and vanishes off it
    for ctx in (ctx, make_context(3, 0.0, 3)):
        table = lipschitz_norms(conjugate_variables(xi_inverse_neumann(ctx, 3).element, ctx))
        for j, row in enumerate(table):
            for k, cell in enumerate(row):
                if j == k:
                    assert cell == pytest.approx(1.0, abs=1e-10)
                else:
                    assert cell == 0.0


def test_lipschitz_norms_nonnegative_and_bounded():
    ctx = make_context(2, 0.05, 4)
    vals = [
        lipschitz_norms(conjugate_variables(U, ctx))[0][0]
        for n, _, U in neumann_series(ctx, 6)
        if n in (2, 4, 6)
    ]
    assert all(v >= 0 for v in vals)
    assert max(vals) - min(vals) < 0.1  # uniformly bounded in series order


# The letter relabelling is a unitary that fixes every partial sum U, so
# xi_sigma(j) = sigma xi_j; coefficients are moved, not recomputed, so the
# tolerance is roundoff: 1e-13 relative to the largest coefficient.
@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("q", [-0.1, 0.1, 0.3])
@pytest.mark.parametrize("N, L", [(2, 4), (3, 3)])
def test_conjugate_variables_are_letter_equivariant(N, L, q):
    ctx = make_context(N, q, L)
    for _, _, U in neumann_series(ctx, 6):
        cvs = [v.data for v in conjugate_variables(U, ctx)]
        tol = 1e-13 * max(np.abs(v).max() for v in cvs)
        for sigma in permutations(range(1, N + 1)):
            perm = letter_relabelling(sigma, ctx)
            for j, v in enumerate(cvs):
                moved = np.empty_like(v)
                moved[perm] = v
                assert np.abs(cvs[sigma[j] - 1] - moved).max() <= tol, (sigma, j)


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("N, q, L", [(2, -0.1, 3), (3, 0.05, 3), (3, -0.1, 3)])
def test_lipschitz_orbits_match_every_dense_top(N, q, L):
    # lipschitz_norms computes one norm per orbit of (j, k) under letter
    # relabelling.  Every member's own dense top (from the recursion's
    # expansion and the prefix/suffix Leibniz loop, independently of the
    # library's change of basis) must agree with its orbit's,
    # and the returned value must sit in the Lanczos window of each.  (At
    # L <= 2 the off-diagonal orbit vanishes in exact arithmetic, so its tops
    # are roundoff and cannot agree relatively.)
    ctx = make_context(N, q, L)
    for n, _, U in islice(neumann_series(ctx, 4), 1, None):
        cvs = conjugate_variables(U, ctx)
        table = lipschitz_norms(cvs)
        tops = [[dense_fdq_top(v, k) for k in range(1, N + 1)] for v in cvs]
        for j in range(N):
            for k in range(N):
                rj, rk = (0, 0) if j == k else (0, 1)
                assert tops[j][k] == pytest.approx(tops[rj][rk], rel=1e-12, abs=0.0), (n, j, k)
                assert table[j][k] == table[rj][rk], (n, j, k)
                top, cell = tops[j][k], table[j][k]
                assert top * (1 - 1e-10) <= cell <= top * (1 + 1e-12), (n, j, k)


# ---- norm equivalences -----------------------------------------------------------------------


def test_equivalence_free_case_all_norms_coincide():
    ctx = make_context(2, 0.0, 4)
    P = NCPoly({(1, 2): 1.0, (2,): 0.5})
    rep = equivalence_check(P, ctx)
    for k in (1, 2):
        r = rep["per_letter"][k]
        assert r["fdq"] == pytest.approx(r["tilde"], rel=1e-12)
        assert r["fdq"] == pytest.approx(r["qcomm"], rel=1e-12)
        assert r["fdq"] == pytest.approx(r["qtrunc"], rel=1e-12)


def test_equivalence_sandwiches_and_hat_residual():
    ctx = make_context(2, 0.3, 4)
    rng = np.random.default_rng(7)
    for _ in range(3):
        P = random_poly(ctx, rng, 3)
        rep = equivalence_check(P, ctx, trunc_q=3)
        for k in (1, 2):
            r = rep["per_letter"][k]
            assert r["hat_vs_tilde_residual"] < 1e-9
            assert r["sandwich_1"] and r["sandwich_2"] and r["sandwich_3"]
            assert all(
                np.isfinite(r[key]) and r[key] >= 0
                for key in ("fdq", "tilde", "qcomm", "qtrunc")
            )


def test_equivalence_sandwiches_above_dense_cap():
    # dim 85: a doubled axis of 7225 entries, all of it matrix-free
    ctx = make_context(4, 0.05, 3)
    assert ctx.dim == 85
    rep = equivalence_check(NCPoly({(1, 2): 1.0, (3, 4, 1): -0.5}), ctx)
    for r in rep["per_letter"].values():
        assert r["sandwich_1"] and r["sandwich_2"] and r["sandwich_3"]
    # at the default cap the norm of Xi is read off its spectral range
    assert rep["norm_xi_trunc"] == doubled_op_norm(xi_as_hs(ctx), ctx, hermitian=True)


def test_equivalence_hat_vs_tilde_negative_q():
    # the doubled action stays PSD at moderate negative q, so the square-root
    # form is still available and matches the doubling form
    ctx = make_context(2, -0.3, 4)
    P = NCPoly({(1, 2, 2): 1.0, (1,): -0.25})
    rep = equivalence_check(P, ctx)
    for k in (1, 2):
        assert rep["per_letter"][k]["hat_vs_tilde_residual"] < 1e-9
    assert rep["norm_xi_trunc"] == doubled_op_norm(xi_as_hs(ctx), ctx, hermitian=True)


def test_q_sqrt_tag_matches_quadratic_form():
    # |T # Xi^(1/2)|^2 = <T, T # Xi>, also at dim 127 (a doubled axis of 16129)
    P = NCPoly({(1, 2): 1.0, (2, 1): -0.5})
    for ctx in (make_context(2, 0.3, 3), make_context(2, 0.1, 6)):
        T = derive(P, 1, FDQ, ctx)
        S = derive(P, 1, Q_SQRT, ctx)
        lhs = hs_norm_of(S, ctx) ** 2
        rhs = hs_inner(T, lr_apply(T, xi_as_hs(ctx), ctx), ctx).real
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_q_truncated_tag_generator_value():
    ctx = make_context(2, 0.3, 4)
    T = derive(NCPoly.x(1), 1, q_truncated(2), ctx)
    assert np.abs(T - xi_as_hs(ctx, 2)).max() < 1e-12


def test_bimodule_form_under_left_multipliers_recorded():
    # the unit-multiplier instance is an asserted identity; general left
    # multipliers are recorded, not asserted (the underlying identity rests on
    # an external argument).  observed: no discrepancy at truncation.
    ctx = make_context(2, 0.3, 5)
    P = NCPoly({(1, 2): 1.0, (2,): 0.5})
    Q = NCPoly({(2, 1): 1.0, (1,): -0.25})
    assert bimodule_form_discrepancy(P, Q, NCPoly.one(), 1, ctx) < 1e-10
    for Rw in [(1,), (2,), (1, 2)]:
        gap = bimodule_form_discrepancy(P, Q, NCPoly.from_word(Rw), 1, ctx)
        print(f"bimodule discrepancy under left multiplier {Rw}: {gap:.3e}")
        assert np.isfinite(gap)


def test_doubling_tag_returns_doubled_vector():
    ctx = make_context(2, 0.3, 4)
    out = derive(NCPoly.from_word((1, 2)), 1, DOUBLING, ctx)
    assert out.ctx.N == 4
    # the word with the first letter sent to its primed copy
    target = out.ctx.global_index((3, 2))
    assert out.data[target] == pytest.approx(1.0)
    assert np.abs(np.delete(out.data, target)).max() < 1e-12


def test_doubling_requires_degree_within_truncation():
    ctx = make_context(2, 0.3, 2)
    with pytest.raises(CapacityError):
        derive(NCPoly({(1, 2, 1): 1.0}), 1, DOUBLING, ctx)


def test_q_truncated_cap_above_truncation_raises():
    ctx = make_context(2, 0.3, 3)
    with pytest.raises(ValueError):
        derive(NCPoly.x(1), 1, q_truncated(ctx.L + 1), ctx)


# ---- relabelling against direct evaluation ----------------------------------------

RELABEL_CONFIGS = [(1, 0.2, 4), (2, 0.1, 5), (2, -0.45, 5), (3, 0.37, 4)]


def relabel_polys(ctx, seed):
    """Random complex polynomials of degree L, each with a top-degree monomial."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        top = tuple(int(x) for x in rng.integers(1, ctx.N + 1, size=ctx.L))
        out.append(random_poly(ctx, rng, ctx.L, n_terms=6) + NCPoly.from_word(top, 1 - 0.5j))
    return out


@pytest.mark.parametrize("N, q, L", RELABEL_CONFIGS)
def test_doubling_by_priming_matches_doubled_alphabet_evaluation(N, q, L):
    ctx = make_context(N, q, L)
    for P in relabel_polys(ctx, 11):
        for j in range(1, N + 1):
            got = derive(P, j, DOUBLING, ctx)
            ref = doubling_by_evaluation(P, j, ctx)
            assert got.ctx.compatible(ref.ctx)
            assert np.linalg.norm(got.data - ref.data) <= 1e-13 * np.linalg.norm(ref.data)


@pytest.mark.parametrize("N, q, L", RELABEL_CONFIGS)
def test_right_mult_by_reversal_matches_right_field_products(N, q, L):
    ctx = make_context(N, q, L)
    for P in relabel_polys(ctx, 12):
        got = poly_right_mult(P, ctx)
        ref = right_mult_by_products(P, ctx)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("N, q, L", RELABEL_CONFIGS)
def test_leibniz_sum_equals_prefix_suffix_loop(N, q, L):
    ctx = make_context(N, q, L)
    for P in relabel_polys(ctx, 13):
        for j in range(1, N + 1):
            got = _fdq_coeffs(P, j, ctx)
            ref = leibniz_by_prefix_suffix(P, j, ctx)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_fdq_of_conjugate_variable_keeps_oracle_zero_pattern():
    # The Lanczos norms trim the doubled space to the coefficient support, so
    # d_k xi_1 must carry exactly the oracle's zeros at every series order
    # (the conjugate-series configuration).
    ctx = make_context(2, 0.05, 4)
    for n, _, U in neumann_series(ctx, 20):
        xi = conjugate_variables(U, ctx)[0]
        P, ref = vector_to_poly(xi), wick_expansion(xi)
        for k in (1, 2):
            got = derive(P, k, FDQ, ctx)
            assert np.array_equal(got == 0, leibniz_by_prefix_suffix(ref, k, ctx) == 0), (n, k)


def test_derivations_suite_holds_only_the_short_stacks():
    # every lr_apply of the suite reads the words of length <= 3 at L = 6,
    # so no plain stack of all 127 words is built; dq_star reads none
    from qfock.cli import _suite_derivations

    ctx = make_context(2, 0.1, 6)
    checks = _suite_derivations(ctx, np.random.default_rng(7))
    assert all(c["passed"] for c in checks)
    stacks = {key: v for key, v in ctx._memo.items() if isinstance(key, tuple) and key[0] == "stack"}
    assert sorted(stacks) == [("stack", "L", 3), ("stack", "R", 3)]
    assert all(S.shape == (15, 127, 127) for S in stacks.values())
