import numpy as np
import pytest

from qfock import GradedVector, make_context, q_inner
from qfock.deformation import (
    HSElement,
    doubled_op_norm,
    hs_inner,
    hs_mult,
    hs_norm_of,
    unit_hs,
    xi_as_hs,
)
from qfock.derivations import (
    DOUBLING,
    FDQ,
    NCPoly,
    Q_COMMUTATOR,
    Q_SQRT,
    commutator_check,
    conjugate_variable,
    derive,
    dq_star,
    equivalence_check,
    fisher_estimate,
    lipschitz_diagnostic,
    number_check,
    partial_tau,
    poly_left_mult,
    poly_right_mult,
    poly_vector,
    q_truncated,
    real_structure,
    vector_to_poly,
    wick_poly,
)
from qfock.errors import AlphabetError, CapacityError
from qfock.operators import right_annihilation


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
    return HSElement(ctx, C)


# ---- polynomials ------------------------------------------------------------------


def test_wick_poly_examples():
    ctx = make_context(2, 0.3, 4)
    assert wick_poly((1,), ctx).terms == {(1,): 1.0}
    p = wick_poly((1, 1), ctx)
    assert p.terms == {(1, 1): 1.0, (): -1.0}


def test_wick_poly_vacuum_roundtrip():
    ctx = make_context(2, -0.4, 4)
    for w in [(1,), (2, 1), (1, 1, 2), (2, 2, 1, 1)]:
        v = poly_vector(wick_poly(w, ctx), ctx)
        assert np.abs(v.data - GradedVector.from_word(ctx, w).data).max() < 1e-12


def test_vector_to_poly_roundtrip():
    ctx = make_context(2, 0.35, 4)
    rng = np.random.default_rng(0)
    v = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
    P = vector_to_poly(v)
    back = poly_vector(P, ctx)
    assert np.abs(back.data - v.data).max() < 1e-10


def test_poly_star_reverses_words():
    P = NCPoly({(1, 2): 1.0 + 2.0j})
    assert P.star().terms == {(2, 1): 1.0 - 2.0j}


def test_poly_degree_cap():
    ctx = make_context(2, 0.3, 3)
    with pytest.raises(CapacityError):
        poly_vector(NCPoly.from_word((1, 1, 1, 1)), ctx)


# ---- generator values ----------------------------------------------------------------


def test_fdq_on_generators():
    ctx = make_context(2, 0.3, 4)
    for i in (1, 2):
        for j in (1, 2):
            T = derive(NCPoly.x(i), j, FDQ, ctx)
            expected = unit_hs(ctx).coeffs if i == j else 0.0
            assert np.abs(T.coeffs - expected).max() < 1e-14


def test_qcommutator_on_generators():
    ctx = make_context(2, 0.3, 4)
    for i in (1, 2):
        for j in (1, 2):
            T = derive(NCPoly.x(i), j, Q_COMMUTATOR, ctx)
            expected = xi_as_hs(ctx).coeffs if i == j else 0.0
            assert np.abs(T.coeffs - expected).max() < 1e-12


def test_fdq_leibniz_two_letter():
    ctx = make_context(2, 0.3, 4)
    T = derive(NCPoly.from_word((1, 2)), 1, FDQ, ctx)
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[0, ctx.global_index((2,))] = 1.0
    assert np.abs(T.coeffs - expected).max() < 1e-14


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
        lhs = derive(P * Q, 1, FDQ, ctx).coeffs
        rhs = (
            poly_left_mult(P, ctx) @ derive(Q, 1, FDQ, ctx).coeffs
            + derive(P, 1, FDQ, ctx).coeffs @ poly_right_mult(Q, ctx).T
        )
        assert np.abs(lhs - rhs).max() < 1e-10


def test_real_structure_property():
    ctx = make_context(2, 0.3, 5)
    rng = np.random.default_rng(2)
    for tag in (FDQ, Q_COMMUTATOR):
        P = random_poly(ctx, rng, 3)
        lhs = derive(P.star(), 1, tag, ctx).coeffs
        rhs = real_structure(derive(P, 1, tag, ctx)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10


def test_q_to_zero_continuity():
    ctx_eps = make_context(2, 1e-8, 4)
    ctx_0 = make_context(2, 0.0, 4)
    P = NCPoly({(1, 2, 1): 1.0, (2,): -0.5})
    for tag in (FDQ, Q_COMMUTATOR):
        a = derive(P, 1, tag, ctx_eps).coeffs
        b = derive(P, 1, tag, ctx_0).coeffs
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
            rhs = right_annihilation(j, ctx).apply(poly_vector(P, ctx))
            assert np.abs(lhs.data - rhs.data).max() < 1e-10


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


def test_adjoint_duality_random():
    ctx = make_context(2, 0.35, 6)
    rng = np.random.default_rng(6)
    for trial in range(8):
        T = random_hs(ctx, rng, leg_cap=2)
        P = random_poly(ctx, rng, 3)
        j = 1 + trial % 2
        lhs = q_inner(dq_star(T, j, ctx), poly_vector(P, ctx), ctx)
        rhs = hs_inner(T, derive(P, j, Q_COMMUTATOR, ctx))
        assert abs(lhs - rhs) < 1e-9


# ---- conjugate variables --------------------------------------------------------------------


def test_conjugate_variable_free_case():
    ctx = make_context(2, 0.0, 5)
    for j in (1, 2):
        v = conjugate_variable(j, 6, ctx)
        assert np.abs(v.data - GradedVector.from_word(ctx, (j,)).data).max() < 1e-12


def test_conjugate_variable_series_monitoring():
    ctx = make_context(2, 0.05, 4)
    v, norms = conjugate_variable(1, 6, ctx, series=True)
    assert len(norms) == 7
    # geometric stabilization of the norm sequence
    assert abs(norms[-1] - norms[-2]) < 1e-4 * norms[-1]


def test_conjugate_variable_rejects_bad_letter():
    ctx = make_context(2, 0.0, 4)
    with pytest.raises(AlphabetError):
        conjugate_variable(3, 4, ctx)


def test_fisher_free_case():
    assert fisher_estimate(4, make_context(2, 0.0, 4)) == pytest.approx(2.0)
    assert fisher_estimate(4, make_context(1, 0.0, 4)) == pytest.approx(1.0)


def test_lipschitz_free_case():
    ctx = make_context(2, 0.0, 4)
    rep = lipschitz_diagnostic(1, 1, 3, ctx)
    assert rep["lr_op_norm"] == pytest.approx(1.0, abs=1e-10)
    assert rep["l2_norm"] == pytest.approx(1.0, abs=1e-10)
    rep = lipschitz_diagnostic(1, 2, 3, ctx)
    assert rep["l2_norm"] < 1e-12


def test_lipschitz_norms_nonnegative_and_bounded():
    ctx = make_context(2, 0.05, 4)
    vals = [lipschitz_diagnostic(1, 1, n, ctx)["lr_op_norm"] for n in (2, 4, 6)]
    assert all(v >= 0 for v in vals)
    assert max(vals) - min(vals) < 0.1  # uniformly bounded in series order


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
    # dim 85: the spectral range runs matrix-free past the dense doubled cap
    ctx = make_context(4, 0.05, 3)
    assert ctx.dim == 85
    rep = equivalence_check(NCPoly({(1, 2): 1.0, (3, 4, 1): -0.5}), ctx)
    for r in rep["per_letter"].values():
        assert r["sandwich_1"] and r["sandwich_2"] and r["sandwich_3"]
    # at the default cap the norm of Xi is read off its spectral range
    assert rep["norm_xi_trunc"] == doubled_op_norm(xi_as_hs(ctx), hermitian=True)


def test_equivalence_hat_vs_tilde_negative_q():
    # the doubled action stays PSD at moderate negative q, so the square-root
    # form is still available and matches the doubling form
    ctx = make_context(2, -0.3, 4)
    P = NCPoly({(1, 2, 2): 1.0, (1,): -0.25})
    rep = equivalence_check(P, ctx)
    for k in (1, 2):
        assert rep["per_letter"][k]["hat_vs_tilde_residual"] < 1e-9
    assert rep["norm_xi_trunc"] == doubled_op_norm(xi_as_hs(ctx), hermitian=True)


def test_q_sqrt_tag_matches_quadratic_form():
    ctx = make_context(2, 0.3, 3)
    P = NCPoly({(1, 2): 1.0, (2, 1): -0.5})
    T = derive(P, 1, FDQ, ctx)
    S = derive(P, 1, Q_SQRT, ctx)
    lhs = hs_norm_of(S) ** 2
    rhs = hs_inner(T, hs_mult(T, xi_as_hs(ctx))).real
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_q_truncated_tag_generator_value():
    ctx = make_context(2, 0.3, 4)
    T = derive(NCPoly.x(1), 1, q_truncated(2), ctx)
    assert np.abs(T.coeffs - xi_as_hs(ctx, 2).coeffs).max() < 1e-12


def test_bimodule_form_under_left_multipliers_recorded():
    # the unit-multiplier instance is an asserted identity; general left
    # multipliers are recorded, not asserted (the underlying identity rests on
    # an external argument).  observed: no discrepancy at truncation.
    from qfock.derivations import bimodule_form_discrepancy

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
