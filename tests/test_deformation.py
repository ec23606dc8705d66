import math
from itertools import permutations

import numpy as np
import pytest

from qfock import GradedVector, constants, make_context
from qfock.deformation import (
    NeumannResult,
    doubled_op_norm,
    hs_inner,
    hs_norm_of,
    lr_apply,
    multiplier_of,
    neumann_series,
    unit_hs,
    xi_as_hs,
    xi_inverse_neumann,
    xi_multiplier,
)
from qfock.errors import NonConvergenceWarning, SquareRootUnavailableError
from qfock.fock import metric, q_inner
from qfock.operators import c_q, gaussian, left_wick_stack, right_wick_stack

from dense_oracle import (
    dense_action,
    dense_sym_action,
    dense_sym_stacks,
    dense_top,
    dense_xi_sqrt_right,
    eigh_extreme_eig,
    hs_norm,
    letter_relabelling,
    lr_action,
)


def test_xi_multiplier_free_case_is_vacuum_projection():
    ctx = make_context(2, 0.0, 3)
    M = xi_multiplier(ctx)
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[0, 0] = 1.0
    assert np.array_equal(M, expected)


def test_xi_multiplier_scales_levels():
    q = 0.35
    ctx = make_context(2, q, 4)
    for n in range(5):
        w = (1,) * n if n else ()
        v = GradedVector.from_word(ctx, w)
        out = xi_multiplier(ctx) @ v.data
        assert np.allclose(out, q**n * v.data)


def test_xi_multiplier_level_cap():
    q = 0.35
    ctx = make_context(2, q, 4)
    out = xi_multiplier(ctx, Q=2) @ GradedVector.from_word(ctx, (1, 1, 1)).data
    assert np.abs(out).max() == 0.0


def test_xi_multiplier_hs_norm():
    q, N = 0.35, 2
    ctx = make_context(N, q, 4)
    for Q in (2, 4):
        expected = math.sqrt(sum(q ** (2 * n) * N**n for n in range(Q + 1)))
        assert hs_norm(xi_multiplier(ctx, Q), ctx) == pytest.approx(expected, rel=1e-12)


def test_xi_as_hs_level_zero_is_unit():
    ctx = make_context(2, 0.35, 3)
    T = xi_as_hs(ctx, Q=0)
    assert np.abs(T - unit_hs(ctx)).max() == 0.0


def test_xi_as_hs_orthonormal_coefficient_scalar_alphabet():
    q = 0.4
    ctx = make_context(1, q, 3)
    T = xi_as_hs(ctx, Q=2)
    # move to the orthonormal-basis coordinates at level 2 (reversal trivial)
    i = ctx.global_index((1, 1))
    ghalf = math.sqrt(1 + q)
    coeff_p_basis = ghalf * T[i, i] * ghalf
    assert coeff_p_basis == pytest.approx(q**2, abs=1e-12)


def test_multiplier_of_xi_as_hs_roundtrip():
    for q in (-0.4, 0.0, 0.5):
        ctx = make_context(2, q, 4)
        M = multiplier_of(xi_as_hs(ctx), ctx)
        assert np.abs(M - xi_multiplier(ctx)).max() < 1e-12


def test_multiplier_of_roundtrip_with_level_cap():
    ctx = make_context(2, 0.45, 4)
    for Q in (0, 1, 2, 3):
        M = multiplier_of(xi_as_hs(ctx, Q), ctx)
        assert np.abs(M - xi_multiplier(ctx, Q)).max() < 1e-12


def test_xi_as_hs_contracts_like_multiplier():
    ctx = make_context(2, 0.45, 4)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    got = multiplier_of(xi_as_hs(ctx), ctx) @ v
    expected = xi_multiplier(ctx) @ v
    assert np.abs(got - expected).max() < 1e-10


def test_hs_element_dtype_rule():
    # the producers of tensor-square elements give plain contiguous float64
    # arrays for real data (a real polynomial's derivative included) and
    # complex128 otherwise
    from qfock.derivations import FDQ, NCPoly, derive

    ctx = make_context(2, 0.3, 2)
    cases = [
        (unit_hs(ctx), np.float64),
        (xi_as_hs(ctx), np.float64),
        (derive(NCPoly({(1, 2): 1.0, (1,): 0.5}), 1, FDQ, ctx), np.float64),
        (derive(NCPoly({(1, 2): 1 + 1j, (1,): 0.5}), 1, FDQ, ctx), np.complex128),
    ]
    for C, dtype in cases:
        assert type(C) is np.ndarray
        assert C.dtype == dtype
        assert C.flags.c_contiguous
    # integer and float32 coefficients compute in float64, bit for bit as
    # their float64 copies; the Lanczos vectors of the norms are float64
    # whatever the input dtype
    d = ctx.dim
    V = np.random.default_rng(3).standard_normal((d, d))
    for C in (np.arange(d * d).reshape(d, d), np.arange(d * d, dtype=np.float32).reshape(d, d) / 8):
        ref = C.astype(np.float64)
        out = lr_apply(C, V, ctx)
        assert out.dtype == np.float64
        assert np.array_equal(out, lr_apply(ref, V, ctx))
        for hermitian in (False, True):
            norm = doubled_op_norm(C, ctx, hermitian)
            assert norm > 0.0
            assert norm == doubled_op_norm(ref, ctx, hermitian)


def test_hs_element_rejects_wrong_shape():
    from qfock.derivations import conjugate_variables, dq_star, real_structure

    ctx = make_context(2, 0.3, 2)
    d = ctx.dim
    V = np.zeros((d, d))
    # a wrong width, and the element of a context of another dim
    for C in (np.zeros((d, d + 1)), xi_as_hs(make_context(2, 0.3, 3))):
        calls = [
            lambda: lr_apply(C, V, ctx),
            lambda: doubled_op_norm(C, ctx),
            lambda: multiplier_of(C, ctx),
            lambda: hs_inner(C, V, ctx),
            lambda: hs_inner(V, C, ctx),
            lambda: hs_norm_of(C, ctx),
            lambda: real_structure(C, ctx),
            lambda: dq_star(C, 1, ctx),
            lambda: conjugate_variables(C, ctx),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="does not match context dim"):
                call()


# ---- doubled-space actions -----------------------------------------------------


def test_lr_action_of_unit_is_identity():
    ctx = make_context(2, 0.3, 2)
    M = lr_action(unit_hs(ctx), ctx)
    assert np.allclose(M, np.eye(ctx.dim**2), atol=1e-12)


def test_lr_action_single_tensor_factor():
    ctx = make_context(2, 0.3, 2)
    C = np.zeros((ctx.dim, ctx.dim))
    C[ctx.global_index((1,)), 0] = 1.0  # X_1 (x) 1
    M = lr_action(C, ctx)
    expected = np.kron(gaussian(1, ctx), np.eye(ctx.dim))
    assert np.allclose(M, expected, atol=1e-12)


def test_lr_action_right_factor_is_right_multiplication():
    from qfock.operators import right_wick_stack

    ctx = make_context(2, 0.3, 2)
    C = np.zeros((ctx.dim, ctx.dim))
    C[0, ctx.global_index((2,))] = 1.0  # 1 (x) X_2
    M = lr_action(C, ctx)
    expected = np.kron(np.eye(ctx.dim), right_wick_stack(ctx)[ctx.global_index((2,))])
    assert np.allclose(M, expected, atol=1e-12)


def _whole(ctx):
    # the blocks of all sectors of the doubled space, one after the other
    from qfock.deformation import _basis_split
    from qfock.operators import _sectors

    return [b for s in _sectors(len(_basis_split(ctx))) for b in s]


def _natural_action(ctx, C):
    # the kernel over the whole doubled space, on vectors in the natural
    # (dim, dim) order of the dense oracle
    from qfock.deformation import _gather, _scatter, _sym_action

    d, whole = ctx.dim, _whole(ctx)
    apply = _sym_action(ctx, C, whole, whole)

    def natural(v):
        out = np.zeros((d, d), dtype=np.result_type(v, C))
        _scatter(ctx, whole, apply(_gather(ctx, whole, v.reshape(d, d))), out)
        return out.reshape(-1)

    return natural


def _supported_coeffs(ctx, support):
    # coefficients whose nonzero rows and columns span a prefix, a suffix, an
    # interior band, everything, or nothing of the word-operator basis
    from qfock.derivations import FDQ, NCPoly, derive

    if support == "prefix":
        P = NCPoly({(1, 2, 1): 1.0, (2, 2): -0.5, (1,): 0.25})
        return derive(P, 1, FDQ, ctx)
    if support == "suffix":
        return xi_as_hs(ctx) - xi_as_hs(ctx, ctx.L - 1)
    if support == "interior":
        # rows on level 2, columns on levels 1..2
        C = np.zeros((ctx.dim, ctx.dim))
        band = C[ctx.level_slice(2), ctx.level_offset(1) : ctx.level_offset(3)]
        band[:] = np.random.default_rng(5).standard_normal(band.shape)
        return C
    if support == "full":
        return xi_as_hs(ctx)
    return np.zeros((ctx.dim, ctx.dim))


@pytest.mark.parametrize("support", ["prefix", "suffix", "interior", "full", "empty"])
@pytest.mark.parametrize("N,q,L", [(2, 0.1, 4), (3, 0.1, 3)])
@pytest.mark.parametrize("cplx", [False, True])
def test_trimmed_actions_match_dense_oracle(N, q, L, support, cplx):
    from qfock.deformation import _rev_perm
    from qfock.operators import left_wick_stack, right_wick_stack

    ctx = make_context(N, q, L)
    d = ctx.dim
    rng = np.random.default_rng(7)
    V = rng.standard_normal((d, d))
    if cplx:
        V = V + 1j * rng.standard_normal((d, d))
    C = _supported_coeffs(ctx, support)
    A, B = left_wick_stack(ctx), right_wick_stack(ctx)
    out = lr_apply(C, V, ctx)
    assert out.shape == (d, d)
    if support == "empty":
        assert np.array_equal(out, np.zeros((d, d)))
    else:
        expected = (dense_action(A, B, C) @ V.reshape(-1)).reshape(d, d)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
    if support == "full":
        # full support contracts exactly the untrimmed stacks: W_u = sum_v
        # C[u,v] B_v, one batched matmul, then one GEMM against the left
        # stack laid out as A_cat[i, u*d + k] = A_u[i, k]; a complex V goes
        # through as its real and imaginary parts
        W = np.tensordot(C, B, axes=(1, 0))
        A_cat = A.transpose(1, 0, 2).reshape(d, -1)

        def untrimmed(V):
            return A_cat @ np.matmul(V[None, :, :], W.transpose(0, 2, 1)).reshape(-1, d)

        expected = untrimmed(V.real) + 1j * untrimmed(V.imag) if cplx else untrimmed(V)
        assert np.array_equal(out, expected)
    # the block action in metric-orthonormal coordinates, for real and
    # complex coefficients on the same support; it comes with the words of
    # its second leg reversed, V -> (M (V P)) P for the true action M
    rev = _rev_perm(ctx)
    for coeffs in (C, C * (1 + 1j * rng.standard_normal(C.shape))):
        out = _natural_action(ctx, coeffs)(V.reshape(-1))
        expected = dense_sym_action(ctx, coeffs) @ V[:, rev].reshape(-1)
        expected = expected.reshape(d, d)[:, rev].reshape(-1)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


# one basis class at dim 31, the parity classes at dim 40
@pytest.mark.parametrize("N,q,L", [(2, 0.1, 4), (3, 0.1, 3)])
def test_complex_data_enters_the_actions_by_parts(N, q, L):
    # both doubled-space actions compute in real arithmetic only: a complex
    # C or V is bit for bit the combination of the calls on its real and
    # imaginary parts, C first
    from qfock.deformation import _sym_action

    ctx = make_context(N, q, L)
    d, whole = ctx.dim, _whole(ctx)
    Cr, Ci, Vr, Vi = np.random.default_rng(11).standard_normal((4, d, d))

    def plain(C, V):
        return lr_apply(C, V, ctx)

    def sandwiched(C, V):
        return _sym_action(ctx, C, whole, whole)(V.reshape(-1))

    for f in (plain, sandwiched):
        assert np.array_equal(f(Cr + 1j * Ci, Vr), f(Cr, Vr) + 1j * f(Ci, Vr))
        assert np.array_equal(f(Cr, Vr + 1j * Vi), f(Cr, Vr) + 1j * f(Cr, Vi))
        both = (f(Cr, Vr) + 1j * f(Cr, Vi)) + 1j * (f(Ci, Vr) + 1j * f(Ci, Vi))
        assert np.array_equal(f(Cr + 1j * Ci, Vr + 1j * Vi), both)


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("N,q,L", [(2, 0.05, 4), (3, 0.1, 3)])
def test_even_elements_keep_each_parity_sector(N, q, L):
    # Xi, the partial sum U_6, its residual Xi # U_6 - 1, d_1 xi_1, d_2 xi_1
    # and the tail Xi - Xi_2 have words of even total length only: their
    # dense action sends each parity sector of the doubled space (level
    # parities of both legs equal, or different) into itself with exactly 0
    # leaking out, so the norms run one Lanczos per sector
    from qfock.deformation import _basis_split, _runs
    from qfock.derivations import FDQ, conjugate_variables, derive, vector_to_poly
    from qfock.operators import _sectors

    ctx = make_context(N, q, L)
    xi = xi_as_hs(ctx)
    *_, (_, _, U) = neumann_series(ctx, 6)
    H = lr_apply(xi, U, ctx)
    H[0, 0] -= 1.0
    P = vector_to_poly(conjugate_variables(U, ctx)[0])
    elements = [
        xi,
        U,
        H,
        derive(P, 1, FDQ, ctx),
        derive(P, 2, FDQ, ctx),
        xi - xi_as_hs(ctx, 2),
    ]
    level = np.repeat(np.arange(L + 1), ctx.level_dims)
    sector = ((level[:, None] + level[None, :]) % 2).reshape(-1)
    for C in elements:
        M = dense_sym_action(ctx, C)
        for s in (0, 1):
            assert M[np.ix_(sector == s, sector == s)].any()
            assert not M[np.ix_(sector != s, sector == s)].any()
        for normal in (False, True):
            assert _runs(ctx, C, normal) == [(b, b) for b in _sectors(len(_basis_split(ctx)))]


@pytest.mark.parametrize("N,q,L", [(2, 0.05, 4), (3, 0.05, 3)])
def test_command_coefficients_are_real(N, q, L):
    # the partial sums U_n, the residual elements Xi # U_n - 1 and the
    # difference quotients d_k xi_1 that conjugate and verify take norms of
    # are stored as float64, so those norms never take the complex entry of
    # the doubled-space actions
    from qfock.derivations import FDQ, conjugate_variables, derive, vector_to_poly

    ctx = make_context(N, q, L)
    xi = xi_as_hs(ctx)
    for n, _, U in neumann_series(ctx, 8):
        H = lr_apply(xi, U, ctx)
        H[0, 0] -= 1.0
        P = vector_to_poly(conjugate_variables(U, ctx)[0])
        derived = [derive(P, k, FDQ, ctx) for k in (1, 2)]
        assert all(C.dtype == np.float64 for C in [U, H, *derived]), n


def test_runs_follow_the_parity_of_the_element():
    # an element of odd total word length swaps the two sectors: its normal
    # operator keeps each, its symmetrized action keeps neither; a mixed
    # element takes one run over both sectors either way
    from qfock.deformation import _runs
    from qfock.derivations import FDQ, NCPoly, derive
    from qfock.operators import _sectors

    ctx = make_context(3, 0.1, 3)
    s0, s1 = _sectors(2)
    assert (s0, s1) == ([(0, 0), (1, 1)], [(0, 1), (1, 0)])
    odd = derive(NCPoly({(1, 2): 1.0}), 1, FDQ, ctx)
    mixed = derive(NCPoly({(1, 2): 1 + 1j, (1,): 0.5}), 1, FDQ, ctx)
    assert _runs(ctx, odd, normal=True) == [(s0, s1), (s1, s0)]
    for C, normal in [(odd, False), (mixed, False), (mixed, True)]:
        assert _runs(ctx, C, normal) == [(s0 + s1, s0 + s1)]


def test_sym_action_holds_no_reference_cycle():
    # each norm builds a dim**3 weighted stack; a cycle through the action's
    # closure would keep every one alive until the cyclic collector runs
    import gc

    from qfock.deformation import _sym_action

    # one basis class at dim 15, the parity classes at dim 40
    contexts = [make_context(2, 0.1, 3), make_context(3, 0.1, 3)]
    gc.collect()
    gc.disable()
    try:
        for ctx in contexts:
            d = ctx.dim
            for C in (xi_as_hs(ctx), xi_as_hs(ctx) * 1j):
                apply = _sym_action(ctx, C, _whole(ctx), _whole(ctx))
                apply(np.ones(d * d) + 1j)
                del apply
                assert gc.collect() == 0
    finally:
        gc.enable()


def test_lr_apply_matches_symbolic_product():
    # (X_1 (x) 1) # (1 (x) X_2) = X_1 (x) X_2
    ctx = make_context(2, 0.3, 3)
    A = np.zeros((ctx.dim, ctx.dim))
    A[ctx.global_index((1,)), 0] = 1.0
    B = np.zeros((ctx.dim, ctx.dim))
    B[0, ctx.global_index((2,))] = 1.0
    prod = lr_apply(A, B, ctx)
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[ctx.global_index((1,)), ctx.global_index((2,))] = 1.0
    assert np.abs(prod - expected).max() < 1e-12


def test_hs_inner_word_factorization():
    ctx = make_context(2, 0.3, 3)
    A = np.zeros((ctx.dim, ctx.dim))
    A[ctx.global_index((1, 2)), ctx.global_index((2,))] = 1.0
    B = np.zeros((ctx.dim, ctx.dim))
    B[ctx.global_index((2, 1)), ctx.global_index((2,))] = 1.0
    got = hs_inner(A, B, ctx)
    u1 = GradedVector.from_word(ctx, (1, 2))
    u2 = GradedVector.from_word(ctx, (2, 1))
    v = GradedVector.from_word(ctx, (2,))
    expected = q_inner(u1, u2, ctx) * q_inner(v, v, ctx)
    assert got == pytest.approx(expected, abs=1e-12)


# ---- constants -------------------------------------------------------------------


def test_constants_free_case_exact():
    rep = constants(0.0, 7)
    assert (rep.c_q, rep.nu, rep.rho) == (1.0, 0.0, 0.0)
    assert rep.nu_lt_1 and rep.rho_lt_1


@pytest.mark.parametrize("N", range(2, 11))
def test_constants_thresholds(N):
    assert constants(0.13 / N, N).nu_lt_1
    assert constants(0.13 / math.sqrt(N), N).rho_lt_1


def test_constants_pole_reported_as_inf():
    rep = constants(0.6, 2)
    assert math.isinf(rep.nu)
    assert not rep.nu_lt_1


# ---- Neumann series ---------------------------------------------------------------


def test_neumann_free_case_is_exact():
    ctx = make_context(2, 0.0, 4)
    res = xi_inverse_neumann(ctx, 5)
    assert np.abs(res.element - unit_hs(ctx)).max() == 0.0
    assert max(res.residuals) < 1e-14


def test_neumann_two_term_partial_sum():
    ctx = make_context(2, 0.05, 3)
    res = xi_inverse_neumann(ctx, 1)
    expected = 2.0 * unit_hs(ctx) - xi_as_hs(ctx)
    assert np.abs(res.element - expected).max() < 1e-12


def test_neumann_residual_decay():
    ctx = make_context(2, 0.05, 4)
    res = xi_inverse_neumann(ctx, 8)
    for a, b in zip(res.residuals, res.residuals[1:]):
        assert b < a
    assert isinstance(res, NeumannResult)


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("N, q, L", [(2, 0.05, 4), (2, -0.3, 4), (3, 0.1, 3)])
def test_neumann_residual_element_is_next_term(N, q, L):
    # Xi # U_n - 1 = (-1)^n D^(n+1) with D = Xi - 1.  neumann_residual still
    # forms the product: the telescoped form agrees only to rounding, and the
    # recorded benchmark residuals come from the product.
    ctx = make_context(N, q, L)
    steps = list(neumann_series(ctx, 10))
    for (n, _, U), (_, nxt, _) in zip(steps, steps[1:]):
        H = lr_apply(xi_as_hs(ctx), U, ctx)
        H[0, 0] -= 1.0
        assert np.abs(H - (-1) ** n * nxt).max() <= 1e-13


def test_neumann_warns_outside_guarantee():
    ctx = make_context(2, 0.75, 3)
    with pytest.warns(NonConvergenceWarning):
        xi_inverse_neumann(ctx, 2)


# Relabelling the letters leaves every Gram block unchanged, so it is a
# unitary of the truncated space that fixes Xi, and with it every power of
# D = Xi - 1 and every partial sum.  The coefficients are moved, not
# recomputed, so only the roundoff of the series products separates them:
# tolerance 1e-13 relative to the largest coefficient.
@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("q", [-0.1, 0.1, 0.3])
@pytest.mark.parametrize("N, L", [(2, 4), (3, 3)])
def test_xi_and_partial_sums_are_letter_invariant(N, L, q):
    ctx = make_context(N, q, L)
    elements = [xi_as_hs(ctx)] + [U for _, _, U in neumann_series(ctx, 6)]
    for sigma in permutations(range(1, N + 1)):
        perm = letter_relabelling(sigma, ctx)
        for C in elements:
            assert np.abs(C[np.ix_(perm, perm)] - C).max() <= 1e-13 * np.abs(C).max(), sigma


# ---- norms, positivity, square roots ------------------------------------------------


def test_doubled_op_norm_of_unit():
    ctx = make_context(2, 0.3, 2)
    assert doubled_op_norm(unit_hs(ctx), ctx) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("hermitian", [False, True])
def test_doubled_op_norm_of_unit_at_level_zero(hermitian):
    # dim 1: the doubled space is the one block of the trivial grading
    ctx = make_context(2, 0.3, 0)
    assert doubled_op_norm(unit_hs(ctx), ctx, hermitian=hermitian) == 1.0


@pytest.mark.parametrize(
    "kind",
    [
        "real",
        "complex",
        "hermitian",
        "top",
        "hermitian-complex",
        "odd",
        "odd-complex",
        "odd-hermitian",
    ],
)
@pytest.mark.parametrize("N,q,L", [(2, 0.3, 3), (2, -0.3, 4), (3, 0.1, 3), (2, 0.1, 5)])
def test_doubled_op_norm_matches_dense_svd(N, q, L, kind):
    # levels 0..2 on both legs mix both parities of the total word length;
    # the top level alone keeps each parity sector of the doubled space, and
    # an "odd" element (odd total length only) swaps the two sectors
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(3)
    cut = ctx.level_offset(3)
    cplx = kind.endswith("complex")
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex if cplx else float)
    if kind == "top":
        # supported on the top level only: the action skips every lower word
        top = ctx.level_slice(L)
        C[top, top] = rng.standard_normal((ctx.N**L, ctx.N**L))
    else:
        C[:cut, :cut] = rng.standard_normal((cut, cut))
    if cplx:
        C[:cut, :cut] += 1j * rng.standard_normal((cut, cut))
    if kind.startswith("odd"):
        level = np.repeat(np.arange(L + 1), ctx.level_dims)
        C[(level[:, None] + level[None, :]) % 2 == 0] = 0
    hermitian = "hermitian" in kind
    expected = dense_top(dense_sym_action(ctx, C), hermitian)
    assert doubled_op_norm(C, ctx, hermitian=hermitian) == pytest.approx(expected, rel=1e-9)


def _letter_symmetric_element(ctx, kind):
    xi = xi_as_hs(ctx)
    if kind == "xi-1":
        return xi - unit_hs(ctx)
    if kind == "tail":
        return xi - xi_as_hs(ctx, 2)
    *_, (_, _, U) = neumann_series(ctx, 3)
    H = lr_apply(xi, U, ctx)
    H[0, 0] -= 1.0
    return H


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("kind", ["xi-1", "tail", "residual"])
@pytest.mark.parametrize("N,q,L", [(2, 0.05, 4), (2, -0.3, 4)])
def test_hermitian_norm_of_letter_symmetric_elements(N, q, L, kind):
    # elements invariant under letter relabelling and word reversal: a start
    # vector confined to that symmetric sector would be blind outside it
    ctx = make_context(N, q, L)
    T = _letter_symmetric_element(ctx, kind)
    expected = dense_top(dense_sym_action(ctx, T), hermitian=True)
    assert doubled_op_norm(T, ctx, hermitian=True) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("N,q,L", [(2, 0.3, 4), (2, -0.4, 4), (3, 0.1, 3), (6, 0.05, 2)])
def test_xi_spectral_range_matches_dense(N, q, L):
    from qfock.deformation import _xi_spectral_range

    ctx = make_context(N, q, L)
    S = dense_sym_action(ctx, xi_as_hs(ctx))
    w = np.linalg.eigvalsh((S + S.conj().T) / 2)
    lo, hi = _xi_spectral_range(ctx)
    assert lo == pytest.approx(w[0], rel=1e-9)
    assert hi == pytest.approx(w[-1], rel=1e-9)


# ---- the Lanczos solver against a dense eigvalsh oracle ---------------------------


def _eig_oracle(M: np.ndarray, which: str) -> float:
    w = np.linalg.eigvalsh(M)
    return float({"LA": w[-1], "SA": w[0], "LM": w[np.abs(w).argmax()]}[which])


def _counted(matvec):
    calls = []

    def apply(v):
        calls.append(None)
        return matvec(v)

    return apply, calls


def _sym_part(ctx, C):
    # coefficients of (T + T*) / 2 and the dense matrix of their action
    from qfock.deformation import _star

    Cs = (C + _star(ctx, C)) / 2
    S = dense_sym_action(ctx, Cs)
    return Cs, (S + S.conj().T) / 2


@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
@pytest.mark.parametrize(
    "N,q,L", [(2, 0.3, 1), (3, 0.2, 1), (4, -0.2, 1), (2, 0.3, 2), (2, -0.4, 2), (10, 0.05, 1)]
)
def test_extreme_eig_small_doubled_spaces(N, q, L, which):
    # doubled axes of at most 128 entries, once served by a dense
    # eigendecomposition: the deformation operator and a random element
    from qfock.deformation import _extreme_eig, _start, _sym_action

    ctx = make_context(N, q, L)
    assert ctx.dim**2 <= 128
    rng = np.random.default_rng(11)
    whole = _whole(ctx)
    for C in (xi_as_hs(ctx), rng.standard_normal((ctx.dim, ctx.dim))):
        Cs, M = _sym_part(ctx, C)
        got = _extreme_eig(_sym_action(ctx, Cs, whole, whole), _start(ctx, whole), float, which)
        assert got == pytest.approx(_eig_oracle(M, which), rel=1e-12, abs=0)


def test_extreme_eig_free_case_breaks_down_early():
    # at q = 0 the deformation operator is the vacuum projection P; the
    # doubled action V -> P V P has rank one, so the Krylov space of any start
    # vector is exhausted after two steps.  SA = 0 lies below the floor
    # 1e-11 * eps**(2/3) of the convergence rule, so only that exhaustion can
    # end the run
    from qfock.deformation import _extreme_eig, _start, _sym_action, _xi_spectral_range

    ctx = make_context(2, 0.0, 4)
    d, whole = ctx.dim, _whole(ctx)
    assert whole == [(0, 0)]  # one basis class: the natural order of P V P
    P = xi_multiplier(ctx)
    M = np.kron(P, P)
    for which in ("SA", "LA", "LM"):
        matvec, calls = _counted(lambda v: (P @ v.reshape(d, d) @ P).reshape(-1))
        got = _extreme_eig(matvec, _start(ctx, whole), float, which)
        assert got == pytest.approx(_eig_oracle(M, which), rel=1e-12, abs=1e-15)
        assert len(calls) == 2
    # as a tensor-square element it is the unit, whose action is the identity
    matvec, calls = _counted(_sym_action(ctx, xi_as_hs(ctx), whole, whole))
    got = _extreme_eig(matvec, _start(ctx, whole), float, "SA")
    assert got == pytest.approx(1.0, rel=1e-12, abs=0)
    assert len(calls) == 1
    assert _xi_spectral_range(ctx) == pytest.approx((1.0, 1.0), rel=1e-12, abs=0)


@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_extreme_eig_negative_q_near_equal_ends(which):
    # Xi - 1 at small q < 0: the two ends of the spectrum have nearly equal
    # modulus, so LM must pick the right end
    from qfock.deformation import _extreme_eig, _start, _sym_action

    ctx = make_context(2, -0.002, 4)
    Cs, M = _sym_part(ctx, xi_as_hs(ctx) - unit_hs(ctx))
    w = np.linalg.eigvalsh(M)
    assert w[0] < 0 < w[-1] and 0.95 < -w[0] / w[-1] < 1
    whole = _whole(ctx)
    got = _extreme_eig(_sym_action(ctx, Cs, whole, whole), _start(ctx, whole), float, which)
    assert got == pytest.approx(_eig_oracle(M, which), rel=1e-12, abs=0)
    if which == "LM":
        norm = doubled_op_norm(Cs, ctx, hermitian=True)
        assert norm == pytest.approx(w[-1], rel=1e-12, abs=0)


def _extreme_eig_operators():
    """``(matvec, start)`` of the operators of the ``test_extreme_eig_*``
    tests above."""
    from qfock.deformation import _start, _sym_action

    out = []
    rng = np.random.default_rng(11)
    for N, q, L in [(2, 0.3, 1), (3, 0.2, 1), (4, -0.2, 1), (2, 0.3, 2), (2, -0.4, 2), (10, 0.05, 1)]:
        ctx = make_context(N, q, L)
        whole = _whole(ctx)
        for C in (xi_as_hs(ctx), rng.standard_normal((ctx.dim, ctx.dim))):
            Cs, _ = _sym_part(ctx, C)
            out.append((_sym_action(ctx, Cs, whole, whole), _start(ctx, whole)))
    ctx = make_context(2, 0.0, 4)
    d, whole, P = ctx.dim, _whole(ctx), xi_multiplier(ctx)
    out.append((lambda v: (P @ v.reshape(d, d) @ P).reshape(-1), _start(ctx, whole)))
    out.append((_sym_action(ctx, xi_as_hs(ctx), whole, whole), _start(ctx, whole)))
    ctx = make_context(2, -0.002, 4)
    Cs, _ = _sym_part(ctx, xi_as_hs(ctx) - unit_hs(ctx))
    out.append((_sym_action(ctx, Cs, _whole(ctx), _whole(ctx)), _start(ctx, _whole(ctx))))
    return out


@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_extreme_eig_stops_where_a_full_eigh_test_stops(which):
    # the last Ritz vector component from one solve against eigh's: the same
    # Lanczos step ends each run, with the same value
    from qfock.deformation import _extreme_eig

    for matvec, v in _extreme_eig_operators():
        fast, fast_calls = _counted(matvec)
        ref, ref_calls = _counted(matvec)
        got = _extreme_eig(fast, v, float, which)
        assert got == pytest.approx(eigh_extreme_eig(ref, v, float, which), rel=1e-15, abs=0)
        assert len(fast_calls) == len(ref_calls)


def test_xi_spectral_range_where_its_lower_end_crosses_zero():
    # near q = -0.5662783883 at (N, L) = (2, 4) the smallest eigenvalue of
    # the action is ~1e-11, so the rule's floor, not |theta|, sets the
    # bound: about 380 Lanczos steps, the most of any configuration seen
    from qfock.deformation import _xi_spectral_range

    ctx = make_context(2, -0.5662783883395606, 4)
    _, M = _sym_part(ctx, xi_as_hs(ctx))
    w = np.linalg.eigvalsh(M)
    assert abs(w[0]) < 1e-9
    lo, hi = _xi_spectral_range(ctx)
    assert abs(lo - w[0]) <= 1e-12 * w[-1]
    assert hi == pytest.approx(w[-1], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "N,q,L", [(2, 0.3, 2), (2, 0.3, 3), (2, -0.3, 4), (3, 0.1, 3), (6, 0.05, 2)]
)
def test_doubled_op_norm_complex_non_hermitian(N, q, L):
    # the normal operator of a complex element, against eigvalsh of S^H S
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(12)
    cut = ctx.level_offset(min(L, 3))
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    C[:cut, :cut] = rng.standard_normal((cut, cut)) + 1j * rng.standard_normal((cut, cut))
    S = dense_sym_action(ctx, C)
    top = np.linalg.eigvalsh(S.conj().T @ S)[-1]
    assert doubled_op_norm(C, ctx) == pytest.approx(math.sqrt(top), rel=1e-12, abs=0)


@pytest.mark.parametrize("hermitian", [False, True])
def test_doubled_op_norm_of_tiny_element_keeps_relative_accuracy(hermitian):
    # the eps**(2/3) floor of the convergence rule scales with the operator;
    # taken absolutely, as in ARPACK, it would pass any Ritz value here
    ctx = make_context(3, 0.1, 3)
    T = xi_as_hs(ctx) - unit_hs(ctx)
    ref = doubled_op_norm(T, ctx, hermitian=hermitian)
    tiny = doubled_op_norm(T * 1e-20, ctx, hermitian=hermitian)
    assert tiny == pytest.approx(1e-20 * ref, rel=1e-12, abs=0)


def _block_cuts(ctx):
    # (stored block as (words, rows, columns), its cut of a dim**3 stack)
    from qfock.deformation import _basis_split, _sym_blocks

    split = _basis_split(ctx)
    blocks = (T.transpose(1, 2, 0) for T in _sym_blocks(ctx))
    return [
        (next(blocks), np.ix_(split[x ^ y][0], rows, cols))
        for x, (rows, _, _) in enumerate(split)
        for y, (cols, _, _) in enumerate(split)
    ]


def _assembled_sym_stack(ctx):
    # the sandwiched left stack, zero outside its stored blocks
    d = ctx.dim
    Ah = np.zeros((d, d, d))
    for block, cut in _block_cuts(ctx):
        Ah[cut] = block
    return Ah


@pytest.mark.parametrize("N,q,L", [(2, -0.3, 3), (3, 0.1, 3), (2, 0.1, 5)])
def test_sym_blocks_are_the_nonzero_blocks_of_the_dense_stack(N, q, L):
    # one block (the whole stack) below dim 40, the four parity blocks from
    # it on; a word of length n moves level parity by n, so the dense stack
    # is exactly zero outside the blocks
    from qfock.deformation import _basis_split

    ctx = make_context(N, q, L)
    assert len(_basis_split(ctx)) == (1 if ctx.dim < 40 else 2)
    Ah, _ = dense_sym_stacks(ctx)
    outside = np.ones(Ah.shape, dtype=bool)
    for block, cut in _block_cuts(ctx):
        assert block.shape == Ah[cut].shape
        scale = np.linalg.norm(Ah[cut], axis=(1, 2))
        assert (np.linalg.norm(block - Ah[cut], axis=(1, 2)) <= 1e-13 * scale).all()
        outside[cut] = False
    assert not Ah[outside].any()
    # the recursion keeps the zeros of the level-parity grading exact, also
    # inside the one block of the trivial grading
    level = np.repeat(np.arange(L + 1), ctx.level_dims) % 2
    wrong = (level[:, None, None] ^ level[None, :, None] ^ level[None, None, :]) != 0
    assert not _assembled_sym_stack(ctx)[wrong].any()


def test_sym_stack_right_operators_are_reversed_left_ones():
    # right multiplication by a word is P (left multiplication by the
    # reversed word) P, and P commutes with the metric; in metric-orthonormal
    # coordinates the adjoint of a word operator is the operator of the
    # reversed word, a plain transpose
    from qfock.deformation import _rev_perm
    from qfock.operators import right_wick_stack

    for N, q, L in [(2, -0.3, 3), (3, 0.1, 3), (2, 0.1, 5)]:
        ctx = make_context(N, q, L)
        rev = _rev_perm(ctx)
        m = metric(ctx)
        Ah = _assembled_sym_stack(ctx)
        Bh = m["Gh"] @ right_wick_stack(ctx) @ m["Gih"]
        scale = np.linalg.norm(Bh, axis=(1, 2))
        err = np.linalg.norm(Bh - Ah[rev][:, rev][:, :, rev], axis=(1, 2))
        assert (err <= 1e-12 * scale).all()
        err = np.linalg.norm(Ah.transpose(0, 2, 1) - Ah[rev], axis=(1, 2))
        assert (err <= 1e-12 * np.linalg.norm(Ah, axis=(1, 2))).all()


def test_doubled_norms_hold_one_sandwiched_stack():
    # norms need the sandwiched left store only: no plain stack is built
    ctx = make_context(2, 0.1, 4)
    doubled_op_norm(xi_as_hs(ctx) - unit_hs(ctx), ctx, hermitian=True)
    doubled_op_norm(xi_as_hs(ctx) * 1j, ctx)
    d = ctx.dim
    held = [a for v in ctx._memo.values() for a in (v if isinstance(v, tuple) else (v,))]
    assert sum(isinstance(a, np.ndarray) and a.size == d**3 for a in held) == 1


def test_tail_norm_builds_no_plain_stack():
    # the sandwiched store comes from its own recursion, not from a plain stack
    ctx = make_context(2, 0.1, 6)
    doubled_op_norm(xi_as_hs(ctx) - xi_as_hs(ctx, 5), ctx, hermitian=True)
    assert not [key for key in ctx._memo if isinstance(key, tuple) and key[0] == "stack"]


def test_sandwiched_store_keeps_the_stack_cap():
    from qfock.errors import CapacityError

    ctx = make_context(2, 0.1, 7)
    with pytest.raises(CapacityError, match=r"\(dim 255 > 192\); 192 is a fixed limit"):
        doubled_op_norm(xi_as_hs(ctx) - xi_as_hs(ctx, 6), ctx, hermitian=True)
    assert "sym_blocks" not in ctx._memo


@pytest.mark.parametrize("side", ["L", "R"])
def test_short_stack_is_the_full_stacks_first_words(side):
    from qfock.operators import _stack

    short_ctx, full_ctx = make_context(2, 0.1, 5), make_context(2, 0.1, 5)
    short = _stack(short_ctx, side, 15)
    full = (left_wick_stack if side == "L" else right_wick_stack)(full_ctx)
    assert short.shape == (15, 63, 63) and full.shape == (63, 63, 63)
    assert np.array_equal(short, full[:15])
    assert ("stack", side, 3) in short_ctx._memo and ("stack", side) not in short_ctx._memo
    # a held full stack serves short requests as a view, and builds nothing
    view = _stack(full_ctx, side, 7)
    assert view.base is full and view.shape[0] == 15
    assert ("stack", side, 3) not in full_ctx._memo
    # a request past the words of length 3 takes the full stack
    assert _stack(short_ctx, side, 16).shape[0] == 63


def test_short_support_actions_are_byte_identical_either_way():
    # lr_apply on elements whose legs stay on the words of length at most 3
    # reads the short stacks, with the full stacks held their views; dq_star
    # reads no stack either way
    from qfock.derivations import dq_star

    rng = np.random.default_rng(5)
    C = np.zeros((63, 63), dtype=complex)
    C[:15, :7] = rng.standard_normal((15, 7)) + 1j * rng.standard_normal((15, 7))
    V = rng.standard_normal((63, 63))

    def outputs(ctx):
        return [lr_apply(C, V, ctx)] + [dq_star(C.T, j, ctx).data for j in (1, 2)]

    short_ctx, full_ctx = make_context(2, 0.1, 5), make_context(2, 0.1, 5)
    left_wick_stack(full_ctx), right_wick_stack(full_ctx)
    short, full = outputs(short_ctx), outputs(full_ctx)
    assert all(np.array_equal(a, b) for a, b in zip(short, full))
    stacks = [key for key in short_ctx._memo if isinstance(key, tuple) and key[0] == "stack"]
    assert sorted(stacks) == [("stack", "L", 3), ("stack", "R", 3)]


def test_sector_norms_hold_half_a_sandwiched_stack():
    # from dim 40 on only the nonzero parity blocks of the sandwiched stack
    # are built: at dim 63, 0.96 MB of the 2.0 MB stack
    from qfock.deformation import _sym_blocks

    ctx = make_context(2, 0.1, 5)
    doubled_op_norm(xi_as_hs(ctx) - unit_hs(ctx), ctx, hermitian=True)
    doubled_op_norm(xi_as_hs(ctx) * 1j, ctx)
    d, even, odd = ctx.dim, 1 + 4 + 16, 2 + 8 + 32
    held = [a for v in ctx._memo.values() for a in (v if isinstance(v, tuple) else (v,))]
    assert sum(isinstance(a, np.ndarray) and a.size == d**3 for a in held) == 0
    sizes = [b.size for b in _sym_blocks(ctx)]
    assert sizes == [even**3, even * odd * odd, odd * even * odd, odd * odd * even]
    assert sum(sizes) * 8 == 963_144


@pytest.mark.parametrize("element", ["tail", "xi"])
def test_sym_action_holds_only_its_own_operand(element):
    # the action reads the stored blocks in place: besides its own operand,
    # sum_v C[u, rev v] Ah_v over the words each input and output need, it
    # holds no dim**3 array. The tail's rows are the level-6 words only;
    # for Xi two inputs reach each output block of sector S0.
    import tracemalloc

    from qfock.deformation import _basis_split, _rev_perm, _runs, _sym_action, _sym_blocks

    ctx = make_context(2, 0.1, 6)
    C = xi_as_hs(ctx) - xi_as_hs(ctx, 5) if element == "tail" else xi_as_hs(ctx)
    split = [idx for idx, _, _ in _basis_split(ctx)]
    s0, _ = _runs(ctx, C, normal=False)[0]
    Crev = C[:, _rev_perm(ctx)]
    own = 0
    for a2, b2 in s0:
        for a, b in s0:
            rows = np.flatnonzero(Crev[np.ix_(split[a ^ a2], split[b ^ b2])].any(axis=1))
            if rows.size:
                own += (rows[-1] + 1 - rows[0]) * split[b].size * split[b2].size * 8
    assert own == (4_602_368 if element == "tail" else 8_511_560)
    _sym_blocks(ctx)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        apply = _sym_action(ctx, C, s0, s0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.01 * own + 64 * 1024
    assert apply(np.ones(sum(split[a].size * split[b].size for a, b in s0))).any()


def test_lr_bound_one_sided_at_threshold():
    # compressed norm of (deformation op minus unit) stays below the closed
    # form at the validity threshold; compression makes this one-sided
    N = 2
    q = 0.13 / math.sqrt(N)
    ctx = make_context(N, q, 4)
    lhs = doubled_op_norm(xi_as_hs(ctx) - unit_hs(ctx), ctx, hermitian=True)
    assert lhs <= constants(q, N).rho + 1e-9


def test_tensor_square_norm_inequality_on_random_elements():
    # homogeneous legs (n, m): compressed action norm is bounded by
    # c^3 (n+1) (m+1) times the trace norm
    ctx = make_context(2, 0.4, 3)
    rng = np.random.default_rng(4)
    c3 = c_q(0.4) ** 3
    for n, m in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        C = np.zeros((ctx.dim, ctx.dim))
        sn, sm = ctx.level_slice(n), ctx.level_slice(m)
        C[sn, sm] = rng.standard_normal((2**n, 2**m))
        assert doubled_op_norm(C, ctx) <= c3 * (n + 1) * (m + 1) * hs_norm_of(C, ctx) + 1e-9


def test_truncation_tail_vanishes_monotonically():
    ctx = make_context(2, 0.5, 4)
    xi = xi_as_hs(ctx)
    tails = [
        doubled_op_norm(xi - xi_as_hs(ctx, Q), ctx, hermitian=True) for Q in range(5)
    ]
    for a, b in zip(tails, tails[1:]):
        assert b <= a + 1e-12
    assert tails[-1] == 0.0


@pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
def test_multiplier_psd_for_nonnegative_q(q):
    ctx = make_context(2, q, 3)
    assert np.linalg.eigvalsh(xi_multiplier(ctx)).min() >= 0.0


def test_multiplier_signed_spectrum_negative_q():
    q = -0.4
    ctx = make_context(2, q, 3)
    eigs = np.linalg.eigvalsh(xi_multiplier(ctx))
    assert eigs.min() < 0  # the multiplier itself is signed for q < 0
    # hs property: squared trace norm is the finite geometric-type sum
    expected = math.sqrt(sum(q ** (2 * n) * 2**n for n in range(4)))
    assert hs_norm(xi_multiplier(ctx), ctx) == pytest.approx(expected, rel=1e-12)


def test_doubled_action_positive_moderate_negative_q():
    # the matrix-free square root against eigh of the dense right action, at
    # q < 0 (where the doubled action is still positive) and at q > 0
    from qfock.deformation import _xi_spectral_range
    from qfock.derivations import FDQ, Q_SQRT, NCPoly, derive

    for N, q, L in [(2, 0.1, 5), (3, 0.1, 3), (2, 0.3, 4), (2, -0.4, 4)]:
        ctx = make_context(N, q, L)
        assert _xi_spectral_range(ctx)[0] > 0.0
        # an element of even total word length, a complex one of mixed parity
        # (both sectors of the doubled space) and one of odd total length
        polys = [
            NCPoly({(1, 2, 1): 1.0, (N, 2): -0.5, (1,): 0.25}),
            NCPoly({(1, 2): 1 + 1j, (1,): 0.5}),
            NCPoly({(1, 2): 1.0}),
        ]
        fdqs = [derive(P, 1, FDQ, ctx) for P in polys]
        for P, expected in zip(polys, dense_xi_sqrt_right(ctx, *fdqs)):
            got = derive(P, 1, Q_SQRT, ctx)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    # a polynomial free of the letter has derivative 0, and so has its root image
    assert not derive(NCPoly.x(2), 1, Q_SQRT, ctx).any()


def test_doubled_psd_sqrt_unavailable_far_negative_q():
    from qfock.derivations import Q_SQRT, NCPoly, derive

    ctx = make_context(2, -0.6, 4)
    with pytest.raises(SquareRootUnavailableError):
        derive(NCPoly({(1, 2, 1): 1.0}), 1, Q_SQRT, ctx)
