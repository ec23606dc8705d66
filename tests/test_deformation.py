import math

import numpy as np
import pytest

from qfock import GradedVector, constants, make_context
from qfock.deformation import (
    HSElement,
    NeumannResult,
    apply_in_orthonormal,
    doubled_op_norm,
    doubled_psd_sqrt,
    hs_inner,
    hs_mult,
    hs_norm_of,
    lr_action,
    lr_apply,
    multiplier_of,
    rl_apply,
    unit_hs,
    xi_as_hs,
    xi_inverse_neumann,
    xi_multiplier,
)
from qfock.errors import NonConvergenceWarning, SquareRootUnavailableError
from qfock.fock import q_inner
from qfock.operators import c_q, gaussian, hs_norm, wick_matrix


def test_xi_multiplier_free_case_is_vacuum_projection():
    ctx = make_context(2, 0.0, 3)
    M = xi_multiplier(ctx).mat
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[0, 0] = 1.0
    assert np.array_equal(M, expected)


def test_xi_multiplier_scales_levels():
    q = 0.35
    ctx = make_context(2, q, 4)
    for n in range(5):
        w = (1,) * n if n else ()
        v = GradedVector.from_word(ctx, w)
        out = xi_multiplier(ctx).apply(v)
        assert np.allclose(out.data, q**n * v.data)


def test_xi_multiplier_level_cap():
    q = 0.35
    ctx = make_context(2, q, 4)
    out = xi_multiplier(ctx, Q=2).apply(GradedVector.from_word(ctx, (1, 1, 1)))
    assert np.abs(out.data).max() == 0.0


def test_xi_multiplier_hs_norm():
    q, N = 0.35, 2
    ctx = make_context(N, q, 4)
    for Q in (2, 4):
        expected = math.sqrt(sum(q ** (2 * n) * N**n for n in range(Q + 1)))
        assert hs_norm(xi_multiplier(ctx, Q)) == pytest.approx(expected, rel=1e-12)


def test_xi_as_hs_level_zero_is_unit():
    ctx = make_context(2, 0.35, 3)
    T = xi_as_hs(ctx, Q=0)
    assert np.abs(T.coeffs - unit_hs(ctx).coeffs).max() == 0.0


def test_xi_as_hs_orthonormal_coefficient_scalar_alphabet():
    q = 0.4
    ctx = make_context(1, q, 3)
    T = xi_as_hs(ctx, Q=2)
    # move to the orthonormal-basis coordinates at level 2 (reversal trivial)
    i = ctx.global_index((1, 1))
    ghalf = math.sqrt(1 + q)
    coeff_p_basis = ghalf * T.coeffs[i, i].real * ghalf
    assert coeff_p_basis == pytest.approx(q**2, abs=1e-12)


def test_multiplier_of_xi_as_hs_roundtrip():
    for q in (-0.4, 0.0, 0.5):
        ctx = make_context(2, q, 4)
        M = multiplier_of(xi_as_hs(ctx)).mat
        assert np.abs(M - xi_multiplier(ctx).mat).max() < 1e-12


def test_multiplier_of_roundtrip_with_level_cap():
    ctx = make_context(2, 0.45, 4)
    for Q in (0, 1, 2, 3):
        M = multiplier_of(xi_as_hs(ctx, Q)).mat
        assert np.abs(M - xi_multiplier(ctx, Q).mat).max() < 1e-12


def test_xi_as_hs_contracts_like_multiplier():
    ctx = make_context(2, 0.45, 4)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    got = multiplier_of(xi_as_hs(ctx)).mat @ v
    expected = xi_multiplier(ctx).mat @ v
    assert np.abs(got - expected).max() < 1e-10


# ---- doubled-space actions -----------------------------------------------------


def test_lr_action_of_unit_is_identity():
    ctx = make_context(2, 0.3, 2)
    M = lr_action(unit_hs(ctx))
    assert np.allclose(M, np.eye(ctx.dim**2), atol=1e-12)


def test_lr_action_single_tensor_factor():
    ctx = make_context(2, 0.3, 2)
    C = np.zeros((ctx.dim, ctx.dim))
    C[ctx.global_index((1,)), 0] = 1.0  # X_1 (x) 1
    M = lr_action(HSElement(ctx, C))
    expected = np.kron(gaussian(1, ctx).mat, np.eye(ctx.dim))
    assert np.allclose(M, expected, atol=1e-12)


def test_lr_action_right_factor_is_right_multiplication():
    from qfock.operators import right_wick_matrix

    ctx = make_context(2, 0.3, 2)
    C = np.zeros((ctx.dim, ctx.dim))
    C[0, ctx.global_index((2,))] = 1.0  # 1 (x) X_2
    M = lr_action(HSElement(ctx, C))
    expected = np.kron(np.eye(ctx.dim), right_wick_matrix((2,), ctx))
    assert np.allclose(M, expected, atol=1e-12)


def test_hs_mult_matches_symbolic_product():
    # (X_1 (x) 1) # (1 (x) X_2) = X_1 (x) X_2
    ctx = make_context(2, 0.3, 3)
    A = np.zeros((ctx.dim, ctx.dim))
    A[ctx.global_index((1,)), 0] = 1.0
    B = np.zeros((ctx.dim, ctx.dim))
    B[0, ctx.global_index((2,))] = 1.0
    prod = hs_mult(HSElement(ctx, A), HSElement(ctx, B))
    expected = np.zeros((ctx.dim, ctx.dim))
    expected[ctx.global_index((1,)), ctx.global_index((2,))] = 1.0
    assert np.abs(prod.coeffs - expected).max() < 1e-12


def test_lr_rl_actions_commute():
    # left and right multiplications commute on inputs far enough below the
    # truncation ceiling that no product path is compressed away
    ctx = make_context(2, 0.3, 4)
    rng = np.random.default_rng(2)
    cut = ctx.level_offset(2)
    C1 = np.zeros((ctx.dim, ctx.dim))
    C2 = np.zeros((ctx.dim, ctx.dim))
    C1[:cut, :cut] = rng.standard_normal((cut, cut))
    C2[:cut, :cut] = rng.standard_normal((cut, cut))
    T1, T2 = HSElement(ctx, C1), HSElement(ctx, C2)
    V = np.zeros((ctx.dim, ctx.dim))
    vcut = ctx.level_offset(3)
    V[:vcut, :vcut] = rng.standard_normal((vcut, vcut))
    lhs = lr_apply(T1, rl_apply(T2, V))
    rhs = rl_apply(T2, lr_apply(T1, V))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_hs_inner_word_factorization():
    ctx = make_context(2, 0.3, 3)
    A = np.zeros((ctx.dim, ctx.dim))
    A[ctx.global_index((1, 2)), ctx.global_index((2,))] = 1.0
    B = np.zeros((ctx.dim, ctx.dim))
    B[ctx.global_index((2, 1)), ctx.global_index((2,))] = 1.0
    got = hs_inner(HSElement(ctx, A), HSElement(ctx, B))
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
    assert np.abs(res.element.coeffs - unit_hs(ctx).coeffs).max() == 0.0
    assert max(res.residuals) < 1e-14


def test_neumann_two_term_partial_sum():
    ctx = make_context(2, 0.05, 3)
    res = xi_inverse_neumann(ctx, 1, compute_residuals=False)
    expected = 2.0 * unit_hs(ctx).coeffs - xi_as_hs(ctx).coeffs
    assert np.abs(res.element.coeffs - expected).max() < 1e-12


def test_neumann_residual_decay():
    ctx = make_context(2, 0.05, 4)
    res = xi_inverse_neumann(ctx, 8)
    for a, b in zip(res.residuals, res.residuals[1:]):
        assert b < a
    assert isinstance(res, NeumannResult)


def test_neumann_warns_outside_guarantee():
    ctx = make_context(2, 0.75, 3)
    with pytest.warns(NonConvergenceWarning):
        xi_inverse_neumann(ctx, 2, compute_residuals=False)


# ---- norms, positivity, square roots ------------------------------------------------


def test_doubled_op_norm_of_unit():
    ctx = make_context(2, 0.3, 2)
    assert doubled_op_norm(unit_hs(ctx)) == pytest.approx(1.0, abs=1e-12)


def _dense_top(S: np.ndarray, hermitian: bool) -> float:
    # oracle: largest singular value of a dense action matrix, or largest
    # |eigenvalue| of its symmetric part; full decompositions while cheap,
    # dense-matvec Lanczos to machine precision above that
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


@pytest.mark.parametrize("kind", ["real", "complex", "hermitian"])
@pytest.mark.parametrize("N,q,L", [(2, 0.3, 3), (2, -0.3, 4), (3, 0.1, 3), (2, 0.1, 5)])
def test_doubled_op_norm_matches_dense_svd(N, q, L, kind):
    from qfock.deformation import _dense_sym_action

    ctx = make_context(N, q, L)
    rng = np.random.default_rng(3)
    cut = ctx.level_offset(3)
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex if kind == "complex" else float)
    C[:cut, :cut] = rng.standard_normal((cut, cut))
    if kind == "complex":
        C[:cut, :cut] += 1j * rng.standard_normal((cut, cut))
    T = HSElement(ctx, C)
    hermitian = kind == "hermitian"
    expected = _dense_top(_dense_sym_action(ctx, T.coeffs), hermitian)
    assert doubled_op_norm(T, hermitian=hermitian) == pytest.approx(expected, rel=1e-9)


def test_sym_stacks_star_is_reversed_word():
    # the adjoint of a word operator is the operator of the reversed word; in
    # metric-orthonormal coordinates that is a plain conjugate transpose
    from qfock.deformation import _rev_perm, _sym_stacks

    for N, q, L in [(2, -0.3, 3), (3, 0.1, 3), (2, 0.1, 5)]:
        ctx = make_context(N, q, L)
        rev = _rev_perm(ctx)
        for S in _sym_stacks(ctx):
            err = np.linalg.norm(S.conj().transpose(0, 2, 1) - S[rev], axis=(1, 2))
            assert (err <= 1e-12 * np.linalg.norm(S, axis=(1, 2))).all()


def test_lr_bound_one_sided_at_threshold():
    # compressed norm of (deformation op minus unit) stays below the closed
    # form at the validity threshold; compression makes this one-sided
    N = 2
    q = 0.13 / math.sqrt(N)
    ctx = make_context(N, q, 4)
    lhs = doubled_op_norm(xi_as_hs(ctx) - unit_hs(ctx), hermitian=True)
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
        T = HSElement(ctx, C)
        assert doubled_op_norm(T) <= c3 * (n + 1) * (m + 1) * hs_norm_of(T) + 1e-9


def test_truncation_tail_vanishes_monotonically():
    ctx = make_context(2, 0.5, 4)
    xi = xi_as_hs(ctx)
    tails = [
        doubled_op_norm(xi - xi_as_hs(ctx, Q), hermitian=True) for Q in range(5)
    ]
    for a, b in zip(tails, tails[1:]):
        assert b <= a + 1e-12
    assert tails[-1] == 0.0


@pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
def test_multiplier_psd_for_nonnegative_q(q):
    ctx = make_context(2, q, 3)
    assert np.linalg.eigvalsh(xi_multiplier(ctx).mat).min() >= 0.0


def test_multiplier_signed_spectrum_negative_q():
    q = -0.4
    ctx = make_context(2, q, 3)
    eigs = np.linalg.eigvalsh(xi_multiplier(ctx).mat)
    assert eigs.min() < 0  # the multiplier itself is signed for q < 0
    # hs property: squared trace norm is the finite geometric-type sum
    expected = math.sqrt(sum(q ** (2 * n) * 2**n for n in range(4)))
    assert hs_norm(xi_multiplier(ctx)) == pytest.approx(expected, rel=1e-12)


def test_doubled_action_positive_moderate_negative_q():
    from qfock.derivations import _xi_spectral_range

    ctx = make_context(2, -0.4, 4)
    lo, hi = _xi_spectral_range(ctx)
    assert lo > 0.0
    root = doubled_psd_sqrt(xi_as_hs(ctx), which="right")
    # squaring the root in orthonormal coordinates recovers the action
    from qfock.deformation import _dense_sym_action

    S = _dense_sym_action(ctx, xi_as_hs(ctx).coeffs, which="right")
    assert np.abs(root @ root - (S + S.T) / 2).max() < 1e-9


def test_doubled_psd_sqrt_unavailable_far_negative_q():
    ctx = make_context(2, -0.6, 4)
    with pytest.raises(SquareRootUnavailableError):
        doubled_psd_sqrt(xi_as_hs(ctx), which="left")


def test_apply_in_orthonormal_identity():
    ctx = make_context(2, 0.3, 2)
    rng = np.random.default_rng(5)
    V = rng.standard_normal((ctx.dim, ctx.dim))
    out = apply_in_orthonormal(ctx, np.eye(ctx.dim**2), V)
    assert np.abs(out - V).max() < 1e-12
