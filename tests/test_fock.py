import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import GradedVector, gram, make_context, orthonormal_vectors, q_inner
from qfock.errors import AlphabetError, CapacityError, LevelRangeError, QRangeError
from qfock.fock import metric, norm_q


def ref_q_inner_words(u, v, q):
    """Independent oracle: sum over permutations of q^inversions times letter
    matches; quadratic in n! but fine for n <= 5."""
    if len(u) != len(v):
        return 0.0
    n = len(u)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        if all(u[k] == v[perm[k]] for k in range(n)):
            total += q**inv
    return total


def test_make_context_examples():
    assert make_context(2, 0.0, 4).dim == 31
    assert make_context(3, -0.2, 5).dim == 364


def test_make_context_rejects_bad_q():
    with pytest.raises(QRangeError):
        make_context(2, 1.0, 4)
    with pytest.raises(QRangeError):
        make_context(2, -1.0, 4)


def test_make_context_rejects_bad_alphabet():
    with pytest.raises(AlphabetError):
        make_context(0, 0.1, 4)


def test_make_context_rejects_bad_level():
    with pytest.raises(ValueError):
        make_context(2, 0.1, -1)


# levels -1 and L + 1 at L = 3; the stack sizes read level_offset(L + 1)
def test_level_slice_rejects_levels_outside_the_truncation():
    ctx = make_context(2, 0.1, 3)
    assert ctx.level_offset(4) == ctx.dim
    for n in (-1, 4):
        with pytest.raises(LevelRangeError, match=f"level {n} outside the truncation levels 0..3"):
            ctx.level_slice(n)


def test_graded_vector_level_rejects_levels_outside_the_truncation():
    v = GradedVector.vacuum(make_context(2, 0.1, 3))
    for n in (-1, 4):
        with pytest.raises(LevelRangeError):
            v.level(n)


def test_gram_rejects_levels_outside_the_truncation():
    ctx = make_context(2, 0.1, 3)
    for n in (-1, 4):
        with pytest.raises(LevelRangeError, match=f"level {n} outside"):
            gram(n, ctx)


def test_global_index_rejects_words_longer_than_the_truncation():
    # a word has no length -1: L + 1 is the only level out of range
    ctx = make_context(2, 0.1, 3)
    assert ctx.global_index((2, 2, 2)) == ctx.dim - 1
    with pytest.raises(LevelRangeError, match="word length 4 outside"):
        ctx.global_index((1, 2, 1, 2))


def test_make_context_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        make_context(10, 0.1, 8)
    monkeypatch.setenv("QFOCK_SIZE_CAP", "50")
    with pytest.raises(CapacityError):
        make_context(2, 0.1, 6)


def test_malformed_size_cap_is_bad_input(monkeypatch):
    # a QFOCK_SIZE_CAP that is no integer is named in a CapacityError
    monkeypatch.setenv("QFOCK_SIZE_CAP", "abc")
    with pytest.raises(CapacityError, match="QFOCK_SIZE_CAP must be an integer, got 'abc'"):
        make_context(2, 0.1, 2)


def test_cap_override_reaches_level_gram(monkeypatch):
    # the context's override beats the environment cap in the S_n sum too
    monkeypatch.setenv("QFOCK_SIZE_CAP", "5")
    assert gram(3, make_context(2, 0.1, 3, cap_override=100)).gamma.shape == (8, 8)


def test_q_inner_swap_words():
    ctx = make_context(2, 0.37, 3)
    a = GradedVector.from_word(ctx, (1, 2))
    b = GradedVector.from_word(ctx, (2, 1))
    assert q_inner(a, b, ctx) == pytest.approx(0.37)


def test_q_inner_repeated_letter():
    ctx = make_context(2, 0.37, 3)
    a = GradedVector.from_word(ctx, (1, 1))
    assert q_inner(a, a, ctx) == pytest.approx(1 + 0.37)


def test_q_inner_vacuum():
    ctx = make_context(2, 0.37, 3)
    om = GradedVector.vacuum(ctx)
    assert q_inner(om, om, ctx) == 1.0


@pytest.mark.parametrize("q", [-0.6, 0.0, 0.45])
def test_q_inner_matches_reference_on_words(q):
    ctx = make_context(2, q, 4)
    for n in (2, 3, 4):
        for _ in range(6):
            rng = np.random.default_rng(n)
            u = tuple(rng.integers(1, 3) for _ in range(n))
            v = tuple(rng.integers(1, 3) for _ in range(n))
            got = q_inner(
                GradedVector.from_word(ctx, u), GradedVector.from_word(ctx, v), ctx
            )
            assert got == pytest.approx(ref_q_inner_words(u, v, q), abs=1e-12)


def test_levels_are_orthogonal_exactly():
    ctx = make_context(2, 0.5, 3)
    a = GradedVector.from_word(ctx, (1,))
    b = GradedVector.from_word(ctx, (1, 1))
    assert q_inner(a, b, ctx) == 0.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_q_inner_hermitian_symmetry(seed):
    ctx = make_context(2, -0.35, 3)
    rng = np.random.default_rng(seed)
    v = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
    w = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
    assert abs(q_inner(v, w, ctx) - np.conj(q_inner(w, v, ctx))) < 1e-12


def test_q_inner_sesquilinear():
    ctx = make_context(2, 0.2, 3)
    rng = np.random.default_rng(0)
    v = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
    w = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
    c = 0.7 - 0.4j
    assert q_inner(c * v, w, ctx) == pytest.approx(np.conj(c) * q_inner(v, w, ctx))
    assert q_inner(v, c * w, ctx) == pytest.approx(c * q_inner(v, w, ctx))


def test_gram_level_one_identity():
    ctx = make_context(3, 0.4, 3)
    assert np.array_equal(gram(1, ctx).gamma, np.eye(3))


def test_gram_level_two_entries():
    ctx = make_context(2, 0.4, 3)
    g = gram(2, ctx).gamma
    assert g[ctx.word_index((1, 2)), ctx.word_index((2, 1))] == pytest.approx(0.4)
    assert g[ctx.word_index((1, 1)), ctx.word_index((1, 1))] == pytest.approx(1.4)


@pytest.mark.parametrize("N,L", [(2, 5), (3, 5)])
@pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_gram_inverse_sqrt_identity(N, L, q):
    ctx = make_context(N, q, L)
    for n in range(L + 1):
        block = gram(n, ctx)
        assert block.min_eig > 0
        eye = np.eye(N**n)
        res = np.abs(block.b @ block.gamma @ block.b - eye)
        assert res.max() < 1e-9


def test_gram_block_cached():
    ctx = make_context(2, 0.3, 3)
    assert gram(2, ctx) is gram(2, ctx)


def test_orthonormal_vectors_are_orthonormal():
    ctx = make_context(3, 0.45, 4)
    for n in (1, 2, 3):
        vecs = orthonormal_vectors(n, ctx)
        for i in range(len(vecs)):
            for j in range(i, len(vecs)):
                val = q_inner(vecs[i], vecs[j], ctx)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-10


def test_orthonormal_vectors_q_zero_standard_basis():
    ctx = make_context(2, 0.0, 3)
    vecs = orthonormal_vectors(2, ctx)
    for i, v in enumerate(vecs):
        e = np.zeros(4)
        e[i] = 1.0
        assert np.allclose(v.level(2), e)


def test_orthonormal_scalar_alphabet_scaling():
    q = 0.6
    ctx = make_context(1, q, 3)
    (v,) = orthonormal_vectors(2, ctx)
    assert v.level(2)[0] == pytest.approx((1 + q) ** -0.5)


def test_metric_blocks_consistent():
    ctx = make_context(2, 0.3, 3)
    m = metric(ctx)
    assert np.allclose(m["G"] @ m["Gi"], np.eye(ctx.dim), atol=1e-12)
    assert np.allclose(m["Gh"] @ m["Gh"], m["G"], atol=1e-12)
    assert np.allclose(m["Gih"] @ m["Gh"], np.eye(ctx.dim), atol=1e-12)


def test_norm_q_positive():
    ctx = make_context(2, 0.3, 3)
    v = GradedVector.from_word(ctx, (1, 2))
    assert norm_q(v) > 0


def test_gram_matches_word_operator_traces():
    # independent route: the level Gram entry is the trace of the adjoint of
    # one word operator against another
    from qfock.operators import adjoint, trace_state, wick_matrix

    ctx = make_context(2, -0.4, 5)
    n = 2
    g = gram(n, ctx).gamma
    for a in range(4):
        for b in range(4):
            u = ctx.index_word(n, a)
            v = ctx.index_word(n, b)
            tr = trace_state(adjoint(wick_matrix(u, ctx), ctx) @ wick_matrix(v, ctx))
            assert tr == pytest.approx(g[a, b], abs=1e-12)


def test_trivial_truncation_level():
    ctx = make_context(3, 0.5, 0)
    assert ctx.dim == 1
    om = GradedVector.vacuum(ctx)
    assert q_inner(om, om, ctx) == 1.0


def test_graded_vector_takes_any_array_like_of_the_right_length():
    # the data is converted before its length is checked
    ctx = make_context(2, 0.3, 1)
    v = GradedVector(ctx, [1, 0, 0])
    assert v.data.dtype == complex and np.array_equal(v.data, [1, 0, 0])
    assert q_inner(v, v, ctx) == 1.0
    for bad in ([1, 0], (1, 0, 0, 0), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="expected 3"):
            GradedVector(ctx, bad)


def test_word_index_bijection():
    ctx = make_context(3, 0.1, 4)
    for n in (0, 1, 2, 3):
        seen = set()
        for idx in range(3**n):
            w = ctx.index_word(n, idx)
            assert ctx.word_index(w) == idx
            seen.add(w)
        assert len(seen) == 3**n


def test_gram_degenerate_metric_error_near_one():
    from qfock.errors import DegenerateMetricError

    ctx = make_context(3, 0.9999, 5)
    # a failed build stores nothing, so every call raises again
    for build in (lambda: gram(5, ctx), lambda: gram(5, ctx), lambda: metric(ctx)):
        with pytest.raises(DegenerateMetricError, match="degenerate"):
            build()


def test_minimal_context_operations():
    from qfock.deformation import doubled_op_norm, unit_hs
    from qfock.deformation import xi_inverse_neumann
    from qfock.derivations import conjugate_variables, fisher_estimate
    from qfock.operators import gaussian, op_norm, trace_state

    ctx = make_context(1, -0.5, 1)
    assert ctx.dim == 2
    x = gaussian(1, ctx)
    assert trace_state(x @ x) == pytest.approx(1.0)
    assert op_norm(x, ctx) < 2.0 / 0.5
    assert doubled_op_norm(unit_hs(ctx), ctx) == pytest.approx(1.0)
    cvs = conjugate_variables(xi_inverse_neumann(ctx, 3).element, ctx)
    assert np.isfinite(cvs[0].data).all()
    assert fisher_estimate(cvs) >= 0


def test_gram_cache_is_write_once_under_threads():
    import concurrent.futures

    ctx = make_context(2, 0.4, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            blocks = list(pool.map(lambda _: gram(4, ctx), range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    final = ctx.memo(("gram", 4), lambda: pytest.fail("level-4 block not memoized"))
    assert all(b is final for b in blocks)


def test_memoized_arrays_are_read_only():
    # callers share the memo's arrays, so an in-place update must fail
    # instead of changing every later result of the context
    from qfock.derivations import _monomials
    from qfock.operators import gaussian, left_wick_stack

    ctx = make_context(2, 0.3, 3)
    x = gaussian(1, ctx)
    for A in (x, left_wick_stack(ctx), _monomials(2, ctx)):
        with pytest.raises(ValueError, match="read-only"):
            A += 1.0
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 1.0
    assert gaussian(1, ctx) is x and x[0, 0] == 0.0


@pytest.mark.parametrize("N,q,L", [(2, 0.3, 3), (3, 0.1, 3)])
def test_arrays_inside_memoized_values_are_read_only(N, q, L):
    # arrays held in a memoized dict, dataclass or tuple are shared as well:
    # the metric, a Gram block, the deformation element, the parity metric
    # and the sandwiched stack blocks (one below dim 40, four from it on)
    from qfock.deformation import _sym_blocks, xi_as_hs
    from qfock.operators import _parity_metric

    ctx = make_context(N, q, L)
    arrays = [
        *metric(ctx).values(),
        gram(2, ctx).gamma,
        gram(2, ctx).b,
        xi_as_hs(ctx),
        *(a for part in _parity_metric(ctx) for a in part),
        *_sym_blocks(ctx),
    ]
    assert len(_sym_blocks(ctx)) == (1 if ctx.dim < 40 else 4)
    for A in arrays:
        with pytest.raises(ValueError, match="read-only"):
            A[(0,) * A.ndim] = 1
