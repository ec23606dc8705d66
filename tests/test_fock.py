import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import GradedVector, gram, make_context, orthonormal_vectors, q_inner
from qfock.errors import AlphabetError, CapacityError, QRangeError
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


def test_make_context_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        make_context(10, 0.1, 8)
    monkeypatch.setenv("QFOCK_SIZE_CAP", "50")
    with pytest.raises(CapacityError):
        make_context(2, 0.1, 6)


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
    assert np.array_equal(gram(1, ctx).gamma.entries, np.eye(3))


def test_gram_level_two_entries():
    ctx = make_context(2, 0.4, 3)
    g = gram(2, ctx).gamma.entries
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
        res = np.abs(block.b.entries @ block.gamma.entries @ block.b.entries - eye)
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
    from qfock.operators import adjoint, trace_state, wick_word

    ctx = make_context(2, -0.4, 5)
    n = 2
    g = gram(n, ctx).gamma.entries
    for a in range(4):
        for b in range(4):
            u = ctx.index_word(n, a)
            v = ctx.index_word(n, b)
            tr = trace_state(adjoint(wick_word(u, ctx)) @ wick_word(v, ctx))
            assert tr == pytest.approx(g[a, b], abs=1e-12)


def test_trivial_truncation_level():
    ctx = make_context(3, 0.5, 0)
    assert ctx.dim == 1
    om = GradedVector.vacuum(ctx)
    assert q_inner(om, om, ctx) == 1.0


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
    from qfock.derivations import conjugate_variable, fisher_estimate
    from qfock.operators import gaussian, op_norm, trace_state

    ctx = make_context(1, -0.5, 1)
    assert ctx.dim == 2
    x = gaussian(1, ctx)
    assert trace_state(x @ x) == pytest.approx(1.0)
    assert op_norm(x) < 2.0 / 0.5
    assert doubled_op_norm(unit_hs(ctx)) == pytest.approx(1.0)
    v = conjugate_variable(1, 3, ctx)
    assert np.isfinite(v.data).all()
    assert fisher_estimate(3, ctx) >= 0


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
