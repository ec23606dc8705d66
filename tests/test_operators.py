import itertools

import numpy as np
import pytest

from qfock import (
    GradedVector,
    adjoint,
    annihilation,
    bozejko_check,
    c_q,
    creation,
    gaussian,
    make_context,
    op_norm,
    q_inner,
    right_annihilation,
    right_creation,
    trace_state,
    wick_matrix,
)
from qfock.errors import AlphabetError, HomogeneityError, LevelRangeError, QRangeError
from qfock.fock import metric, norm_q
from qfock.deformation import xi_multiplier
from qfock.operators import (
    _GRAM_MAX_SIDE,
    _parity_metric,
    _psi_blocks,
    _short_blocks,
    _top_singular,
    left_wick_stack,
    right_annihilation_mirror,
    right_gaussian,
    right_wick_stack,
)

from dense_oracle import hs_norm, mirror_by_words


# ---- tiny dict-based reference implementation (the oracle) ----------------------


def ref_create(vec: dict, i: int) -> dict:
    return {(i,) + w: c for w, c in vec.items()}


def ref_annihilate(vec: dict, i: int, q: float) -> dict:
    out: dict = {}
    for w, c in vec.items():
        for k in range(1, len(w) + 1):
            if w[k - 1] == i:
                shorter = w[: k - 1] + w[k:]
                out[shorter] = out.get(shorter, 0.0) + q ** (k - 1) * c
    return out


def ref_gauss(vec: dict, i: int, q: float) -> dict:
    out = ref_create(vec, i)
    for w, c in ref_annihilate(vec, i, q).items():
        out[w] = out.get(w, 0.0) + c
    return out


def ref_apply_word(word, q: float) -> dict:
    vec = {(): 1.0}
    for letter in reversed(word):
        vec = ref_gauss(vec, letter, q)
    return vec


def ref_q_inner(a: dict, b: dict, q: float):
    total = 0.0
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) != len(v):
                continue
            n = len(u)
            for perm in itertools.permutations(range(n)):
                inv = sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if perm[i] > perm[j]
                )
                if all(u[k] == v[perm[k]] for k in range(n)):
                    total += np.conj(cu) * cv * q**inv
    return total


def apply(A: np.ndarray, v: GradedVector) -> GradedVector:
    return GradedVector(v.ctx, A @ v.data)


def to_graded(ctx, vec: dict) -> GradedVector:
    g = GradedVector.zero(ctx)
    for w, c in vec.items():
        g.data[ctx.global_index(w)] += c
    return g


# ---- creation / annihilation ----------------------------------------------------


def test_creation_on_vacuum():
    ctx = make_context(2, 0.3, 4)
    v = apply(creation(1, ctx), GradedVector.vacuum(ctx))
    assert np.allclose(v.data, GradedVector.from_word(ctx, (1,)).data)


def test_annihilation_double_letter():
    ctx = make_context(2, 0.3, 4)
    v = apply(annihilation(1, ctx), GradedVector.from_word(ctx, (1, 1)))
    target = (1 + 0.3) * GradedVector.from_word(ctx, (1,)).data
    assert np.allclose(v.data, target)


def test_annihilation_orthogonal_letter():
    ctx = make_context(2, 0.3, 4)
    v = apply(annihilation(2, ctx), GradedVector.from_word(ctx, (1, 1)))
    assert np.abs(v.data).max() == 0.0


def test_annihilation_kills_vacuum():
    ctx = make_context(2, 0.3, 4)
    v = apply(annihilation(1, ctx), GradedVector.vacuum(ctx))
    assert np.abs(v.data).max() == 0.0


def test_letter_out_of_range():
    ctx = make_context(2, 0.3, 4)
    with pytest.raises(AlphabetError):
        creation(3, ctx)


def test_gaussian_matches_reference():
    q = -0.45
    ctx = make_context(2, q, 5)
    rng = np.random.default_rng(1)
    for _ in range(8):
        word = tuple(int(x) for x in rng.integers(1, 3, size=4))
        got = GradedVector.vacuum(ctx)
        for letter in reversed(word):
            got = apply(gaussian(letter, ctx), got)
        expected = to_graded(ctx, ref_apply_word(word, q))
        assert np.abs(got.data - expected.data).max() < 1e-12


# ---- right-side operators ---------------------------------------------------------


def test_right_creation_on_vacuum():
    ctx = make_context(2, 0.3, 4)
    v = apply(right_creation(1, ctx), GradedVector.vacuum(ctx))
    assert np.allclose(v.data, GradedVector.from_word(ctx, (1,)).data)


def test_right_annihilation_examples():
    # oracle: the q-adjoint characterization <r x, y> = <x, r* y> over all
    # basis pairs of small levels
    q = 0.3
    ctx = make_context(2, q, 4)
    r1 = right_annihilation(1, ctx)
    v = apply(r1, GradedVector.from_word(ctx, (2, 1)))
    assert np.allclose(v.data, GradedVector.from_word(ctx, (2,)).data)
    v = apply(r1, GradedVector.from_word(ctx, (1, 2)))
    assert np.allclose(v.data, q * GradedVector.from_word(ctx, (2,)).data)


def test_right_annihilation_is_true_adjoint():
    ctx = make_context(2, -0.4, 4)
    rc = right_creation(2, ctx)
    ra = right_annihilation(2, ctx)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
        y = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
        lhs = q_inner(apply(rc, x), y, ctx)
        rhs = q_inner(x, apply(ra, y), ctx)
        assert abs(lhs - rhs) < 1e-10


def test_right_annihilation_matches_mirror_formula():
    for q in (-0.5, 0.0, 0.45):
        ctx = make_context(2, q, 4)
        for i in (1, 2):
            d = np.abs(right_annihilation(i, ctx) - right_annihilation_mirror(i, ctx)).max()
            assert d < 1e-10


@pytest.mark.parametrize("N, q, L", [(1, 0.2, 4), (2, 0.1, 5), (2, -0.45, 5), (3, 0.37, 4)])
def test_mirror_by_reversal_matches_word_by_word_formula(N, q, L):
    ctx = make_context(N, q, L)
    for i in range(1, N + 1):
        got = right_annihilation_mirror(i, ctx)
        assert np.abs(got - mirror_by_words(i, ctx)).max() <= 1e-15


def test_left_right_operators_commute_below_top():
    ctx = make_context(2, 0.3, 5)
    comm = creation(1, ctx) @ right_creation(2, ctx) - right_creation(2, ctx) @ creation(1, ctx)
    cut = ctx.level_offset(ctx.L - 1)
    assert np.abs(comm[:, :cut]).max() == 0.0


# ---- field operators and adjoints ---------------------------------------------------


def test_gaussian_on_vacuum():
    ctx = make_context(2, 0.3, 4)
    v = apply(gaussian(1, ctx), GradedVector.vacuum(ctx))
    assert np.allclose(v.data, GradedVector.from_word(ctx, (1,)).data)


def test_gaussian_squared_on_vacuum():
    ctx = make_context(2, 0.3, 4)
    x = gaussian(1, ctx)
    v = apply(x, apply(x, GradedVector.vacuum(ctx)))
    target = GradedVector.from_word(ctx, (1, 1)).data + GradedVector.vacuum(ctx).data
    assert np.allclose(v.data, target)


@pytest.mark.parametrize("q", [-0.7, -0.2, 0.0, 0.2, 0.7])
def test_field_norm_strictly_below_bound(q):
    ctx = make_context(2, q, 5)
    assert op_norm(gaussian(1, ctx), ctx) < 2.0 / (1.0 - abs(q))


def test_adjoint_of_creation_is_annihilation():
    ctx = make_context(2, 0.35, 4)
    for i in (1, 2):
        d = np.abs(adjoint(creation(i, ctx), ctx) - annihilation(i, ctx)).max()
        assert d < 1e-10


def test_gaussian_self_adjoint():
    ctx = make_context(2, -0.35, 4)
    d = np.abs(adjoint(gaussian(1, ctx), ctx) - gaussian(1, ctx)).max()
    assert d < 1e-10


def test_adjoint_is_involution():
    ctx = make_context(2, 0.35, 4)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((ctx.dim, ctx.dim))
    d = np.abs(adjoint(adjoint(A, ctx), ctx) - A).max()
    assert d < 1e-10


def test_adjoint_contract_many_operators():
    ctx = make_context(2, 0.4, 4)
    rng = np.random.default_rng(3)
    ops = [
        creation(1, ctx),
        annihilation(2, ctx),
        right_creation(2, ctx),
        gaussian(1, ctx),
        wick_matrix((1, 2), ctx),
    ]
    for A in ops:
        B = adjoint(A, ctx)
        for _ in range(5):
            x = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
            y = GradedVector(ctx, rng.standard_normal(ctx.dim) + 0j)
            assert abs(q_inner(apply(A, x), y, ctx) - q_inner(x, apply(B, y), ctx)) < 1e-10


# ---- word operators --------------------------------------------------------------


def test_wick_matrix_rejects_words_longer_than_the_truncation():
    # a word has no length -1: L + 1 is the only level out of range
    ctx = make_context(2, 0.1, 3)
    with pytest.raises(LevelRangeError, match="word length 4 outside"):
        wick_matrix((1, 2, 1, 2), ctx)


def test_wick_single_letter_is_field():
    ctx = make_context(2, 0.3, 4)
    assert np.allclose(wick_matrix((1,), ctx), gaussian(1, ctx))


def test_wick_double_letter():
    ctx = make_context(2, 0.3, 4)
    x = gaussian(1, ctx)
    assert np.allclose(wick_matrix((1, 1), ctx), x @ x - np.eye(ctx.dim))


@pytest.mark.parametrize("N", [2, 3])
def test_wick_vacuum_property(N):
    ctx = make_context(N, -0.3, 5)
    rng = np.random.default_rng(4)
    for n in range(1, 5):
        for _ in range(4):
            w = tuple(int(x) for x in rng.integers(1, N + 1, size=n))
            v = apply(wick_matrix(w, ctx), GradedVector.vacuum(ctx))
            assert np.abs(v.data - GradedVector.from_word(ctx, w).data).max() < 1e-12


def test_right_wick_vacuum_property():
    ctx = make_context(2, 0.4, 4)
    for w in [(1,), (2, 1), (1, 1, 2)]:
        v = right_wick_stack(ctx)[ctx.global_index(w)] @ GradedVector.vacuum(ctx).data
        assert np.abs(v - GradedVector.from_word(ctx, w).data).max() < 1e-12


def test_right_wick_is_right_multiplication():
    # x (psi_w) applied to vacuum must equal psi_x applied to the word w
    ctx = make_context(2, 0.4, 4)
    for x_word in [(1,), (2,), (1, 2)]:
        for w in [(1,), (2, 1)]:
            R = right_wick_stack(ctx)[ctx.global_index(w)]
            lhs = R @ GradedVector.from_word(ctx, x_word).data
            rhs = wick_matrix(x_word, ctx) @ GradedVector.from_word(ctx, w).data
            assert np.abs(lhs - rhs).max() < 1e-12


# ---- trace and moments -------------------------------------------------------------


def test_second_moment():
    ctx = make_context(2, 0.3, 4)
    x = gaussian(1, ctx)
    assert trace_state(x @ x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("q", [-0.6, 0.0, 0.3, 0.8])
def test_fourth_moment_against_reference(q):
    ctx = make_context(2, q, 4)
    x = gaussian(1, ctx)
    got = trace_state(x @ x @ x @ x)
    ref = ref_q_inner({(): 1.0}, ref_apply_word((1, 1, 1, 1), q), q)
    assert got == pytest.approx(2 + q, abs=1e-12)
    assert got == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("q", [-0.6, 0.3])
def test_mixed_moment_against_reference(q):
    ctx = make_context(2, q, 4)
    x1, x2 = gaussian(1, ctx), gaussian(2, ctx)
    got = trace_state(x1 @ x2 @ x1 @ x2)
    ref = ref_q_inner({(): 1.0}, ref_apply_word((1, 2, 1, 2), q), q)
    assert got == pytest.approx(q, abs=1e-12)
    assert got == pytest.approx(ref, abs=1e-12)


def pairing_moment(word, q: float) -> float:
    """Second independent oracle: sum over letter-respecting pair partitions
    of q**crossings."""
    n = len(word)
    if n % 2:
        return 0.0

    def go(remaining, pairs):
        if not remaining:
            crossings = 0
            for (a, b) in pairs:
                for (c, d) in pairs:
                    if a < c < b < d:
                        crossings += 1
            return q**crossings
        first = remaining[0]
        total = 0.0
        for t in range(1, len(remaining)):
            other = remaining[t]
            if word[first] != word[other]:
                continue
            rest = [x for x in remaining[1:] if x != other]
            total += go(rest, pairs + [(first, other)])
        return total

    return go(list(range(n)), [])


@pytest.mark.parametrize("q", [-0.55, 0.0, 0.4])
def test_moments_match_pairing_formula(q):
    ctx = make_context(2, q, 6)
    rng = np.random.default_rng(17)
    for length in (2, 4, 6):
        for _ in range(5):
            word = tuple(int(x) for x in rng.integers(1, 3, size=length))
            ops = gaussian(word[0], ctx)
            for letter in word[1:]:
                ops = ops @ gaussian(letter, ctx)
            got = trace_state(ops)
            assert got == pytest.approx(pairing_moment(word, q), abs=1e-12)
    # odd moments vanish
    x = gaussian(1, ctx)
    assert abs(trace_state(x @ x @ x)) < 1e-14


def test_moments_independent_of_truncation():
    q = 0.25
    vals = []
    for L in (4, 5, 6):
        ctx = make_context(2, q, L)
        x1, x2 = gaussian(1, ctx), gaussian(2, ctx)
        vals.append(trace_state(x1 @ x2 @ x2 @ x1))
    assert vals[0] == pytest.approx(vals[1], abs=1e-14)
    assert vals[1] == pytest.approx(vals[2], abs=1e-14)


# ---- norms ------------------------------------------------------------------------


def test_op_norm_identity():
    ctx = make_context(2, 0.3, 3)
    assert op_norm(np.eye(ctx.dim), ctx) == pytest.approx(1.0)


def test_op_norm_of_the_zero_matrix_is_zero():
    # no block has a nonzero entry, so no grade is found
    ctx = make_context(2, 0.3, 3)
    assert op_norm(np.zeros((ctx.dim, ctx.dim)), ctx) == 0.0


@pytest.mark.parametrize("N", [1, 2])
def test_op_norm_at_level_zero_with_an_empty_odd_class(N):
    ctx = make_context(N, 0.3, 0)
    assert op_norm(np.eye(1), ctx) == 1.0
    assert op_norm(np.zeros((1, 1)), ctx) == 0.0


@pytest.mark.parametrize("N, q, L", [(2, 0.3, 4), (3, -0.2, 3)])
def test_word_operators_have_the_grade_of_their_length_parity(N, q, L):
    from qfock.operators import _grades, _parity_metric

    ctx = make_context(N, q, L)
    split = _parity_metric(ctx)
    length = np.repeat(np.arange(L + 1), ctx.level_dims)
    for n, A in zip(length, left_wick_stack(ctx)):
        assert _grades(split, (A,)) == {n % 2}


def test_creation_isometry_free_case():
    ctx = make_context(2, 0.0, 4)
    assert op_norm(creation(1, ctx), ctx) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_compression_monotone():
    q = 0.4
    norms = []
    for L in (2, 3, 4, 5):
        ctx = make_context(2, q, L)
        norms.append(op_norm(gaussian(1, ctx), ctx))
    for a, b in zip(norms, norms[1:]):
        assert a <= b + 1e-12


def _dense_op_norm(A: np.ndarray, ctx) -> float:
    m = metric(ctx)
    return float(np.linalg.svd(m["Gh"] @ A @ m["Gih"], compute_uv=False)[0])


def _psi(ctx, n: int, coeffs: np.ndarray) -> np.ndarray:
    """The word operator of the level-n coefficients, summed word by word."""
    return sum(coeffs[i] * wick_matrix(ctx.index_word(n, i), ctx) for i in range(ctx.N**n))


def _sandwiched_blocks(A: np.ndarray, n: int, ctx) -> list[np.ndarray]:
    """The blocks (x, x ^ g), g = n % 2, of ``Gh A Gih`` between the classes
    x of the level-parity grading: those a level-n word operator has."""
    m = metric(ctx)
    Ah = m["Gh"] @ A @ m["Gih"]
    split = _parity_metric(ctx)
    return [Ah[np.ix_(rows, split[x ^ (n % 2)][0])] for x, (rows, _, _) in enumerate(split)]


@pytest.fixture
def sandwich_shapes(monkeypatch):
    """Shapes of the matrices whose sandwich ``op_norm`` takes the norm of."""
    import qfock.operators as operators

    shapes = []
    inner = operators._sandwich_norm

    def spy(left, B, right):
        shapes.append(B.shape)
        return inner(left, B, right)

    monkeypatch.setattr(operators, "_sandwich_norm", spy)
    return shapes


@pytest.mark.parametrize(
    "N, q, L", [(1, 0.3, 5), (2, -0.3, 5), (3, 0.1, 4), (2, 0.4, 6), (3, 0.1, 5)]
)
def test_op_norm_parity_blocks_match_full_svd(N, q, L, sandwich_shapes):
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(5)
    ops = [creation(1, ctx), annihilation(N, ctx), gaussian(1, ctx)]
    ops += [wick_matrix(w, ctx) for w in [(1,), (1, 1), (N, 1, 1), (1, N, 1, N)] if len(w) <= L]
    for n in range(1, min(4, L) + 1):
        c = rng.standard_normal(N**n) + 1j * rng.standard_normal(N**n)
        ops.append(_psi(ctx, n, c))
    for A in ops:
        sandwich_shapes.clear()
        assert op_norm(A, ctx) == pytest.approx(_dense_op_norm(A, ctx), rel=1e-13, abs=0)
        assert len(sandwich_shapes) == 2 and (ctx.dim, ctx.dim) not in sandwich_shapes


@pytest.fixture
def lanczos_sides(monkeypatch):
    """The sides of the Gram matrices whose top eigenvalue Lanczos finds."""
    import qfock.operators as operators

    sides = []
    inner = operators._extreme_eig

    def spy(matvec, v, dtype, which):
        sides.append(v.size)
        return inner(matvec, v, dtype, which)

    monkeypatch.setattr(operators, "_extreme_eig", spy)
    return sides


def _top_singular_cases(side: int, rng) -> list[np.ndarray]:
    """Real, complex, tall, wide and rank-deficient matrices whose smaller
    side is ``side``, two with an exactly repeated top singular value
    (a block twice on the diagonal), and the zero matrix."""
    h = side // 2
    # the block B twice on the diagonal, with a zero row for an odd side
    twice = np.pad(np.kron(np.eye(2), rng.standard_normal((h, h + 3))), ((0, side - 2 * h), (0, 0)))
    return [
        rng.standard_normal((side, side)),
        rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)),
        rng.standard_normal((side + 40, side)),
        rng.standard_normal((side, side + 40)) + 1j * rng.standard_normal((side, side + 40)),
        rng.standard_normal((side + 11, 4)) @ rng.standard_normal((4, side)),
        twice,
        (twice * (1 - 0.5j)).T,
        np.zeros((side, side)),
    ]


@pytest.mark.parametrize("side", [_GRAM_MAX_SIDE - 1, _GRAM_MAX_SIDE, _GRAM_MAX_SIDE + 1, 2 * _GRAM_MAX_SIDE])
def test_top_singular_matches_svd_on_both_sides_of_the_gram_size(side, lanczos_sides):
    rng = np.random.default_rng(side)
    for S in _top_singular_cases(side, rng):
        assert min(S.shape) == side
        lanczos_sides.clear()
        want = float(np.linalg.svd(S, compute_uv=False)[0])
        got = _top_singular(S)
        assert got == pytest.approx(want, rel=1e-13, abs=0)
        # the Gram matrix up to the size constant, Lanczos on its side above
        assert lanczos_sides == ([side] if side > _GRAM_MAX_SIDE else [])
    assert _top_singular(np.zeros((side, side + 1), dtype=complex)) == 0.0


@pytest.mark.parametrize("N, q, L", [(3, 0.1, 5), (4, -0.2, 4)])
def test_op_norm_above_the_gram_size_matches_full_svd(N, q, L, lanczos_sides):
    # operators of even grade keep the 273-dim even (N = 4) or odd (N = 3)
    # class, whose block goes to Lanczos
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(9)
    x1, x2 = gaussian(1, ctx), gaussian(2, ctx)
    c = rng.standard_normal(N**2) + 1j * rng.standard_normal(N**2)
    for A in (x1 @ x2, wick_matrix((1, 2), ctx), wick_matrix((2, 2), ctx), _psi(ctx, 2, c)):
        lanczos_sides.clear()
        assert op_norm(A, ctx) == pytest.approx(_dense_op_norm(A, ctx), rel=1e-13, abs=0)
        assert lanczos_sides == [273]


def test_op_norm_mixed_parity_takes_whole_matrix(sandwich_shapes):
    ctx = make_context(2, 0.3, 4)
    A = np.eye(ctx.dim) + creation(1, ctx)
    assert op_norm(A, ctx) == pytest.approx(_dense_op_norm(A, ctx), rel=1e-13, abs=0)
    assert sandwich_shapes == [(ctx.dim, ctx.dim)]


def test_hs_norm_of_identity():
    ctx = make_context(2, 0.3, 2)
    assert hs_norm(np.eye(ctx.dim), ctx) == pytest.approx(np.sqrt(ctx.dim))


# ---- product constant and the norm inequality ---------------------------------------


def test_c_q_rejects_q_outside_the_unit_interval():
    for q in (1.0, -1.0, 1.5):
        with pytest.raises(QRangeError):
            c_q(q)


def test_c_q_at_zero():
    assert c_q(0.0) == 1.0


def test_c_q_against_partial_product():
    q = 0.5
    prod = 1.0
    for m in range(1, 200):
        prod *= 1 - q**m
    assert c_q(q) == pytest.approx(1.0 / prod, rel=1e-12)


def test_bozejko_free_case_bound():
    ctx = make_context(2, 0.0, 4)
    xi = GradedVector.zero(ctx)
    xi.level(2)[:] = [1.0, 2.0, -1.0, 0.5]
    rep = bozejko_check(xi, ctx)
    assert rep.c_q == 1.0
    assert rep.bound == pytest.approx(3 * norm_q(xi))
    assert rep.passed


def test_bozejko_requires_homogeneous():
    ctx = make_context(2, 0.3, 4)
    xi = GradedVector.zero(ctx)
    xi.level(1)[0] = 1.0
    xi.level(2)[0] = 1.0
    with pytest.raises(HomogeneityError):
        bozejko_check(xi, ctx)


def test_bozejko_single_letter_instance():
    ctx = make_context(2, 0.5, 5)
    xi = GradedVector.from_word(ctx, (1,))
    rep = bozejko_check(xi, ctx)
    assert rep.lhs <= 2 * c_q(0.5) ** 1.5 + 1e-9
    assert rep.passed


def test_bozejko_random_sweep_small():
    rng = np.random.default_rng(11)
    for q in (-0.5, 0.4):
        ctx = make_context(2, q, 5)
        for n in (1, 2, 3, 4):
            xi = GradedVector.zero(ctx)
            xi.level(n)[:] = rng.standard_normal(2**n)
            rep = bozejko_check(xi, ctx)
            assert rep.passed
            assert rep.lhs >= rep.l2 - 1e-9


@pytest.mark.parametrize(
    "N, q, L",
    [
        (1, 0.3, 5), (2, -0.3, 5), (3, 0.1, 5), (2, 0.4, 6), (2, 0.9, 5), (2, 0.1, 2), (2, 0.3, 0),
        (3, -0.3, 5), (3, 0.0, 5), (4, -0.7, 4),
    ],
)
def test_bozejko_lhs_matches_dense_svd(N, q, L):
    # every level: the short store (n <= 3), the recursion above it, L < 3
    # and the empty odd class at L = 0; at (3, q, 5) and (4, q, 4) the
    # 273-square blocks of the words of even length take the Lanczos path of
    # _top_singular
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(7)
    for n in range(L + 1):
        xi = GradedVector.zero(ctx)
        c = xi.level(n)
        c[:] = rng.standard_normal(N**n) + 1j * rng.standard_normal(N**n)
        want = _dense_op_norm(_psi(ctx, n, c), ctx)
        assert bozejko_check(xi, ctx).lhs == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("kind", ["complex", "sparse", "real"])
@pytest.mark.parametrize("N, q, L", [(1, 0.3, 5), (2, -0.3, 5), (3, 0.1, 5), (2, 0.4, 6)])
def test_linear_wick_sum_matches_word_by_word(N, q, L, kind):
    ctx = make_context(N, q, L)
    rng = np.random.default_rng(N + 10 * L)
    for n in range(1, 6):
        c = rng.standard_normal(N**n)
        if kind != "real":
            c = c + 1j * rng.standard_normal(N**n)
        if kind == "sparse":
            c[rng.random(N**n) < 0.7] = 0.0
            c[0] = 1.0
        want = _sandwiched_blocks(_psi(ctx, n, c), n, ctx)
        got = [re + 1j * im for re, im in _psi_blocks(np.stack([c.real, c.imag]), n, ctx)]
        scale = max(np.abs(B).max(initial=0.0) for B in want)
        for G, B in zip(got, want):
            assert G.shape == B.shape
            assert np.abs(G - B).max() <= 1e-13 * scale


@pytest.mark.parametrize("N, q, L", [(1, 0.3, 3), (2, -0.3, 4), (3, 0.1, 3), (2, 0.1, 2), (2, 0.3, 0)])
def test_level_stack_matches_word_operators(N, q, L):
    ctx = make_context(N, q, L)
    store = _short_blocks(ctx)
    assert len(store) == min(L, 3) + 1
    for n, level in enumerate(store):
        for idx in range(N**n):
            want = _sandwiched_blocks(wick_matrix(ctx.index_word(n, idx), ctx), n, ctx)
            scale = max(np.abs(B).max(initial=0.0) for B in want)
            for S, B in zip(level, want):
                assert S.shape == (N**n,) + B.shape
                assert np.abs(S[idx] - B).max(initial=0.0) <= 1e-13 * scale


def test_bozejko_store_holds_no_plain_stack():
    ctx = make_context(3, 0.1, 5)
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = 1 + trial % 4
        xi = GradedVector.zero(ctx)
        xi.level(n)[:] = rng.standard_normal(3**n) + 1j * rng.standard_normal(3**n)
        bozejko_check(xi, ctx)
    assert not [key for key in ctx._memo if isinstance(key, tuple) and key[0] == "stack"]
    # nor the plain field operators its level 1 is sandwiched from
    assert not [k for k in ctx._memo if isinstance(k, tuple) and k[0] in ("crea", "anni", "gauss")]
    # the plain levels 0..3 would be 1 + 3 + 9 + 27 matrices of dim^2 floats
    stored = sum(B.nbytes for level in _short_blocks(ctx) for B in level)
    assert stored <= (1 + 3 + 9 + 27) * ctx.dim**2 * 8 / 2


@pytest.mark.parametrize("N, q, L", [(1, 0.3, 3), (2, -0.3, 4), (3, 0.1, 5)])
def test_store_level_1_is_the_sandwiched_field_operators(N, q, L):
    # bit for bit the blocks of Gh X_i Gih cut from the memoized field operators
    ctx = make_context(N, q, L)
    level = _short_blocks(ctx)[1]
    split = _parity_metric(ctx)
    for x, (rows, Gh, _) in enumerate(split):
        cols, _, Gih = split[x ^ 1]
        want = [Gh @ gaussian(i, ctx)[np.ix_(rows, cols)] @ Gih for i in range(1, N + 1)]
        assert np.array_equal(level[x], np.stack(want))


def _right_word_matrix(w, ctx):
    # the per-word first-letter recursion of right multiplication, factors
    # in swapped order: psi_(w_2..) Y_(w_1) minus the paired shorter words
    if not w:
        return np.eye(ctx.dim)
    M = _right_word_matrix(w[1:], ctx) @ right_gaussian(w[0], ctx)
    for j in range(2, len(w) + 1):
        if w[0] == w[j - 1]:
            M = M - ctx.q ** (j - 2) * _right_word_matrix(w[1 : j - 1] + w[j:], ctx)
    return M


@pytest.mark.parametrize("N, q, L", [(1, 0.3, 6), (2, -0.3, 6), (2, 0.1, 5), (3, -0.2, 4)])
def test_full_stacks_equal_word_by_word_recursions(N, q, L):
    # the level-by-level builder repeats the per-word arithmetic exactly
    ctx = make_context(N, q, L)
    A, B = left_wick_stack(ctx), right_wick_stack(ctx)
    for n in range(L + 1):
        for w in ctx.words(n):
            assert np.array_equal(A[ctx.global_index(w)], wick_matrix(w, ctx))
            assert np.array_equal(B[ctx.global_index(w)], _right_word_matrix(w, ctx))


def test_bozejko_builds_no_single_word_operator(monkeypatch):
    import qfock.operators as operators

    def refuse(w, ctx):
        raise AssertionError(f"word {w} built on its own")

    # the level stacks are the only copy of each word operator
    monkeypatch.setattr(operators, "wick_matrix", refuse)
    ctx = make_context(3, 0.1, 5)
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        xi = GradedVector.zero(ctx)
        xi.level(n)[:] = rng.standard_normal(3**n) + 1j * rng.standard_normal(3**n)
        assert bozejko_check(xi, ctx).passed


def test_single_word_requests_do_not_build_a_level():
    import tracemalloc

    ctx = make_context(3, 0.1, 5)
    for i in (1, 2):
        gaussian(i, ctx)
    tracemalloc.start()
    try:
        for w in [(1,), (1, 1), (1, 2), (2, 1, 1)]:
            wick_matrix(w, ctx)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # six word matrices of 1 MiB each; the whole of levels 0..3 is 40 of them
    assert allocated < 10 * 2**20


def test_right_gaussian_commutes_with_left():
    ctx = make_context(2, 0.3, 5)
    a = gaussian(1, ctx)
    b = right_gaussian(2, ctx)
    cut = ctx.level_offset(ctx.L - 1)
    assert np.abs((a @ b - b @ a)[:, :cut]).max() < 1e-12


def nonzero_blocks_off_shift(A: np.ndarray, shift: int, ctx) -> list[tuple[int, int]]:
    """The level blocks (n_in, n_out) with n_out != n_in + shift in which A
    has a nonzero entry."""
    return [
        (n_in, n_out)
        for n_in in range(ctx.L + 1)
        for n_out in range(ctx.L + 1)
        if n_out != n_in + shift
        and np.abs(A[ctx.level_slice(n_out), ctx.level_slice(n_in)]).max(initial=0.0) > 0.0
    ]


def test_grading_tag_validation():
    ctx = make_context(2, 0.3, 3)
    assert nonzero_blocks_off_shift(np.eye(ctx.dim), +1, ctx) == [(n, n) for n in range(4)]
    # block-diagonal matrices have shift 0
    assert nonzero_blocks_off_shift(np.eye(ctx.dim), 0, ctx) == []
    assert nonzero_blocks_off_shift(creation(1, ctx), +1, ctx) == []


@pytest.mark.parametrize("q", [-0.4, 0.0, 0.3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_builders_vanish_outside_their_level_shift(N, q):
    ctx = make_context(N, q, 3)
    built = [(xi_multiplier(ctx), 0)]
    for i in range(1, N + 1):
        built += [(creation(i, ctx), +1), (right_creation(i, ctx), +1)]
        built += [(annihilation(i, ctx), -1), (right_annihilation(i, ctx), -1)]
        built += [(right_annihilation_mirror(i, ctx), -1)]
    for A, shift in built:
        assert nonzero_blocks_off_shift(A, shift, ctx) == []
        assert nonzero_blocks_off_shift(adjoint(A, ctx), -shift, ctx) == []


@pytest.mark.parametrize("shape", [(14, 14), (15, 14), (15,)])
def test_metric_functions_reject_a_wrong_shape(shape):
    ctx = make_context(2, 0.3, 3)
    with pytest.raises(ValueError, match="does not match context dim 15"):
        adjoint(np.zeros(shape), ctx)
    with pytest.raises(ValueError, match="does not match context dim 15"):
        op_norm(np.zeros(shape), ctx)
