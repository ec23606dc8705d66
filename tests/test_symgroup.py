import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import make_context
from qfock.errors import CapacityError
from qfock.symgroup import (
    Permutation,
    _letters,
    cycle_perm,
    mn_matrix,
    perm_action,
    pq_direct,
    pq_recursive,
)

from dense_oracle import inversions, mn_inverse, mn_inverse_readings


def ctx(N=2, q=0.3, L=6):
    return make_context(N, q, L)


def test_inversions_identity():
    assert inversions(Permutation.identity(4)) == 0


def test_inversions_reversal():
    assert inversions(Permutation((3, 2, 1))) == 3


def test_inversions_adjacent_swap():
    assert inversions(Permutation((2, 1, 3))) == 1


@given(st.permutations(list(range(1, 7))), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_inversions_adjacent_transposition_changes_by_one(images, pos):
    p = Permutation(tuple(images))
    swapped = list(images)
    swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
    q = Permutation(tuple(swapped))
    assert abs(inversions(p) - inversions(q)) == 1


def test_cycle_perm_identity_range():
    assert cycle_perm(1, 1, 3).images == (1, 2, 3)


def test_cycle_perm_full():
    assert cycle_perm(1, 3, 3).images == (2, 3, 1)


def test_cycle_perm_transposition():
    assert cycle_perm(2, 3, 4).images == (1, 3, 2, 4)


def test_cycle_perm_rejects_bad_range():
    with pytest.raises(ValueError):
        cycle_perm(3, 2, 4)
    with pytest.raises(ValueError):
        cycle_perm(1, 5, 4)


def test_perm_action_identity():
    c = ctx()
    M = perm_action(Permutation.identity(2), c)
    assert np.array_equal(M, np.eye(4))


def test_perm_action_swap_sends_12_to_21():
    c = ctx()
    M = perm_action(Permutation((2, 1)), c)
    src = c.word_index((1, 2))
    tgt = c.word_index((2, 1))
    assert M[tgt, src] == 1.0
    assert M[:, src].sum() == 1.0


def test_perm_action_is_orthogonal():
    c = ctx()
    M = perm_action(Permutation((3, 1, 2)), c)
    assert np.allclose(M @ M.T, np.eye(8))


def test_pq_direct_level_one_is_identity():
    c = ctx()
    assert np.array_equal(pq_direct(1, c), np.eye(2))


def test_pq_direct_scalar_alphabet():
    c = make_context(1, 0.3, 6)
    assert np.allclose(pq_direct(2, c), [[1 + 0.3]])


def test_pq_direct_swap_entry_is_q():
    c = ctx()
    M = pq_direct(2, c)
    assert M[c.word_index((1, 2)), c.word_index((2, 1))] == pytest.approx(0.3)


def pq_loop(n: int, c) -> np.ndarray:
    """The S_n sum one permutation at a time, in itertools order (the oracle)."""
    N, q = c.N, c.q
    d = N**n
    letters = _letters(n, N)
    powers = N ** np.arange(n)
    M = np.zeros((d, d))
    src = np.arange(d)
    for images in itertools.permutations(range(1, n + 1)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j]
        )
        tgt = letters[:, [images[t] - 1 for t in range(n)]] @ powers
        M[tgt, src] += q**inv
    return M


@pytest.mark.parametrize("q", [-0.3, 0.0, 0.3])
@pytest.mark.parametrize(
    "N, n",
    [(1, n) for n in range(1, 9)]
    + [(2, n) for n in range(1, 9)]
    + [(3, n) for n in range(1, 7)],
)
def test_pq_direct_bitwise_equals_permutation_loop(N, n, q):
    c = make_context(N, q, n)
    assert np.array_equal(pq_direct(n, c), pq_loop(n, c))


@pytest.mark.parametrize("q", [-0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pq_direct_symmetric_psd(q, n):
    c = make_context(2, q, 5)
    M = pq_direct(n, c)
    assert np.abs(M - M.T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > 0


def test_mn_matrix_small():
    c = ctx()
    assert np.array_equal(mn_matrix(1, c), np.eye(2))
    swap = perm_action(Permutation((2, 1)), c)
    assert np.allclose(mn_matrix(2, c), np.eye(4) + 0.3 * swap)
    c1 = make_context(1, 0.3, 6)
    assert np.allclose(mn_matrix(3, c1), [[1 + 0.3 + 0.09]])


@pytest.mark.parametrize("q", [-0.9, -0.5, -0.1, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_recursion_matches_direct_sum(q, n):
    c = make_context(2, q, 6)
    diff = np.abs(pq_recursive(n, c) - pq_direct(n, c)).max()
    assert diff < 1e-12


def test_mn_inverse_scalar():
    c = make_context(1, 0.3, 6)
    assert np.allclose(mn_inverse(2, c), [[1 / 1.3]])


def test_mn_inverse_swap_block():
    # oracle: direct inversion of the 2-block
    c = ctx()
    swap = perm_action(Permutation((2, 1)), c)
    expected = (np.eye(4) - 0.3 * swap) / (1 - 0.09)
    assert np.allclose(mn_inverse(2, c), expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mn_inverse_is_inverse(n):
    c = ctx()
    prod = mn_matrix(n, c) @ mn_inverse(n, c)
    assert np.abs(prod - np.eye(2**n)).max() < 1e-10


def test_inverse_formula_reading_resolution():
    # the factor-wise reading of the printed product formula matches direct
    # inversion; inverting the whole second product does not (order q^7 error)
    c = ctx()
    readings = mn_inverse_readings(5, c)
    assert readings["factorwise"] < 1e-10
    assert readings["wholeprod"] > 1e-6


def test_pq_direct_capacity_guard():
    c = make_context(2, 0.1, 6, cap_override=100000)
    with pytest.raises(CapacityError):
        pq_direct(9, c)


def test_word_matrices_take_the_context_cap_override(monkeypatch):
    plain = make_context(2, 0.1, 3)
    monkeypatch.setenv("QFOCK_SIZE_CAP", "5")
    c = make_context(2, 0.1, 3, cap_override=100)
    for build in (
        lambda: perm_action(cycle_perm(1, 3, 3), c),
        lambda: pq_direct(3, c),
        lambda: pq_recursive(3, c),
        lambda: mn_inverse(3, c),
    ):
        assert build().shape == (8, 8)
    with pytest.raises(CapacityError, match="cap 5"):
        pq_direct(3, plain)
