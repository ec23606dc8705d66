"""Symmetric-group combinatorics on word spaces.

Words of length ``n`` over the alphabet ``{1..N}`` index the tensor basis of
the level-``n`` slice of the Fock space.  A permutation ``p`` acts on a word
by position shuffle, ``w -> (w[p(1)], ..., w[p(n)])``, and the inversion-number
generating sum ``sum_{p in S_n} q^inv(p) * action(p)`` is the fundamental
object here: it is simultaneously the level-``n`` Gram matrix of the deformed
inner product and the projection-defining element of the group algebra.

Indexing convention: a word ``(w_1, ..., w_n)`` has integer index
``sum_t (w_t - 1) * N**(t-1)`` (first letter = least significant digit), fixed
globally so matrix layouts are reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, MAX_PERM_LENGTH, check_dim

# index entries per chunk of the S_n sum (256 KiB of intp)
_PQ_CHUNK = 1 << 15

__all__ = [
    "Permutation",
    "cycle_perm",
    "perm_action",
    "pq_direct",
    "mn_matrix",
    "pq_recursive",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..n}`` in one-line notation (images[i-1] = p(i))."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def cycle_perm(k: int, l: int, n: int) -> Permutation:
    """The cycle (k -> l): sends k+i to k+i+1 for 0 <= i <= l-k-1 and l to k.

    Identity outside [k, l]; (k -> k) is the identity.
    """
    if not (1 <= k <= l <= n):
        raise ValueError(f"need 1 <= k <= l <= n, got k={k}, l={l}, n={n}")
    images = list(range(1, n + 1))
    for i in range(l - k):
        images[k + i - 1] = k + i + 1
    if l > k:
        images[l - 1] = k
    return Permutation(tuple(images))


def _letters(n: int, N: int) -> np.ndarray:
    """(N**n, n) array; row i holds the 0-based letters of the word with index i."""
    idx = np.arange(N**n)
    return np.stack([(idx // N**t) % N for t in range(n)], axis=1)


def perm_action(p: Permutation, ctx) -> np.ndarray:
    """0/1 matrix of the position shuffle w -> (w[p(1)], ..., w[p(n)]).

    Note the action is contravariant: the matrix of ``p`` followed by ``s``
    composes as ``action(s @ p)`` with arguments swapped, which is why sums
    over the whole group (with inversion-invariant weights) are insensitive
    to the convention but products of individual elements are not.
    """
    n = len(p)
    N = ctx.N
    if n > ctx.L:
        raise ValueError(f"permutation length {n} exceeds truncation level {ctx.L}")
    d = N**n
    check_dim(d, f"word matrix at level {n}", ctx.cap_override)
    letters = _letters(n, N)
    powers = N ** np.arange(n)
    tgt = letters[:, [p(t + 1) - 1 for t in range(n)]] @ powers
    M = np.zeros((d, d))
    M[tgt, np.arange(d)] = 1.0
    return M


def pq_direct(n: int, ctx) -> np.ndarray:
    """Sum over all of S_n of q^inv(p) times the word action of p, inv(p) the
    number of pairs i < j with p(i) > p(j).

    Vectorized over the group, but each entry still adds its terms one at a
    time in ``itertools.permutations`` order (``np.add.at`` is unbuffered and
    sequential), so the result is bit-for-bit that of a per-permutation loop.
    Permutations go in chunks of ``_PQ_CHUNK // N**n``, which bounds the
    index temporaries.
    """
    N, q = ctx.N, ctx.q
    d = N**n
    check_dim(d, f"word matrix at level {n}", ctx.cap_override)
    if n > MAX_PERM_LENGTH:
        raise CapacityError(
            f"direct S_n sum needs n! = {math.factorial(n)} terms; "
            f"n = {n} exceeds the cap {MAX_PERM_LENGTH}"
        )
    # row p: 0-based images of the p-th permutation in itertools order
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.intp,
        count=n * math.factorial(n),
    ).reshape(-1, n)
    inv = sum((perms[:, i, None] > perms[:, i + 1 :]).sum(axis=1) for i in range(n))
    weights = np.array([q**k for k in range(n * (n - 1) // 2 + 1)])[inv]
    # place[t, k]: flat row offset of letter k of every source word when it
    # moves to position t of the target word
    src = np.arange(d)
    place = (N ** np.arange(n) * d)[:, None, None] * _letters(n, N).T
    M = np.zeros((d, d))
    step = max(1, _PQ_CHUNK // d)
    for s in range(0, len(perms), step):
        chunk = perms[s : s + step]
        flat = place[0, chunk[:, 0]] + src
        for t in range(1, n):
            flat += place[t, chunk[:, t]]
        np.add.at(M.reshape(-1), flat.reshape(-1), np.repeat(weights[s : s + step], d))
    return M


def mn_matrix(n: int, ctx) -> np.ndarray:
    """sum_{k=1..n} q^(k-1) * action of the cycle (1 -> k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = ctx.N**n
    M = np.zeros((d, d))
    for k in range(1, n + 1):
        M += ctx.q ** (k - 1) * perm_action(cycle_perm(1, k, n), ctx)
    return M


def _embed_tail(prev: np.ndarray, N: int) -> np.ndarray:
    # permutations acting on positions 2..n leave the least significant digit
    # (position 1) alone, so the embedded matrix is kron(prev, I_N)
    return np.kron(prev, np.eye(N))


def pq_recursive(n: int, ctx) -> np.ndarray:
    """The inversion-weighted S_n sum built level by level.

    Group-algebra identity: the S_n sum factors as (embedded S_{n-1} sum,
    acting on positions 2..n) times mn_matrix(n).  Because the word action is
    contravariant, the two factors multiply in swapped order at matrix level.
    """
    N = ctx.N
    check_dim(N**n, f"word matrix at level {n}", ctx.cap_override)
    P = np.ones((1, 1))
    for m in range(1, n + 1):
        P = mn_matrix(m, ctx) @ _embed_tail(P, N)
    return P
