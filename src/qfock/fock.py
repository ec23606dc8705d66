"""Truncated deformed Fock space: contexts, graded vectors, Gram blocks.

A context fixes the alphabet size ``N``, the deformation parameter ``q`` in
(-1, 1) and a truncation level ``L``.  The underlying vector space is the
direct sum of word spaces of length 0..L (level 0 is the one-dimensional
vacuum slot); all coefficients are complex.  The deformed inner product of
two level-``n`` words is the (word, word) entry of the inversion-weighted
symmetric group sum, so the level-``n`` Gram matrix is exactly
``pq_direct(n)`` in the word basis.  Inner products are conjugate-linear in
the first argument.

Contexts are immutable after construction except for one memo,
:meth:`FockContext.memo`, that holds every object built once per context
(Gram blocks, metric, word operators, stacks, the deformation operator and
its spectral range).  It is write-once per key: the first stored value wins
(``dict.setdefault``), so racing callers all get the same object, and a
build that raises stores nothing.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import symgroup
from .errors import (
    AlphabetError,
    ContextMismatchError,
    DegenerateMetricError,
    LevelRangeError,
    QRangeError,
    check_dim,
)

__all__ = [
    "FockContext",
    "GradedVector",
    "GramBlock",
    "make_context",
    "q_inner",
    "gram",
    "orthonormal_vectors",
]

_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class GramBlock:
    """Level-``n`` Gram matrix, its inverse square root, and its smallest eigenvalue."""

    n: int
    gamma: np.ndarray
    b: np.ndarray
    min_eig: float


def _freeze(value) -> None:
    """Make the arrays of ``value`` read-only: the value itself, or those it
    holds in tuples, lists, dict values and dataclass fields, at any depth.
    A context met on the way (the one of an element, a doubled context) is
    left alone: its memo freezes its own values."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, (type, FockContext)):
        for f in dataclasses.fields(value):
            _freeze(getattr(value, f.name))


@dataclass(eq=False)
class FockContext:
    N: int
    q: float
    L: int
    cap_override: int | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def memo(self, key, build):
        """The value stored under ``key``, else ``build()`` stored and
        returned.  The first stored value wins, so concurrent callers get the
        same object; a build that raises stores nothing.  The arrays of a
        value are stored read-only (:func:`_freeze`): callers share them, so
        writing into one would change every later result of the context."""
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            _freeze(value)
            return self._memo.setdefault(key, value)

    # ---- basis bookkeeping -------------------------------------------------

    @property
    def level_dims(self) -> list[int]:
        return [self.N**n for n in range(self.L + 1)]

    @property
    def dim(self) -> int:
        if self.N == 1:
            return self.L + 1
        return (self.N ** (self.L + 1) - 1) // (self.N - 1)

    def level_offset(self, n: int) -> int:
        if self.N == 1:
            return n
        return (self.N**n - 1) // (self.N - 1)

    def require_level(self, n: int, what: str = "level") -> None:
        """Raise :class:`LevelRangeError` unless ``0 <= n <= L``: the one
        range check of levels, word lengths and permutation lengths."""
        if not 0 <= n <= self.L:
            raise LevelRangeError(f"{what} {n} outside the truncation levels 0..{self.L}")

    def level_slice(self, n: int) -> slice:
        self.require_level(n)
        off = self.level_offset(n)
        return slice(off, off + self.N**n)

    def word_index(self, w: tuple[int, ...]) -> int:
        """Index of a word within its level (first letter least significant)."""
        idx = 0
        for t, letter in enumerate(w):
            if not (1 <= letter <= self.N):
                raise AlphabetError(f"letter {letter} outside 1..{self.N}")
            idx += (letter - 1) * self.N**t
        return idx

    def index_word(self, n: int, idx: int) -> tuple[int, ...]:
        return tuple((idx // self.N**t) % self.N + 1 for t in range(n))

    def words(self, n: int) -> list[tuple[int, ...]]:
        return [self.index_word(n, i) for i in range(self.N**n)]

    def global_index(self, w: tuple[int, ...]) -> int:
        self.require_level(len(w), "word length")
        return self.level_offset(len(w)) + self.word_index(w)

    def compatible(self, other: "FockContext") -> bool:
        return (self.N, self.q, self.L) == (other.N, other.q, other.L)

    def require_compatible(self, other: "FockContext") -> None:
        if not self.compatible(other):
            raise ContextMismatchError(
                f"contexts differ: (N,q,L)=({self.N},{self.q},{self.L}) vs "
                f"({other.N},{other.q},{other.L})"
            )


@dataclass
class GradedVector:
    """Element of the truncated space in word coordinates (flat complex array).

    ``data[ctx.level_slice(n)]`` is the level-``n`` coefficient array of
    length N**n; index 0 is the vacuum coefficient.
    """

    ctx: FockContext
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.ctx.dim,):
            raise ValueError(
                f"coefficient array has length {self.data.shape}, expected {self.ctx.dim}"
            )

    @staticmethod
    def zero(ctx: FockContext) -> "GradedVector":
        return GradedVector(ctx, np.zeros(ctx.dim, dtype=complex))

    @staticmethod
    def vacuum(ctx: FockContext) -> "GradedVector":
        v = GradedVector.zero(ctx)
        v.data[0] = 1.0
        return v

    @staticmethod
    def from_word(ctx: FockContext, w: tuple[int, ...]) -> "GradedVector":
        v = GradedVector.zero(ctx)
        v.data[ctx.global_index(w)] = 1.0
        return v

    def level(self, n: int) -> np.ndarray:
        return self.data[self.ctx.level_slice(n)]

    def support_levels(self) -> list[int]:
        return [
            n
            for n in range(self.ctx.L + 1)
            if np.abs(self.level(n)).max(initial=0.0) > 0.0
        ]

    def copy(self) -> "GradedVector":
        return GradedVector(self.ctx, self.data.copy())

    def __add__(self, other: "GradedVector") -> "GradedVector":
        self.ctx.require_compatible(other.ctx)
        return GradedVector(self.ctx, self.data + other.data)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        self.ctx.require_compatible(other.ctx)
        return GradedVector(self.ctx, self.data - other.data)

    def __mul__(self, c: complex) -> "GradedVector":
        return GradedVector(self.ctx, self.data * c)

    __rmul__ = __mul__


def make_context(N: int, q: float, L: int, cap_override: int | None = None) -> FockContext:
    """Validated context constructor.

    Raises :class:`AlphabetError` for N < 1, :class:`QRangeError` for q
    outside (-1, 1), :class:`LevelRangeError` for L < 0 and
    :class:`CapacityError` when the total dimension exceeds the cap.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise AlphabetError(f"alphabet size must be a positive integer, got {N!r}")
    if not (-1.0 < q < 1.0):
        raise QRangeError(f"deformation parameter must satisfy -1 < q < 1, got {q}")
    if not isinstance(L, (int, np.integer)) or L < 0:
        raise LevelRangeError(f"truncation level must be a non-negative integer, got {L!r}")
    ctx = FockContext(int(N), float(q), int(L), cap_override)
    check_dim(ctx.dim, f"Fock space with N={N}, L={L}", cap_override)
    return ctx


def _rev_perm(ctx: FockContext) -> np.ndarray:
    """Word-reversal permutation of the graded basis (an involution)."""

    def build():
        perm = np.empty(ctx.dim, dtype=int)
        for n in range(ctx.L + 1):
            off = ctx.level_offset(n)
            for idx in range(ctx.N**n):
                perm[off + idx] = off + ctx.word_index(ctx.index_word(n, idx)[::-1])
        return perm

    return ctx.memo("rev", build)


def _gram_eig(n: int, ctx: FockContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level-``n`` Gram matrix and its eigendecomposition ``(gamma, w, U)``,
    shared by :func:`gram` and :func:`metric`; raises
    :class:`DegenerateMetricError` for an eigenvalue at or below 1e-12."""

    def build():
        if n == 0:
            gamma = np.ones((1, 1))
        else:
            gamma = symgroup.pq_direct(n, ctx)
        w, U = np.linalg.eigh(gamma)
        min_eig = float(w.min())
        if min_eig <= _EIG_FLOOR:
            raise DegenerateMetricError(
                f"Gram matrix at level {n} has eigenvalue {min_eig:.3e} <= {_EIG_FLOOR}; "
                f"the deformed metric is numerically degenerate at (q={ctx.q}, N={ctx.N})"
            )
        return gamma, w, U

    return ctx.memo(("eig", n), build)


def gram(n: int, ctx: FockContext) -> GramBlock:
    """Level-``n`` Gram block, memoized on the context.

    ``gamma`` is the inversion-weighted S_n sum in the word basis; ``b`` is
    its inverse square root from a full symmetric eigendecomposition.
    Eigenvalues at or below 1e-12 raise :class:`DegenerateMetricError` rather
    than being clamped, since clamping would silently change the geometry.
    """
    ctx.require_level(n)

    def build():
        gamma, w, U = _gram_eig(n, ctx)
        b = (U * w**-0.5) @ U.T
        return GramBlock(n, gamma, b, float(w.min()))

    return ctx.memo(("gram", n), build)


def metric(ctx: FockContext) -> dict[str, np.ndarray]:
    """Full-space metric matrices: G, its inverse, and both square roots.

    Block diagonal over levels; memoized.  ``G`` realizes the deformed inner
    product against the standard one, ``Gh``/``Gih`` are G**(1/2), G**(-1/2).
    """

    def build():
        d = ctx.dim
        G = np.zeros((d, d))
        Gi = np.zeros((d, d))
        Gh = np.zeros((d, d))
        Gih = np.zeros((d, d))
        for n in range(ctx.L + 1):
            _, w, U = _gram_eig(n, ctx)
            s = ctx.level_slice(n)
            G[s, s] = (U * w) @ U.T
            Gi[s, s] = (U / w) @ U.T
            Gh[s, s] = (U * np.sqrt(w)) @ U.T
            Gih[s, s] = (U / np.sqrt(w)) @ U.T
        return {"G": G, "Gi": Gi, "Gh": Gh, "Gih": Gih}

    return ctx.memo("metric", build)


def q_inner(v: GradedVector, w: GradedVector, ctx: FockContext | None = None) -> complex:
    """Deformed inner product, conjugate-linear in the first argument.

    Levels are orthogonal by construction; within level ``n`` the product is
    ``conj(v_n) . Gamma_n . w_n``.
    """
    if ctx is None:
        ctx = v.ctx
    ctx.require_compatible(v.ctx)
    ctx.require_compatible(w.ctx)
    total = 0.0 + 0.0j
    for n in range(ctx.L + 1):
        vn = v.level(n)
        wn = w.level(n)
        if not vn.any() or not wn.any():
            continue
        total += np.vdot(vn, gram(n, ctx).gamma @ wn)
    return complex(total)


def norm_q(v: GradedVector) -> float:
    val = q_inner(v, v)
    return float(np.sqrt(max(val.real, 0.0)))


def orthonormal_vectors(n: int, ctx: FockContext) -> list[GradedVector]:
    """The N**n level-``n`` vectors whose word coordinates are the columns of B_n.

    Mutually orthonormal in the deformed inner product; at q = 0 they reduce
    to the standard word basis.
    """
    block = gram(n, ctx)
    out = []
    for i in range(ctx.N**n):
        v = GradedVector.zero(ctx)
        v.level(n)[:] = block.b[:, i]
        out.append(v)
    return out
