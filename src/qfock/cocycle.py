"""Continuous-time Markov chain driven by group cocycles.

States are finite tuples of non-identity group elements.  A family of
square-summable, purely imaginary valued cocycles assigns to each element a
finitely supported function on the group; the chain jumps by splitting one
tuple component ``g = d d'`` (both parts non-identity), at total rate equal
to the sum over components and cocycles of the "interior" squared norm
(full squared norm minus the endpoint terms at the identity and at ``g``).

Two groups are built in: the integers (elements are ints, generator 1) and
free groups of finite rank (elements are freely reduced tuples of signed
generator indices).  Both are free, so extending a cocycle from arbitrary
generator values along any letter decomposition is automatically consistent.

Simulation uses one independent, counter-derived random stream per path:
path p draws from the stream of ``numpy.random.default_rng([seed, p])``, so
reports are reproducible bit for bit from (seed, parameters) and paths are
trivially parallelizable.  No generator is built: the streams' PCG64 states
are derived for a block of paths at once, by numpy's SeedSequence hash in
uint32 arrays, and the live paths of a block step together, one round per
jump, their streams advanced by PCG64's integer maps in uint64 arrays.

Explosion is never decided: paths that hit the jump budget with time left
are reported as censored, quantifying evidence, not a verdict.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    AbsorbingStateError,
    CapacityError,
    CocycleSpecError,
    SimulationInputError,
)

__all__ = [
    "GroupSpec",
    "CocycleSpec",
    "ChainState",
    "SimReport",
    "cocycle_value",
    "hat_norm_sq",
    "rate",
    "transitions",
    "simulate",
    "z_splitting_spec",
    "load_cocycle_spec",
    "parse_state",
    "encode_element",
]

_WORD_LENGTH_CAP = 4096

ChainState = tuple  # tuple of non-identity group elements


@dataclass(frozen=True)
class GroupSpec:
    """Built-in group: the integers ("int") or a free group ("free", rank k).

    Integer elements are ints; free-group elements are freely reduced tuples
    of nonzero signed generator indices (negative = inverse).
    """

    kind: str
    rank: int = 1

    def __post_init__(self):
        if self.kind not in {"int", "free"}:
            raise CocycleSpecError(f"unknown group kind {self.kind!r}")
        if self.kind == "free" and self.rank < 1:
            raise CocycleSpecError(f"free group rank must be >= 1, got {self.rank}")

    def identity(self):
        return 0 if self.kind == "int" else ()

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def multiply(self, a, b):
        if self.kind == "int":
            return a + b
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def inverse(self, a):
        if self.kind == "int":
            return -a
        return tuple(-letter for letter in reversed(a))

    def letters(self, g) -> list:
        """Decomposition of g into generator/inverse-generator letters."""
        if self.kind == "int":
            if abs(g) > _WORD_LENGTH_CAP:
                raise CapacityError(
                    f"element {g} needs {abs(g)} letters, cap is {_WORD_LENGTH_CAP}"
                )
            return [1 if g > 0 else -1] * abs(g)
        if len(g) > _WORD_LENGTH_CAP:
            raise CapacityError(
                f"word length {len(g)} exceeds cap {_WORD_LENGTH_CAP}"
            )
        return list(g)

    def letter_element(self, letter: int):
        if self.kind == "int":
            return letter
        return (letter,)


@dataclass
class CocycleSpec:
    """N cocycles given by their finitely supported generator values.

    ``gen_values[j][g]`` is a dict element -> imaginary part; all cocycle
    values are purely imaginary, stored as real numbers, and all formulas
    below use squared moduli only.  A value that is not a finite real number
    (a bool, a string, an infinity or a NaN) raises :class:`CocycleSpecError`.
    """

    group: GroupSpec
    gen_values: list[dict[int, dict]]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cocycles(self) -> int:
        return len(self.gen_values)

    def __post_init__(self):
        if not self.gen_values:
            raise CocycleSpecError("at least one cocycle is required")
        rank = 1 if self.group.kind == "int" else self.group.rank
        for j, gv in enumerate(self.gen_values):
            for g, values in gv.items():
                if not (1 <= g <= rank):
                    raise CocycleSpecError(
                        f"cocycle {j}: generator index {g} outside 1..{rank}"
                    )
                for s, v in values.items():
                    if not _finite_real(v):
                        raise CocycleSpecError(
                            f"cocycle {j}: value {v!r} of generator {g} at {s!r} "
                            f"is not a finite real number"
                        )


def _finite_real(x) -> bool:
    """True for a real number (not a bool) whose float value is finite."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _translate(spec: CocycleSpec, g, f: dict) -> dict:
    """Left translation: support s -> g s, values unchanged."""
    if spec.group.is_identity(g):
        return dict(f)
    return {spec.group.multiply(g, s): v for s, v in f.items()}


def _add_into(acc: dict, f: dict, scale: float = 1.0) -> None:
    for s, v in f.items():
        acc[s] = acc.get(s, 0.0) + scale * v
    for s in [s for s, v in acc.items() if v == 0.0]:
        del acc[s]


def cocycle_value(spec: CocycleSpec, j: int, g) -> dict:
    """Value of the j-th cocycle at g (element -> imaginary part).

    Extended from generator values along the letter decomposition via
    ``c(ab) = a . c(b) + c(a)``; the value at an inverse letter is forced to
    ``-(g^-1) . c(g)``.  Both built-in groups are free, so any decomposition
    gives the same answer.  The result is a fresh dict, the caller's to
    change.
    """
    return dict(_value(spec, j, g))


def _value(spec: CocycleSpec, j: int, g) -> dict:
    """The memoized :func:`cocycle_value` itself: every later call returns
    the same dict, so callers read it and never write to it."""
    if not (0 <= j < spec.n_cocycles):
        raise CocycleSpecError(f"cocycle index {j} outside 0..{spec.n_cocycles - 1}")
    G = spec.group
    key = (j, g)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    prefix = G.identity()
    for letter in G.letters(g):
        gen = abs(letter)
        base = spec.gen_values[j].get(gen, {})
        if letter > 0:
            val = base
        else:
            inv = G.inverse(G.letter_element(gen))
            val = {G.multiply(inv, s): -v for s, v in base.items()}
        _add_into(out, _translate(spec, prefix, val))
        prefix = G.multiply(prefix, G.letter_element(letter))
    spec._cache[key] = out
    return out


def hat_norm_sq(spec: CocycleSpec, j: int, g) -> float:
    """Squared norm of the cocycle value minus its two endpoint terms.

    Evaluated as the sum of squared moduli over the support EXCLUDING the
    identity and g itself, which equals the subtracted form exactly but is a
    sum of squares: endpoint-supported values give an exact zero instead of
    roundoff, and negative results are structurally impossible; the values
    are finite reals (:class:`CocycleSpec` checks them), so it is never NaN.
    """
    if spec.group.is_identity(g):
        raise ValueError("hat norm is only defined at non-identity elements")
    f = _value(spec, j, g)
    e = spec.group.identity()
    return float(sum(v * v for s, v in f.items() if s != g and s != e))


def rate(spec: CocycleSpec, state: ChainState) -> float:
    """Total jump rate: double sum of hat norms over components and cocycles;
    one that overflows (finite values can) raises :class:`CocycleSpecError`."""
    R = float(
        sum(
            hat_norm_sq(spec, j, g)
            for g in state
            for j in range(spec.n_cocycles)
        )
    )
    if not math.isfinite(R):
        raise CocycleSpecError(f"jump rate at state {state!r} is {R}: the cocycle values overflow")
    return R


def transitions(
    spec: CocycleSpec, state: ChainState, *, total_rate: float | None = None
) -> list[tuple[ChainState, float]]:
    """Enumerate split transitions with their probabilities.

    Component g splits as d d' with both parts non-identity; d runs over the
    support of the cocycle values at g minus the two endpoints (splits
    outside the support carry probability zero and are omitted).
    Probabilities sum to one by construction of the rate.  ``total_rate`` is
    ``rate(spec, state)`` when the caller already has it.
    """
    R = rate(spec, state) if total_rate is None else total_rate
    if R <= 0.0:
        raise AbsorbingStateError(f"state {state!r} is absorbing (rate 0)")
    G = spec.group
    out: list[tuple[ChainState, float]] = []
    for i, g in enumerate(state):
        support: dict = {}
        for j in range(spec.n_cocycles):
            f = _value(spec, j, g)
            for d, v in f.items():
                if G.is_identity(d) or d == g:
                    continue
                support[d] = support.get(d, 0.0) + v * v
        for d in sorted(support):
            w = support[d]
            if w == 0.0:
                continue
            d2 = G.multiply(G.inverse(d), g)
            new_state = state[:i] + (d, d2) + state[i + 1 :]
            out.append((new_state, w / R))
    return out


@dataclass
class SimReport:
    """Aggregated outcome of a batch of simulated paths.

    ``absorbed + censored + active_at_horizon == n_paths``; ``censored``
    counts paths that hit the jump budget with time remaining (potential
    explosion witnesses).  ``survival`` is the non-censored fraction with a
    normal-approximation binomial half-width.
    """

    n_paths: int
    horizon: float
    max_jumps: int
    seed: int
    init: ChainState
    jump_counts: list[int]
    absorbed: int
    censored: int
    active_at_horizon: int
    survival: float
    survival_halfwidth: float

    def to_jsonable(self, spec: CocycleSpec) -> dict:
        return {
            "n_paths": self.n_paths,
            "horizon": self.horizon,
            "max_jumps": self.max_jumps,
            "seed": self.seed,
            "init": [encode_element(spec, g) for g in self.init],
            "jump_counts": self.jump_counts,
            "absorbed": self.absorbed,
            "censored": self.censored,
            "active_at_horizon": self.active_at_horizon,
            "survival": self.survival,
            "survival_halfwidth": self.survival_halfwidth,
        }


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's 128-bit LCG;
# a stream's 128-bit state and increment are (high, low) uint64 word pairs
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# every operand of the uint64 arithmetic is a uint64, so none is promoted to
# float64; the low multiplier word also as 32-bit limbs, for the carry word
_M_HI = np.uint64(_PCG_MULT >> 64)
_M_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_M_LO0, _M_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
_ONE, _S11, _S32, _S58, _S63, _S64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_SEED_BLOCK = 4096  # paths whose streams are derived and stepped together


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(h)
    h = (h * mult) & _MASK32
    value = value * np.uint32(h)
    return value ^ (value >> np.uint32(16)), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _int_words(n: int) -> list[int]:
    """Little-endian uint32 words of n >= 0, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_step(s_hi, s_lo, inc_hi, inc_lo):
    """``state * M + inc`` mod 2**128 on uint64 word arrays; the high word of
    the low-word product ``s_lo * M_lo`` is summed from 32-bit limbs."""
    a0, a1 = s_lo & _LOW32, s_lo >> _S32
    p00, p01, p10 = a0 * _M_LO0, a0 * _M_LO1, a1 * _M_LO0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _M_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    lo = s_lo * _M_LO + inc_lo
    hi = carry + s_hi * _M_LO + s_lo * _M_HI + inc_hi + (lo < inc_lo)
    return hi, lo


def _pcg64_random(streams: np.ndarray) -> np.ndarray:
    """Next double of each stream of a (4, n) uint64 array of (state high,
    state low, inc high, inc low) words, whose states advance in place:
    PCG64's step, its XSL-RR output and numpy's ``(out >> 11) * 2**-53``."""
    hi, lo = _pcg64_step(*streams)
    streams[0], streams[1] = hi, lo
    x, rot = hi ^ lo, hi >> _S58
    out = (x >> rot) | (x << ((_S64 - rot) & _S63))
    return (out >> _S11).astype(np.float64) * 2.0**-53


def _pcg64_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The streams of ``PCG64(SeedSequence([seed, p]))`` for p in
    start..stop-1 (a nonempty range), as the (4, n) uint64 array that :func:`_pcg64_random`
    steps: the entropy hash, pool mixing and ``generate_state(4, uint64)`` of
    SeedSequence run in uint32 arrays across the paths, then PCG's
    ``srandom`` in uint64 ones.  p takes two entropy words from 2**32 on, so
    that range is hashed separately."""
    parts = []
    lo = start
    while lo < stop:
        hi = stop if lo > _MASK32 else min(stop, _MASK32 + 1)
        p = np.arange(lo, hi, dtype=np.uint64)
        entropy = [np.full(hi - lo, w, dtype=np.uint32) for w in _int_words(seed)]
        entropy.append((p & _LOW32).astype(np.uint32))
        if lo > _MASK32:
            entropy.append((p >> _S32).astype(np.uint32))
        zero = np.zeros(hi - lo, dtype=np.uint32)
        h = _INIT_A
        pool = []
        for i in range(_POOL_SIZE):
            v, h = _hashmix(entropy[i] if i < len(entropy) else zero, h, _MULT_A)
            pool.append(v)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    v, h = _hashmix(pool[src], h, _MULT_A)
                    pool[dst] = _mix(pool[dst], v)
        for src in range(_POOL_SIZE, len(entropy)):
            for dst in range(_POOL_SIZE):
                v, h = _hashmix(entropy[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
        h = _INIT_B
        words = []
        for i in range(8):
            v, h = _hashmix(pool[i % _POOL_SIZE], h, _MULT_B)
            words.append(v.astype(np.uint64))
        # little-endian uint64 pairs: seed = (w0|w1, w2|w3), inc = (w4|w5, w6|w7)
        s_hi, s_lo, i_hi, i_lo = (words[2 * k] | words[2 * k + 1] << _S32 for k in range(4))
        # srandom: inc = 2 * initseq + 1; state = 0, step, state += seed, step
        inc_hi, inc_lo = i_hi << _ONE | i_lo >> _S63, i_lo << _ONE | _ONE
        s_lo = s_lo + inc_lo
        s_hi = s_hi + inc_hi + (s_lo < inc_lo)
        parts.append(np.array([*_pcg64_step(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo]))
        lo = hi
    return np.concatenate(parts, axis=1)


class _StateTable:
    """Visited states interned as ids, with arrays indexed by id: the rate,
    and the cumulative move probabilities and target ids, padded to a common
    width.  An entry is filled the first time a path needs it, so ``rate``
    and ``transitions`` run once per distinct state that needs them."""

    def __init__(self, spec: CocycleSpec, init: ChainState):
        self.spec = spec
        self.ids = {init: 0}
        self.states = [init]
        # NaN marks an unfilled rate (rate() raises on a non-finite one) and
        # an unfilled row of moves; filled rows are padded with +inf
        self.rate = np.full(1, np.nan)
        self.cum = np.full((1, 1), np.nan)
        self.target = np.zeros((1, 1), dtype=np.intp)

    def _intern(self, s) -> int:
        i = self.ids.get(s)
        if i is None:
            i = self.ids[s] = len(self.states)
            self.states.append(s)
            if i == self.rate.size:  # double the rows
                self.rate = np.concatenate([self.rate, np.full(i, np.nan)])
                self.cum = np.concatenate([self.cum, np.full(self.cum.shape, np.nan)])
                self.target = np.concatenate([self.target, np.zeros_like(self.target)])
        return i

    def rates(self, sid: np.ndarray) -> np.ndarray:
        for i in np.unique(sid[np.isnan(self.rate[sid])]).tolist():
            self.rate[i] = rate(self.spec, self.states[i])
        return self.rate[sid]

    def moves(self, sid: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next ids: each path takes the first move of its state whose
        cumulative probability exceeds its u (``bisect_right``)."""
        for i in np.unique(sid[np.isnan(self.cum[sid, 0])]).tolist():
            moves = transitions(self.spec, self.states[i], total_rate=float(self.rate[i]))
            targets = [self._intern(s2) for s2, _ in moves]
            cum = list(accumulate(prob for _, prob in moves))
            # u at or above the total (roundoff) takes the last move
            cum[-1] = math.inf
            extra = len(cum) - self.cum.shape[1]
            if extra > 0:
                self.cum = np.pad(self.cum, ((0, 0), (0, extra)), constant_values=math.inf)
                self.target = np.pad(self.target, ((0, 0), (0, extra)))
            self.cum[i] = math.inf
            self.cum[i, : len(cum)] = cum
            self.target[i, : len(cum)] = targets
        return self.target[sid, (self.cum[sid] <= u[:, None]).sum(1)]


def simulate(
    spec: CocycleSpec,
    init: ChainState,
    horizon: float,
    n_paths: int,
    max_jumps: int,
    seed: int,
) -> SimReport:
    """Exact-jump simulation: exponential holding times, split transitions.

    Path p draws its uniforms, in order, from the stream of
    ``numpy.random.default_rng([seed, p])``; identical arguments reproduce
    the report exactly.  No generator is built: ``_pcg64_states`` derives
    the PCG64 streams of ``_SEED_BLOCK`` paths at once, and the live paths
    of a block advance together, one round per jump, each drawing its next
    uniforms from its own stream by ``_pcg64_random``.  A round retires the
    absorbed paths, draws the holding times (through ``math.log1p``, as the
    per-path loop did), retires the paths past the horizon or at the jump
    budget, and draws the moves.  Visited states are interned as ids into
    tables of rates, target ids and cumulative move probabilities; ``rate``
    and ``transitions`` still run once per distinct state that needs them.
    """
    if max_jumps < 1:
        raise SimulationInputError(f"max_jumps must be >= 1, got {max_jumps}")
    if n_paths < 0:
        raise SimulationInputError(f"n_paths must be >= 0, got {n_paths}")
    if not horizon >= 0:
        raise SimulationInputError(f"horizon must be >= 0, got {horizon}")
    if seed < 0:
        raise SimulationInputError(f"seed must be >= 0, got {seed}")
    G = spec.group
    for g in init:
        if G.is_identity(g):
            raise SimulationInputError(f"initial state {init!r} contains the identity")
    table = _StateTable(spec, init)
    jump_counts = np.zeros(n_paths, dtype=np.int64)
    absorbed = censored = active = 0
    for first in range(0, n_paths, _SEED_BLOCK):
        stop = min(first + _SEED_BLOCK, n_paths)
        streams = _pcg64_states(seed, first, stop)
        path = np.arange(first, stop)
        sid = np.zeros(stop - first, dtype=np.intp)
        t = np.zeros(stop - first)
        # every live path of a round has made `jumps` jumps
        jumps = 0
        while path.size:
            R = table.rates(sid)
            live = R > 0.0
            gone = path[~live]
            absorbed += gone.size
            jump_counts[gone] = jumps
            path, sid, t, R, streams = path[live], sid[live], t[live], R[live], streams[:, live]
            u = _pcg64_random(streams)
            dt = -np.fromiter(map(math.log1p, (-u).tolist()), np.float64, u.size) / R
            t = t + dt
            live = ~(t > horizon)
            gone = path[~live]
            active += gone.size
            jump_counts[gone] = jumps
            path, sid, t, streams = path[live], sid[live], t[live], streams[:, live]
            if jumps >= max_jumps:
                censored += path.size
                jump_counts[path] = jumps
                break
            sid = table.moves(sid, _pcg64_random(streams))
            jumps += 1
    p_surv = (n_paths - censored) / n_paths if n_paths else 1.0
    halfwidth = (
        1.96 * math.sqrt(p_surv * (1.0 - p_surv) / n_paths) if n_paths else 0.0
    )
    return SimReport(
        n_paths=n_paths,
        horizon=horizon,
        max_jumps=max_jumps,
        seed=seed,
        init=tuple(init),
        jump_counts=jump_counts.tolist(),
        absorbed=absorbed,
        censored=censored,
        active_at_horizon=active,
        survival=p_surv,
        survival_halfwidth=halfwidth,
    )


# ---- bundled example and JSON schema ------------------------------------------


def z_splitting_spec() -> CocycleSpec:
    """Integers with the single cocycle determined by value i at 0 on the
    generator: the value at n > 0 is i on {0..n-1}, the interior norm is
    n - 1, and every path from (M) absorbs at the all-ones tuple."""
    return CocycleSpec(GroupSpec("int"), [{1: {0: 1.0}}])


def _parse_free_word(s: str, rank: int) -> tuple[int, ...]:
    word = []
    for ch in s:
        if ch.islower():
            idx = ord(ch) - ord("a") + 1
            sign = 1
        elif ch.isupper():
            idx = ord(ch) - ord("A") + 1
            sign = -1
        else:
            raise CocycleSpecError(f"bad letter {ch!r} in free-group word {s!r}")
        if idx > rank:
            raise CocycleSpecError(
                f"letter {ch!r} refers to generator {idx} beyond rank {rank}"
            )
        if word and word[-1] == -sign * idx:
            word.pop()
        else:
            word.append(sign * idx)
    return tuple(word)


def _format_free_word(w: tuple[int, ...]) -> str:
    return "".join(
        chr(ord("a") + abs(l) - 1) if l > 0 else chr(ord("A") + abs(l) - 1)
        for l in w
    )


def parse_element(spec_group: GroupSpec, raw):
    if spec_group.kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise CocycleSpecError(f"integer group element expected, got {raw!r}")
        try:
            return int(raw)
        except ValueError:
            raise CocycleSpecError(f"integer group element expected, got {raw!r}") from None
    if not isinstance(raw, str):
        raise CocycleSpecError(f"free-group element must be a string, got {raw!r}")
    return _parse_free_word(raw, spec_group.rank)


def encode_element(spec: CocycleSpec, g):
    if spec.group.kind == "int":
        return int(g)
    return _format_free_word(g)


def parse_state(spec: CocycleSpec, raw: str) -> ChainState:
    """Comma-separated element list, e.g. "5" or "3,2" or "ab,BA"."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(parse_element(spec.group, p) for p in parts)


def load_cocycle_spec(source) -> CocycleSpec:
    """Build a :class:`CocycleSpec` from a JSON file path or a parsed dict.

    Schema::

        {"group": {"kind": "int" | "free", "rank": k},
         "cocycles": [{"generator_values":
             {"<generator>": [{"element": <encoded>, "imag": <float>}]}}]}

    Integer-group elements are integers, free-group elements strings over
    a..z with capitals as inverses.  Errors carry the offending field; JSON
    syntax errors carry line/column.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CocycleSpecError(
                f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    try:
        gdata = data["group"]
        kind = gdata["kind"]
    except (KeyError, TypeError) as exc:
        raise CocycleSpecError("missing or malformed field 'group.kind'") from exc
    rank = gdata.get("rank", 1)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise CocycleSpecError(f"field 'group.rank' must be an integer >= 1, got {rank!r}")
    group = GroupSpec(kind, rank)
    raw_cocycles = data.get("cocycles")
    if not isinstance(raw_cocycles, list) or not raw_cocycles:
        raise CocycleSpecError("field 'cocycles' must be a non-empty list")
    gen_values = []
    for j, entry in enumerate(raw_cocycles):
        try:
            gv_raw = entry["generator_values"]
        except (KeyError, TypeError) as exc:
            raise CocycleSpecError(
                f"cocycles[{j}]: missing field 'generator_values'"
            ) from exc
        if not isinstance(gv_raw, dict):
            raise CocycleSpecError(
                f"cocycles[{j}]: field 'generator_values' must be an object, got {gv_raw!r}"
            )
        gv: dict[int, dict] = {}
        for gkey, pairs in gv_raw.items():
            if group.kind == "int":
                try:
                    gidx = int(gkey)
                except ValueError as exc:
                    raise CocycleSpecError(
                        f"cocycles[{j}]: generator key {gkey!r} is not an integer"
                    ) from exc
            else:
                if len(gkey) != 1 or not gkey.islower():
                    raise CocycleSpecError(
                        f"cocycles[{j}]: generator key {gkey!r} must be a single "
                        f"lowercase letter"
                    )
                gidx = ord(gkey) - ord("a") + 1
            values: dict = {}
            if not isinstance(pairs, list):
                raise CocycleSpecError(
                    f"cocycles[{j}].generator_values[{gkey!r}] must be a list"
                )
            for t, pair in enumerate(pairs):
                where = f"cocycles[{j}].generator_values[{gkey!r}][{t}]"
                try:
                    el = parse_element(group, pair["element"])
                    im = pair["imag"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise CocycleSpecError(
                        f'{where}: expected {{"element": ..., "imag": ...}}, got {pair!r}'
                    ) from exc
                if not _finite_real(im):
                    raise CocycleSpecError(
                        f"{where}: 'imag' must be a finite JSON number, got {im!r}"
                    )
                values[el] = values.get(el, 0.0) + float(im)
            gv[gidx] = values
        gen_values.append(gv)
    return CocycleSpec(group, gen_values)
