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

Simulation uses one independent, counter-derived random stream per path, so
reports are reproducible bit for bit from (seed, parameters) and paths are
trivially parallelizable.

Explosion is never decided: paths that hit the jump budget with time left
are reported as censored, quantifying evidence, not a verdict.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

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

    def generator(self, idx: int):
        """The idx-th generator as a group element (idx in 1..rank)."""
        if self.kind == "int":
            if idx != 1:
                raise CocycleSpecError("the integer group has a single generator 1")
            return 1
        if not (1 <= idx <= self.rank):
            raise CocycleSpecError(f"generator index {idx} outside 1..{self.rank}")
        return (idx,)

    def letter_element(self, letter: int):
        if self.kind == "int":
            return letter
        return (letter,)


@dataclass
class CocycleSpec:
    """N cocycles given by their finitely supported generator values.

    ``gen_values[j][g]`` is a dict element -> imaginary part; all cocycle
    values are purely imaginary, stored as real numbers, and all formulas
    below use squared moduli only.
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
            for g in gv:
                if not (1 <= g <= rank):
                    raise CocycleSpecError(
                        f"cocycle {j}: generator index {g} outside 1..{rank}"
                    )


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
    gives the same answer.
    """
    if not (0 <= j < spec.n_cocycles):
        raise CocycleSpecError(f"cocycle index {j} outside 0..{spec.n_cocycles - 1}")
    G = spec.group
    key = (j, g)
    cached = spec._cache.get(key)
    if cached is not None:
        return dict(cached)
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
    spec._cache[key] = dict(out)
    return out


def hat_norm_sq(spec: CocycleSpec, j: int, g) -> float:
    """Squared norm of the cocycle value minus its two endpoint terms.

    Evaluated as the sum of squared moduli over the support EXCLUDING the
    identity and g itself, which equals the subtracted form exactly but is a
    sum of squares: endpoint-supported values give an exact zero instead of
    roundoff, and negative results are structurally impossible.  The guard
    below still clamps or rejects pathological inputs (NaN propagation or a
    future evaluation change), per the error contract.
    """
    if spec.group.is_identity(g):
        raise ValueError("hat norm is only defined at non-identity elements")
    f = cocycle_value(spec, j, g)
    e = spec.group.identity()
    val = sum(v * v for s, v in f.items() if s != g and s != e)
    if val < 0.0 or math.isnan(val):
        total = sum(v * v for v in f.values())
        if val >= -1e-12 * max(total, 1.0):
            warnings.warn(f"hat norm {val:.3e} clamped to 0 at {g!r}")
            return 0.0
        raise CocycleSpecError(
            f"hat norm {val:.6e} is materially negative at {g!r}; "
            f"the cocycle specification is inconsistent"
        )
    return float(val)


def rate(spec: CocycleSpec, state: ChainState) -> float:
    """Total jump rate: double sum of hat norms over components and cocycles."""
    return float(
        sum(
            hat_norm_sq(spec, j, g)
            for g in state
            for j in range(spec.n_cocycles)
        )
    )


def transitions(spec: CocycleSpec, state: ChainState) -> list[tuple[ChainState, float]]:
    """Enumerate split transitions with their probabilities.

    Component g splits as d d' with both parts non-identity; d runs over the
    support of the cocycle values at g minus the two endpoints (splits
    outside the support carry probability zero and are omitted).
    Probabilities sum to one by construction of the rate.
    """
    R = rate(spec, state)
    if R <= 0.0:
        raise AbsorbingStateError(f"state {state!r} is absorbing (rate 0)")
    G = spec.group
    out: list[tuple[ChainState, float]] = []
    for i, g in enumerate(state):
        support: dict = {}
        for j in range(spec.n_cocycles):
            f = cocycle_value(spec, j, g)
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


def simulate(
    spec: CocycleSpec,
    init: ChainState,
    horizon: float,
    n_paths: int,
    max_jumps: int,
    seed: int,
) -> SimReport:
    """Exact-jump simulation: exponential holding times, split transitions.

    One random stream per path, derived from (seed, path index); identical
    arguments reproduce the report exactly.
    """
    if max_jumps < 1:
        raise SimulationInputError(f"max_jumps must be >= 1, got {max_jumps}")
    if n_paths < 0:
        raise SimulationInputError(f"n_paths must be >= 0, got {n_paths}")
    if not horizon >= 0:
        raise SimulationInputError(f"horizon must be >= 0, got {horizon}")
    G = spec.group
    for g in init:
        if G.is_identity(g):
            raise SimulationInputError(f"initial state {init!r} contains the identity")
    # states recur across paths; memoized rates/moves keep long batches cheap
    rate_memo: dict = {}
    move_memo: dict = {}

    def state_rate(s):
        r = rate_memo.get(s)
        if r is None:
            r = rate(spec, s)
            rate_memo[s] = r
        return r

    def state_moves(s):
        m = move_memo.get(s)
        if m is None:
            m = transitions(spec, s)
            move_memo[s] = m
        return m

    jump_counts: list[int] = []
    absorbed = censored = active = 0
    for p in range(n_paths):
        rng = np.random.default_rng([seed, p])
        state = init
        t = 0.0
        jumps = 0
        while True:
            R = state_rate(state)
            if R <= 0.0:
                absorbed += 1
                break
            dt = -math.log1p(-rng.random()) / R
            if t + dt > horizon:
                active += 1
                break
            t += dt
            if jumps >= max_jumps:
                censored += 1
                break
            moves = state_moves(state)
            u = rng.random()
            acc = 0.0
            chosen = moves[-1][0]
            for s2, prob in moves:
                acc += prob
                if u < acc:
                    chosen = s2
                    break
            state = chosen
            jumps += 1
        jump_counts.append(jumps)
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
        jump_counts=jump_counts,
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
        return int(raw)
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
    rank = int(gdata.get("rank", 1))
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
                try:
                    el = parse_element(group, pair["element"])
                    im = float(pair["imag"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CocycleSpecError(
                        f"cocycles[{j}].generator_values[{gkey!r}][{t}]: expected "
                        f'{{"element": ..., "imag": ...}}, got {pair!r}'
                    ) from exc
                values[el] = values.get(el, 0.0) + im
            gv[gidx] = values
        gen_values.append(gv)
    return CocycleSpec(group, gen_values)
