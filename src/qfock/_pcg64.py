"""numpy's PCG64 streams without numpy.random.

``PCG64(SeedSequence([seed, p]))`` for a range of stream numbers p at once:
the SeedSequence entropy hash runs in uint32 arrays across the streams, and
PCG64's 128-bit LCG steps them in uint64 arrays, each draw the double that
``numpy.random.Generator.random`` returns.  numpy keeps that raw stream
stable across releases (NEP 19), so these values are fixed.  The cocycle
chain draws its paths' uniforms here, and every Lanczos run of the
doubled-space norms and of the top singular values starts from
:func:`_signed_uniforms`, so no module but the CLI's seeded ``verify``
inputs loads numpy.random.
"""
from __future__ import annotations

import numpy as np

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


def _signed_uniforms(n: int) -> np.ndarray:
    """Entry p of n: ``2 u_p - 1``, with u_p the first double of the stream
    ``PCG64(SeedSequence([0, p]))``, the value ``2 *
    numpy.random.default_rng([0, p]).random() - 1``.  Entry p does not depend
    on n, so a shorter vector is a prefix of a longer one."""
    return 2.0 * _pcg64_random(_pcg64_states(0, 0, n)) - 1.0
