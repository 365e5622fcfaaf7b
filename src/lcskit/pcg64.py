"""Seeded uniform draws without numpy's random subpackage.

``uniform(seed, count)`` returns the first ``count`` doubles that numpy's
``default_rng(seed).random`` draws, equal bit for bit: O'Neill's PCG64 (the
XSL-RR output of a 128-bit LCG, PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation,
HMC-CS-2014-0905) seeded through numpy's ``SeedSequence``, each double being
``(next64 >> 11) * 2**-53``.  Both are short integer recurrences, so the
stream is computed in Python, and importing numpy's random subpackage (with
``secrets``, ``hashlib`` and libcrypto behind it) costs no run its memory.

Draws are memoised per seed as one read-only array, grown by continuing the
generator; the eight seeds used most recently are kept.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341  # PCG's default 128-bit LCG multiplier
_KEPT = 8

# seed -> (generator state, increment, every draw so far, read-only)
_streams: dict[int, tuple[int, int, np.ndarray]] = {}


def _seeded(seed: int) -> tuple[int, int]:
    """The PCG64 state and increment numpy's ``PCG64(seed)`` starts from:
    ``SeedSequence(seed).generate_state(4, uint64)`` read as the initial
    state (high, low) and the stream selector (high, low)."""
    words = []  # the seed's 32-bit words, least significant first
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    # SeedSequence.mix_entropy into a pool of four 32-bit words
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: eight 32-bit words, cycling the pool, paired little-endian
    state_words = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state_words.append(value ^ value >> 16)
    w = [state_words[2 * i] | state_words[2 * i + 1] << 32 for i in range(4)]
    # PCG's srandom: from state 0, step, add the initial state, step again
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _MULTIPLIER + inc) & _M128
    return state, inc


def _advance(state: int, inc: int, count: int) -> tuple[int, list[float]]:
    """``count`` further doubles of the stream, and the state after them."""
    out = []
    for _ in range(count):
        state = (state * _MULTIPLIER + inc) & _M128
        # XSL-RR: xor the halves, rotate right by the top six bits
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _M64
        out.append((word >> 11) * 2.0**-53)
    return state, out


def uniform(seed: int, count: int) -> np.ndarray:
    """The first ``count`` draws of numpy's ``default_rng(seed).random``, as a
    read-only view of the memo; ``seed`` must be an integer >= 0."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    entry = _streams.pop(seed, None)
    state, inc, values = entry if entry is not None else (*_seeded(seed), np.empty(0))
    if count > len(values):
        state, more = _advance(state, inc, count - len(values))
        values = np.concatenate([values, more])
        values.flags.writeable = False
    _streams[seed] = (state, inc, values)
    if len(_streams) > _KEPT:
        del _streams[next(iter(_streams))]
    return values[:count]
