"""numpy's ``default_rng(seed)`` stream in pure Python.

``Generator(seed)`` draws the doubles ``numpy.random.default_rng(seed)``
draws, bit for bit, without importing numpy.  The seed's little-endian
32-bit words go through numpy's ``SeedSequence`` (NEP 19: a pool of 4
words, ``hashmix``/``mix``, then ``generate_state(4, uint64)``) into
PCG64, O'Neill's PCG XSL-RR 128/64 generator; a double is the top 53
bits of one 64-bit output.
"""

from __future__ import annotations

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    words = [seed & M32]
    while seed := seed >> 32:
        words.append(seed & M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & M32
        value = value * hash_const & M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """PCG64 seeded as ``numpy.random.default_rng(seed)`` seeds it, for a
    nonnegative integer seed.  There is no entropy default: every stream
    can be drawn again from its seed."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & M128
        # srandom: one step from state 0, add the initial state, one more step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * PCG_MULT + self._inc) & M128

    def random(self) -> float:
        """The next double in [0, 1): one step, the XSL-RR output, its top 53 bits."""
        state = self._state = (self._state * PCG_MULT + self._inc) & M128
        value, rot = (state >> 64 ^ state) & M64, state >> 122
        value = (value >> rot | value << (64 - rot)) & M64
        return (value >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, n: int) -> list[float]:
        """``n`` draws of ``low + (high - low) * random()``."""
        span = high - low
        return [low + span * self.random() for _ in range(n)]
