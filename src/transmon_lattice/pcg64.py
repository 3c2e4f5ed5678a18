"""The random stream of randomized benchmarking, in pure Python.

:class:`Stream` is numpy's ``default_rng(SeedSequence(entropy))``
computed with Python ints: SeedSequence's hashmix pool, PCG64 (O'Neill,
"PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", 2014) seeded from it, and
its XSL-RR 64-bit output.  :meth:`Stream.integers` draws bounded ints
with Lemire's rejection rule ("Fast random integer generation in an
interval", ACM TOMACS 29, 3 (2019)) on the 32-bit halves of the outputs,
as ``Generator.integers(0, n, count)`` does for 2 <= n < 2**32, so the
ids are the same bits as numpy's without importing ``numpy.random``,
whatever numpy release is installed.  :meth:`Stream.generator` hands
the exact state on to a numpy ``Generator`` for the draws that need
more than bounded ints.
"""
from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# the 128-bit LCG multiplier of PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: Sequence[int]) -> list[int]:
    """The 32-bit words of ``entropy``, each int least significant word
    first; a float is a TypeError and a negative int a ValueError, as in
    SeedSequence."""
    words = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"entropy must be non-negative integers, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _pool(entropy: Sequence[int]) -> list[int]:
    """SeedSequence(entropy).pool: the words hashed into 4 pool words,
    every pool word mixed with the others, then any further words mixed
    into each."""
    words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class Stream:
    """numpy's ``default_rng(SeedSequence(entropy))`` as Python ints:
    the 128-bit ``state`` and ``inc`` of PCG64, and the buffered upper
    half ``uinteger`` of its last output when ``has_uint32`` is 1."""

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, entropy: Sequence[int]):
        pool = _pool(entropy)
        # SeedSequence.generate_state(4, np.uint64): 8 words drawn round the pool
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        seed = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        # pcg_setseq_128_srandom_r(seed[0:2], seed[2:4]), high word first
        self.inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & _MASK128
        state = (self.inc + (seed[0] << 64 | seed[1])) & _MASK128
        self.state = (state * _PCG_MULT + self.inc) & _MASK128
        self.has_uint32 = 0
        self.uinteger = 0

    def integers(self, n: int, count: int) -> list[int]:
        """``count`` ints drawn uniformly from [0, n), 2 <= n < 2**32:
        the bits of ``Generator.integers(0, n, count)``.  Each 64-bit
        output gives its low, then its high 32 bits; a candidate w is
        kept as w * n >> 32 unless w * n mod 2**32 falls below
        2**32 mod n."""
        if not 2 <= n <= _MASK32:
            raise ValueError(f"bound must lie in [2, 2**32), got {n}")
        threshold = (1 << 32) % n
        state, inc = self.state, self.inc
        drawn: list[int] = []
        while len(drawn) < count:
            need = count - len(drawn)
            words = [self.uinteger] if self.has_uint32 else []
            append = words.append
            for _ in range((need - len(words) + 1) // 2):
                state = (state * _PCG_MULT + inc) & _MASK128
                x = (state >> 64) ^ (state & _MASK64)
                rotation = state >> 122
                x = (x >> rotation | x << (64 - rotation)) & _MASK64
                append(x & _MASK32)
                append(x >> 32)
            self.has_uint32 = int(len(words) > need)
            if self.has_uint32:
                self.uinteger = words.pop()
            drawn += [m >> 32 for w in words if (m := w * n) & _MASK32 >= threshold]
        self.state = state
        return drawn

    def generator(self) -> np.random.Generator:
        """A numpy ``Generator`` that continues this stream exactly; it
        imports ``numpy.random``."""
        from numpy.random import PCG64, Generator

        bit_generator = PCG64(0)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }
        return Generator(bit_generator)
