"""Deterministic random-number streams.

Every stochastic component (PEBS imprecision, interleaving jitter,
workload data) draws from its own named stream so that adding randomness
to one component never perturbs another.  All experiments are exactly
reproducible given a seed.
"""

import random
from itertools import chain, repeat
from typing import Iterator

__all__ = ["RngStreams", "binary_draws", "derive_seed"]

#: ``bytes.translate`` arguments that turn the top byte of a 32-bit word
#: into one ``randrange(0, 2)`` draw: a byte of 128 or more is a redraw
#: (``getrandbits(2)`` gave 2 or 3) and is deleted; the others keep
#: their top two bits, ``b >> 6``.
_TOP_TWO_BITS = bytes(b >> 6 for b in range(256))
_REDRAWS = bytes(range(128, 256))


def derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from ``base_seed`` and a stream ``name``.

    Uses a simple FNV-1a mix of the name so the mapping is stable across
    Python versions (``hash()`` is salted and unsuitable).
    """
    h = 0xCBF29CE484222325
    for ch in name:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return (base_seed * 0x9E3779B97F4A7C15 + h) & 0x7FFFFFFFFFFFFFFF


def binary_draws(rng: random.Random, words: int = 4096) -> Iterator[int]:
    """The draws of ``rng.randrange(0, 2)``, drawn ``words`` at a time.

    ``randrange(0, 2)`` takes ``getrandbits(2)``, the top two bits of one
    32-bit Mersenne Twister word, until it is below 2.
    ``getrandbits(32 * words)`` yields the same words, the first in the
    least significant place, so the top byte of word ``i`` is byte ``4i
    + 3`` of its little-endian bytes.  The iterator leaves ``rng`` where
    ``randrange`` would after the words of every batch it has begun, and
    consumes nothing until its first draw.
    """
    bits, nbytes = 32 * words, 4 * words

    def batch(_):
        top = rng.getrandbits(bits).to_bytes(nbytes, "little")[3::4]
        return top.translate(_TOP_TWO_BITS, _REDRAWS)

    return chain.from_iterable(map(batch, repeat(None)))


class RngStreams:
    """A family of independent ``random.Random`` streams under one seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngStreams":
        """Return a new family whose seed is derived from this one."""
        return RngStreams(derive_seed(self.seed, name))
