"""Seedable randomness and keyed pseudorandom primitives.

The keyed permutation is a balanced Feistel network over n-bit strings
(unbalanced split for odd n). A byte key is hashed once into a 64-bit word;
round outputs and keyed phase bits come from a SplitMix64 mixer of that word,
the round index and the half-block. ``KeyedPermutation.apply_block`` and
``PhaseFunction.keyed_bits`` evaluate them on ``uint64`` arrays with one key
word per row, the route the sampler runs. Both are deterministic desk-scale
stand-ins: only functional correctness and empirical uniformity are claimed,
never cryptographic security.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "RngSeed",
    "KeyedPermutation",
    "PhaseFunction",
    "key_words",
    "draw_key_words",
    "sample_haar_block",
    "as_seed",
]

KEY_BYTES = 16


@dataclass(frozen=True)
class RngSeed:
    """64-bit seed; identical seeds reproduce identical streams bit-for-bit."""

    seed: int

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 unsigned bits")

    def generator(self, *path: int) -> np.random.Generator:
        """Independent generator for a derivation path (chunk index, ensemble seed, ...)."""
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=path))


def as_seed(seed: "RngSeed | int") -> RngSeed:
    """Coerce a plain integer seed; an RngSeed passes through."""
    return seed if isinstance(seed, RngSeed) else RngSeed(int(seed))


# ---------------------------------------------------------------------------
# 64-bit integer mixing on uint64 arrays (wrapping arithmetic)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PHASE_TWEAK = np.uint64(0xD1B54A32D192ED03)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, a bijection of uint64 with full avalanche."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _mask(width: int) -> np.uint64:
    return np.uint64((1 << width) - 1)


def key_words(keys: np.ndarray) -> np.ndarray:
    """Hash a (count, length) uint8 array of byte keys into (count,) uint64
    words: the mixer folds the zero-padded little-endian 64-bit chunks into
    the key length, so keys of different lengths stay distinct."""
    keys = np.asarray(keys, dtype=np.uint8)
    count, length = keys.shape
    padded = np.zeros((count, -(-length // 8) * 8), dtype=np.uint8)
    padded[:, :length] = keys
    chunks = padded.view("<u8").astype(np.uint64)
    h = np.full(count, length, dtype=np.uint64)
    for j in range(chunks.shape[1]):
        h = _mix((h ^ chunks[:, j]) + np.uint64(_GOLDEN))
    return h


def draw_key_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """Words of ``count`` fresh KEY_BYTES-byte keys, drawn as one ``rng.bytes`` call."""
    raw = np.frombuffer(rng.bytes(KEY_BYTES * count), dtype=np.uint8)
    return key_words(raw.reshape(count, KEY_BYTES))


class KeyedPermutation:
    """Keyed Feistel bijections on {0,1}^n, one per key word."""

    @staticmethod
    def default_rounds(n: int) -> int:
        """Four rounds mix poorly on tiny domains (the exact table distribution
        at n=2 sits at total-variation 0.083 from uniform after 4 rounds and
        quarters every 2 rounds), so small widths get extra rounds to push the
        residual bias below Monte-Carlo resolution."""
        return 4 + 2 * max(0, 8 - n)

    @staticmethod
    def apply_block(words: np.ndarray, xs: np.ndarray, n: int, rounds: int) -> np.ndarray:
        """Images of the uint64 array ``xs`` of n-bit points under the
        permutations keyed by ``words`` (broadcast against ``xs``)."""
        wl, wr = n - n // 2, n // 2  # left gets the ceil half so n=1 degenerates to (1, 0)
        left, right = xs >> wr, xs & _mask(wr)
        for rnd in range(rounds):
            sub = _mix(words + np.uint64((rnd + 1) * _GOLDEN % 2**64))
            left, right = right, left ^ (_mix(sub ^ right) & _mask(wl))
            wl, wr = wr, wl
        return (left << wr) | right


class PhaseFunction:
    """Keyed binary functions on n-bit strings, one per key word."""

    @staticmethod
    def keyed_bits(words: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Keyed phase bits of the uint64 array ``xs`` under ``words`` (broadcast)."""
        return (_mix(_mix(words ^ _PHASE_TWEAK) ^ xs) >> 63).astype(np.uint8)


def sample_haar_block(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2^n) array of Haar state amplitudes: normalised complex Gaussian rows.

    One row-major ``standard_normal`` call fills (re, im) pairs, so rows i..j
    are the same bits however a caller splits its draws into blocks."""
    z = rng.standard_normal((count, 2 ** (n + 1)))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z.view(np.complex128)
