"""Random exchange couplings for disordered Heisenberg chains and graphs.

One disorder family on L sites arranged on a ring, set by the decay
exponent sigma >= 0: J_ij is Gaussian with variance 1 / r_ij^sigma, r_ij
the chord distance through the ring.  sigma = 0 is the infinite-range
spin glass (every pair N(0, 1)); growing sigma moves toward the
short-range chain, and sigma = inf is that chain, N(0, 1) on
ring-adjacent pairs only.

Sampling uses the counter-based Philox generator seeded through
``SeedSequence`` and numpy's ziggurat Gaussian transform, so a
(seed, sample index) pair fixes every matrix bit-exactly regardless of
how many samples are drawn around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CouplingMatrix:
    """Symmetric coupling matrix with zero diagonal."""

    sites: int
    J: np.ndarray

    def coupling_sum(self) -> float:
        """S_J = sum of J_ij over i < j, the eigenvalue of the all-up state."""
        return float(np.triu(self.J, k=1).sum())


def chord_distance(sites: int, i: int, j: int) -> float:
    """Euclidean distance between sites i and j on the unit-spacing ring.

    Sites are equally spaced on a circle of circumference L, so the
    chord is (L / pi) * sin(pi * |i - j| / L).  Only |i - j| enters;
    any common index base gives the same answer.
    """
    if i == j:
        raise ValueError("chord distance needs two distinct sites")
    d = abs(i - j) % sites
    return (sites / math.pi) * math.sin(math.pi * d / sites)


def ring_pairs(sites: int) -> list[tuple[int, int]]:
    """Adjacent (i, j) pairs of the periodic ring, 0-indexed, i < j."""
    if sites == 2:
        return [(0, 1)]
    pairs = [(i, i + 1) for i in range(sites - 1)]
    pairs.append((0, sites - 1))
    return sorted(pairs)


def sample_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Seed for one disorder sample, a pure function of (master, index).

    ``Philox(sample_seed(master, index))`` takes its key from
    ``generate_state(2, np.uint64)`` of this sequence; :func:`sample_keys`
    computes the same keys for many indices at once.
    """
    return np.random.SeedSequence(entropy=(master_seed, index))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on uint32 words; returns the next constant too."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def sample_keys(master_seed: int, indices) -> np.ndarray:
    """Philox keys of ``sample_seed(master_seed, i)`` for every i in ``indices``.

    Row k equals ``SeedSequence(entropy=(master_seed, indices[k]))
    .generate_state(2, np.uint64)``, the key ``Philox(sample_seed(...))``
    uses: numpy's entropy mixing and state generation run once, in uint32
    arithmetic vectorized over the indices.  The master must lie in
    [0, 2**64) and each index in [0, 2**32), so the entropy is at most
    three 32-bit words and fits the hash pool without overflow; returns
    an (n, 2) uint64 array.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("indices must be a one-dimensional integer sequence")
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ValueError("sample indices must lie in [0, 2**32)")
    if not 0 <= master_seed < 2**64:
        raise ValueError("master seed must fit in an unsigned 64-bit integer")
    n = idx.size
    # SeedSequence splits an int into little-endian 32-bit words, [0] for zero
    master_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    words = [np.full(n, w, dtype=np.uint32) for w in master_words] + [idx.astype(np.uint32)]

    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = words[i] if i < len(words) else np.zeros(n, dtype=np.uint32)
        value, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hash(pool[i_src], hash_const, _MULT_A)
                pool[i_dst] = _mix(pool[i_dst], value)

    state = np.empty((n, 4), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(4):
        state[:, k], hash_const = _hash(pool[k], hash_const, _MULT_B)
    # two uint32 words per key, low word first, as generate_state(2, np.uint64)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def sample_couplings(sites: int, sigma: float, seed: int | np.random.SeedSequence) -> CouplingMatrix:
    """Draw one disorder realization with decay exponent ``sigma``.

    Upper-triangle entries are drawn in lexicographic (i, j) order, one
    Gaussian per coupled pair, then mirrored: the ring pairs when sigma
    is infinite, every pair otherwise, each scaled by r_ij^(-sigma/2)
    when sigma > 0.
    """
    if sites < 2:
        raise ValueError("need at least two sites for a coupling matrix")
    # written as "not x >= 0" so that NaN fails too
    if not sigma >= 0:
        raise ValueError(f"decay exponent must be >= 0, got {sigma}")
    rng = _generator(seed)
    J = np.zeros((sites, sites), dtype=np.float64)
    if math.isinf(sigma):
        first, second = np.array(ring_pairs(sites)).T
        J[first, second] = rng.standard_normal(first.size)
    else:
        first, second = np.triu_indices(sites, k=1)
        draws = rng.standard_normal(first.size)
        if sigma > 0:
            # one chord per separation d = j - i, by math.sin: np.sin may differ in the last bit
            chords = np.array([chord_distance(sites, 0, d) for d in range(1, sites)])
            draws = draws * chords[second - first - 1] ** (-sigma / 2.0)
        J[first, second] = draws
    J += J.T
    return CouplingMatrix(sites=sites, J=J)
