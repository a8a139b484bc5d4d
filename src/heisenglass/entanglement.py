"""Pairwise entanglement of definite-magnetization states.

For a real state with a fixed number of up spins, the reduced density
matrix of sites (i, j) is determined by five numbers: the populations
v (both up), w (i up, j down), x (i down, j up), y (both down) and the
single coherence z between the two antiparallel configurations.  The
concurrence of such a matrix is max(2 (|z| - sqrt(v y)), 0).

The kernels below work directly on the sector coefficients a without
ever forming a 2^L density matrix.  :func:`pair_concurrences`, the one
concurrence kernel, covers all pairs and a matrix of column states and
needs only v, y and z: v = U^T (a*a) and y = D^T (a*a) are two matrix
products with the 0/1 indicators U (both sites up) and D (both down),
and z is the column-wise dot product of the (i up, j down) rows of a
with their swap partners, the (i down, j up) rows.  At m = 1 and
m = L - 1 one of v and y vanishes, and z alone gives the concurrence.
The inverse participation ratio and participation ratio complete the
per-state statistics.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .basis import SectorBasis

# Columns per panel wherever a kernel walks the columns of a block of
# eigenvectors (here and in spectrum).  A constant, never derived from the
# machine, so every column is summed the same way on every run.
PANEL = 128


def concurrence_from_elements(v: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max(2 (|z| - sqrt(max(v y, 0))), 0), elementwise, evaluated in place.

    ``v`` and ``z`` are float64 arrays that are overwritten; the result
    is ``z``.  No temporary is allocated.
    """
    v *= y
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)
    np.abs(z, out=z)
    z -= v
    z *= 2.0
    return np.maximum(z, 0.0, out=z)


def pair_concurrences(basis: SectorBasis, coefficients: np.ndarray) -> np.ndarray:
    """Concurrence of every site pair for every column state.

    Returns an (n_pairs, n_states) array whose rows are the pairs
    (i, j), i < j, in the order of ``np.triu_indices(L, 1)``.  Per block
    of columns, v and y are two matrix products of the pair indicators
    with a*a, O(n_pairs * dim) per column in BLAS, and z reads only the
    2 C(L-2, m-1) antiparallel rows of each pair.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[:, None]
    n_states = a.shape[1]
    first, second = np.triu_indices(basis.sites, k=1)
    out = np.empty((first.size, n_states), dtype=np.float64)
    if first.size == 0:
        return out[:, 0] if squeeze else out

    ud, du = basis.swap_rows(first, second)
    if ud.shape[1] == 1:
        # m = 1 or L - 1: one antiparallel row per pair, and v (m = 1) or
        # y (m = L - 1) is exactly 0, so C = 2 |z| needs no indicators
        out[...] = a[ud[:, 0]]
        out *= a[du[:, 0]]
        np.abs(out, out=out)
        out *= 2.0
        return out[:, 0] if squeeze else out
    up_i, up_j = basis.occupancy[:, first], basis.occupancy[:, second]
    both_up = (up_i & up_j).astype(np.float64)
    both_down = (~(up_i | up_j)).astype(np.float64)
    del up_i, up_j  # each del lowers the peak that pair_concurrence_bytes budgets

    for lo in range(0, n_states, PANEL):
        block = np.ascontiguousarray(a[:, lo : lo + PANEL])
        sq = block * block
        v = both_up.T @ sq
        y = both_down.T @ sq
        z = np.empty_like(v)
        for p in range(first.size):
            z[p] = np.einsum("kc,kc->c", block[ud[p]], block[du[p]])
        out[:, lo : lo + PANEL] = concurrence_from_elements(v, y, z)
    return out[:, 0] if squeeze else out


def pair_concurrence_bytes(sites: int, magnons: int, n_states: int) -> int:
    """Upper estimate of the bytes :func:`pair_concurrences` allocates beyond its input.

    With dim = C(L, m) rows, P = C(L, 2) pairs and c = min(n_states,
    128) columns per block: the swap-row tables, their index temporaries
    (P C(L-2, m-1) each) and the four dim x P boolean arrays they are built
    from; the P x n_states output; at m = 1 and m = L - 1 one gathered
    antiparallel row set (P x n_states) at a time, and otherwise the two
    float64 dim x P pair indicators and per block the column copy, its
    square, v, y and z (the concurrence formula runs in place in v and z).
    """
    dim, pairs = comb(sites, magnons), comb(sites, 2)
    width = comb(sites - 2, magnons - 1) if 0 < magnons < sites else 0
    tables = 4 * dim * pairs + 24 * pairs * width
    if width == 1:
        return tables + 16 * pairs * n_states
    chunk = min(n_states, PANEL)
    return tables + 16 * dim * pairs + 8 * (pairs * n_states + 2 * dim * chunk + 3 * pairs * chunk)


def inverse_participation_ratio(coefficients: np.ndarray) -> np.ndarray | float:
    """Sum of fourth powers; 1 for a basis state, 1/dim for the uniform state.

    Computed as (a*a)**2 by squaring in place, which is an order of
    magnitude faster than ``a**4``; the columns of a matrix go ``PANEL``
    at a time, so the one temporary is at most dim x PANEL.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    if a.ndim == 1:
        return float(_fourth_power_sums(a))
    n = a.shape[1]
    out = np.empty(n)
    for lo in range(0, n, PANEL):
        # numpy sums a lone column pairwise, as a 1-D array, and wider panels
        # row by row: a last panel of one column reaches back by one
        lo = max(0, min(lo, n - 2))
        out[lo : lo + PANEL] = _fourth_power_sums(a[:, lo : lo + PANEL])
    return out


def _fourth_power_sums(a: np.ndarray) -> np.ndarray:
    sq = a * a
    sq *= sq
    return sq.sum(axis=0)


def participation_ratio(coefficients: np.ndarray) -> np.ndarray | float:
    """Effective number of participating basis states, 1 / IPR."""
    ipr = inverse_participation_ratio(coefficients)
    return 1.0 / ipr
