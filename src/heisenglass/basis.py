"""Bases of fixed-magnetization sectors as occupancy matrices.

A basis pattern of L spins is the set of its up sites.  The sector with
m up spins lists all C(L, m) such patterns in colex order, which is
ascending order when pattern p is read as the integer sum_{i in p} 2^i;
it coincides with the combinatorial number system, so ranking and
unranking are O(L) and need no search.  A sector is stored once, as the
read-only (dim, L) boolean matrix of which sites are up in each pattern.
:func:`spin_block` builds the orthonormal block of one total spin
alone, and :func:`promotion_map` the sigma^+ between adjacent sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np
from scipy import sparse

# Largest sector build_basis enumerates, a bound on its (dim, L) occupancy
# matrix.  Memory for the arrays built from a sector is checked by the CLI.
DEFAULT_MAX_DIM = 200_000


@dataclass
class SectorBasis:
    """All L-spin patterns with exactly m up spins, in colex order.

    ``occupancy[t, i]`` is True when site i is up in pattern t.  The
    array is read-only, so every holder of the basis sees the same
    patterns.
    """

    sites: int
    magnons: int
    occupancy: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.occupancy.shape[0]

    @property
    def states(self) -> list[int]:
        """The patterns as Python ints, bit i set when site i is up; for oracles and checks."""
        up = np.nonzero(self.occupancy)[1].reshape(self.dim, self.magnons).tolist()
        return [sum(1 << i for i in row) for row in up]

    def swap_rows(self, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the (i up, j down) and (i down, j up) states of each site pair.

        Pair p is (first[p], second[p]).  Both results are (n_pairs,
        C(L-2, m-1)) arrays, and row t of ``ud[p]`` swaps into row t of
        ``du[p]``: read as integers, the swap adds the constant
        2^j - 2^i to the pattern, so it keeps ascending order between
        the two groups.
        """
        up_i, up_j = self.occupancy[:, first], self.occupancy[:, second]
        width = comb(self.sites - 2, self.magnons - 1) if 0 < self.magnons < self.sites else 0
        ud = np.nonzero((up_i & ~up_j).T)[1].reshape(len(first), width)
        du = np.nonzero((~up_i & up_j).T)[1].reshape(len(first), width)
        return ud, du

    def spins(self) -> np.ndarray:
        """(dim, L) array of +-1 spin values, +1 for up."""
        return np.where(self.occupancy, 1.0, -1.0)


def build_basis(sites: int, magnons: int) -> SectorBasis:
    """Enumerate the m-magnon sector of L sites.

    Raises ValueError when the arguments are out of range or the sector
    dimension exceeds ``DEFAULT_MAX_DIM``.
    """
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    if not 0 <= magnons <= sites:
        raise ValueError(f"magnon number {magnons} outside 0..{sites}")
    dim = comb(sites, magnons)
    if dim > DEFAULT_MAX_DIM:
        raise ValueError(f"sector dimension {dim} exceeds budget {DEFAULT_MAX_DIM}")

    # Ascending integers are the colex order of the set-site tuples, and the
    # colex list of k-subsets of range(p) is the first C(p, k) rows of that
    # of any larger range: append each top site p to those rows, p ascending.
    # Level k holds the k-subsets of range(L - m + k), the only ones extended.
    positions = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, magnons + 1):
        tops = range(k - 1, sites - magnons + k)
        counts = np.array([comb(p, k - 1) for p in tops], dtype=np.int64)
        starts = np.cumsum(counts) - counts
        rows = np.arange(counts.sum()) - np.repeat(starts, counts)
        positions = np.column_stack([positions[rows], np.repeat(np.array(tops), counts)])

    occupancy = np.zeros((dim, sites), dtype=bool)
    np.put_along_axis(occupancy, positions, True, axis=1)
    occupancy.flags.writeable = False
    return SectorBasis(sites, magnons, occupancy)


def spin_block(sites: int, magnons: int, two_s: int) -> np.ndarray:
    """Orthonormal block of total spin S = ``two_s``/2 in the m-magnon sector, built alone.

    Returns a C-ordered float64 (dim, d) array with one row per basis
    state (ascending patterns) and one column per spin-S multiplet,
    d = :func:`multiplets` (L, 2S).  Valid spins run from 2|M| to L in
    steps of 2, with M = m - L/2; the blocks of all of them together
    form an orthogonal matrix.  The caller owns the array and may
    overwrite it: :func:`spectrum.diagonalize` replaces it by the block's
    eigenvectors.  The same arguments give the same array, bit for bit.

    Sites are coupled one at a time with Clebsch-Gordan coefficients
    (Condon-Shortley phases).  On l sites the patterns with bit l-1
    clear list first and are sector (l-1, m) in order; those with the
    bit set follow as sector (l-1, m-1).  So the spin-S' block stacks the
    parents' S' - 1/2 and S' + 1/2 blocks scaled by scalar factors: no QR
    and no eigensolve.  The build is a narrow cone: with L - l sites still
    to couple, a block of spin 2S' can still reach 2S only if
    |2S' - 2S| <= L - l, so each level keeps those blocks alone.  Each
    level is written straight into its sector's array, and two levels are
    alive at once, except the last: the two sectors of level L-1 are
    built into the row ranges of the result, each parent block already in
    the column range it takes there, and then scaled in place by its
    factor (:func:`spin_block_words` counts the peak).  Every column is
    an exact eigenvector of the total spin, and the same column index
    labels the same multiplet in every sector of the same L.
    """
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    if not 0 <= magnons <= sites:
        raise ValueError(f"magnon number {magnons} outside 0..{sites}")
    if two_s not in block_spins(sites, magnons):
        raise ValueError(f"no spin block 2S={two_s} in sector ({sites}, {magnons})")
    if sites == 1:
        return np.ones((1, 1))  # a lone spin 1/2
    # sectors (l, k) that feed (sites, magnons), each its array and its blocks
    # keyed by 2S (column ranges of the array); (0, 0) is a spin-0 singleton
    one = np.ones((1, 1))
    level = {0: (one, {0: one})}
    for l in range(1, sites - 1):
        level = {
            k: _couple_site(level.get(k, (None, {}))[1], level.get(k - 1, (None, {}))[1], l, k,
                            _cone_spins(sites, two_s, l, k))
            for k in range(max(0, magnons - sites + l), min(l, magnons) + 1)
        }
    # level L-1: sector (L-1, m) (site L-1 down) fills the first rows, (L-1, m-1) the rest;
    # the parent blocks 2S-1 and 2S+1 take the first and the last columns
    n_down = comb(sites - 1, magnons)
    low = multiplets(sites - 1, two_s - 1) if two_s else 0
    q = np.empty((comb(sites, magnons), multiplets(sites, two_s)))
    cols = {two_s - 1: slice(0, low), two_s + 1: slice(low, q.shape[1])}
    m2 = 2 * magnons - sites  # 2M
    for side, (k, rows) in enumerate(((magnons, slice(0, n_down)), (magnons - 1, slice(n_down, None)))):
        spins = _cone_spins(sites, two_s, sites - 1, k)
        if not spins:  # k = -1 or k = L: no such sector, no rows
            continue
        # parent 2S+1 is present wherever its columns are; 2S-1 may be absent, and its columns zero
        lo = cols[spins[0]].start
        q[rows, :lo] = 0.0
        _couple_site(level.get(k, (None, {}))[1], level.get(k - 1, (None, {}))[1], sites - 1, k, spins,
                     q[rows, lo:])
        for p2 in spins:
            q[rows, cols[p2]] *= _factors(p2, two_s, m2)[side]
    return q


def block_spins(sites: int, magnons: int) -> range:
    """The 2S of every total-spin block of the m-magnon sector, ascending: 2|M| .. L."""
    return range(abs(2 * magnons - sites), sites + 1, 2)


def multiplets(sites: int, two_s: int) -> int:
    """Number of spin-S multiplets of L spins 1/2, the width of a spin-S block in any sector that has one."""
    n = (sites - two_s) // 2
    return comb(sites, n) - (comb(sites, n - 1) if n else 0)


def spin_block_words(sites: int, magnons: int, two_s: int) -> int:
    """Most float64 words alive at once in :func:`spin_block`.

    Below level L-1 two consecutive levels of the cone are alive; level
    L-1 is built into the dim x d result, next to level L-2.
    """
    if sites == 1:
        return 1
    sizes = [
        sum(comb(l, k) * sum(multiplets(l, s2) for s2 in _cone_spins(sites, two_s, l, k))
            for k in range(max(0, magnons - sites + l), min(l, magnons) + 1))
        for l in range(sites - 1)
    ]
    result = comb(sites, magnons) * multiplets(sites, two_s)
    return max([a + b for a, b in zip(sizes, sizes[1:])] + [sizes[-1] + result])


def _cone_spins(sites: int, two_s: int, l: int, k: int) -> range:
    """The 2S' of the blocks of sector (l, k) that can still couple to 2S on L sites: |2S' - 2S| <= L - l."""
    reach = sites - l
    return range(max(abs(2 * k - l), two_s - reach), min(l, two_s + reach) + 1, 2)


def _couple_site(
    down: dict[int, np.ndarray], up: dict[int, np.ndarray], l: int, k: int, spins: range,
    q: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The ``spins`` (2S) blocks of sector (l, k), from those of (l-1, k) (site l-1 down) and (l-1, k-1) (up).

    The blocks fill the columns of ``q`` side by side, 2S ascending; a new
    array when ``q`` is None.
    """
    n_down, n_up = comb(l - 1, k), comb(l - 1, k - 1) if k else 0
    m2 = 2 * k - l  # 2M
    if q is None:
        q = np.empty((n_down + n_up, sum(multiplets(l, s2) for s2 in spins)))
    blocks = {}
    col = 0
    for s2 in spins:
        start = col
        for p2 in (s2 - 1, s2 + 1):  # parent spin 2S' = 2S -+ 1
            qd, qu = down.get(p2), up.get(p2)
            if qd is None and qu is None:
                continue
            c_down, c_up = _factors(p2, s2, m2)
            cols = slice(col, col + (qd if qd is not None else qu).shape[1])
            # a parent block is absent exactly where its factor vanishes (|M'| > S')
            if qd is None:
                q[:n_down, cols] = 0.0
            else:
                np.multiply(qd, c_down, out=q[:n_down, cols])
            if qu is None:
                q[n_down:, cols] = 0.0
            else:
                np.multiply(qu, c_up, out=q[n_down:, cols])
            col = cols.stop
        blocks[s2] = q[:, start:col]
    return q, blocks


def _factors(p2: int, s2: int, m2: int) -> tuple[float, float]:
    """Clebsch-Gordan factors of parent block 2S' = ``p2`` in block 2S = ``s2`` at 2M = ``m2``: (site down, site up)."""
    plus = sqrt((p2 + m2 + 1) / (2 * p2 + 2))
    minus = sqrt((p2 - m2 + 1) / (2 * p2 + 2))
    # S = S' + 1/2: (plus |S', M-1/2> up + minus |S', M+1/2> down)
    # S = S' - 1/2: (-minus |S', M-1/2> up + plus |S', M+1/2> down)
    return (minus, plus) if p2 < s2 else (plus, -minus)


def ladder_integer(sites: int, magnons: int, two_s):
    """The value S(S+1) - M^2 + M of sigma^+ sigma^- = S^2 - S_z^2 + S_z on spin block 2S, M = m - L/2.

    0 on the lowest block of a sector with 2m <= L, whose states sigma^-
    annihilates, and at least L - 2m + 2 on every other.  Elementwise on
    an integer array of 2S values.
    """
    m2 = 2 * magnons - sites  # 2M
    return (two_s * (two_s + 2) - m2 * m2 + 2 * m2) // 4


def promotion_map(target: SectorBasis) -> sparse.csr_array:
    """Unnormalized sigma^+ from sector (L, m-1) into ``target`` = (L, m).

    The 0/1 CSR matrix R (C(L, m) x C(L, m-1)) whose row t has a one at
    each pattern that the t-th target pattern becomes with one up spin
    cleared, lowest site first.  sigma^+ is R, its adjoint sigma^- is R^T;
    at m = 0 R has no column.
    """
    # every target pattern has m set bits, so row t holds entries m*t .. m*t + m-1
    columns = cleared_ranks(target).ravel()
    indptr = np.arange(target.dim + 1) * target.magnons
    shape = (target.dim, comb(target.sites, target.magnons - 1) if target.magnons else 0)
    return sparse.csr_array((np.ones(columns.size), columns, indptr), shape=shape)


def rank(sites: int, magnons: int, pattern: int) -> int:
    """Position of ``pattern`` within its sector, without search.

    Combinatorial number system: with set bits at positions
    p_1 < ... < p_m, the rank is sum_k C(p_k, k).
    """
    if pattern < 0 or pattern >> sites:
        raise ValueError(f"pattern {pattern:#x} does not fit {sites} sites")
    r = 0
    k = 0
    p = pattern
    while p:
        low = p & -p
        k += 1
        r += comb(low.bit_length() - 1, k)
        p ^= low
    if k != magnons:
        raise ValueError(f"pattern has {k} bits set, sector expects {magnons}")
    return r


def cleared_ranks(b: SectorBasis) -> np.ndarray:
    """Ranks in sector m-1 of every pattern of ``b`` with one up spin cleared.

    Row t, column c holds the rank of the t-th pattern with its c-th
    lowest set bit cleared.  With set sites p_0 < ... < p_{m-1} the rank
    is sum_c C(p_c, c+1) (see :func:`rank`); clearing p_c drops its term,
    keeps the terms below it and lowers the count of every term above it
    by one: sum_{c'<c} C(p_c', c'+1) + sum_{c'>c} C(p_c', c').
    """
    L, m = b.sites, b.magnons
    set_sites = np.nonzero(b.occupancy)[1].reshape(b.dim, m)
    # C(i, k) where i <= L-m+k, the only entries read (set bit c sits at most
    # at site L-m+c); zero elsewhere, where C(i, k) can overflow int64
    table = np.array([[comb(i, k) if i <= L - m + k else 0 for k in range(m + 1)] for i in range(L)],
                     dtype=np.int64)
    count = np.arange(m)
    up = table[set_sites, count + 1]  # terms of the pattern's own rank
    down = table[set_sites, count]  # the same terms one count lower
    below = np.cumsum(up, axis=1) - up
    above = np.cumsum(down[:, ::-1], axis=1)[:, ::-1] - down
    return below + above


def unrank(sites: int, magnons: int, r: int) -> int:
    """Inverse of :func:`rank`: the r-th pattern of the sector."""
    if not 0 <= r < comb(sites, magnons):
        raise ValueError(f"rank {r} outside sector of dimension {comb(sites, magnons)}")
    pattern = 0
    top = sites
    for k in range(magnons, 0, -1):
        # largest position p with C(p, k) <= r
        p = k - 1
        while p + 1 < top and comb(p + 1, k) <= r:
            p += 1
        pattern |= 1 << p
        r -= comb(p, k)
        top = p
    return pattern
