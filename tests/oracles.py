"""Independent recomputation routes used only by the tests.

Nothing here shares code with the production kernels: pair
reduced-density-matrix elements come from masked sums over the
occupancy columns, pair connectivity from a quadratic scan, coupling
matrices from one draw per pair, Jacobians from finite differences, the
promoted concurrence constant from quadrature, spin blocks from a
level-by-level Clebsch-Gordan build that writes every level to its own
array.  The full-space partial trace and the Wootters concurrence
live in :mod:`heisenglass.verify`, which runs them against the kernels
at every ``heisenglass verify``; the tests import them from there.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import integrate

from heisenglass import fitting
from heisenglass.basis import SectorBasis


def site_pairs(sites: int) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(sites) for j in range(i + 1, sites)]


def pair_elements_by_masks(
    basis: SectorBasis, coefficients: np.ndarray, i: int, j: int
) -> tuple[np.ndarray, ...]:
    """(v, w, x, y, z) of pair (i, j), vectorized over column states.

    Masks of the occupancy columns split the rows into both-up (v),
    (i up, j down) (w), (i down, j up) (x) and both-down (y); the t-th
    row of the (i up, j down) group swaps into the t-th row of the
    (i down, j up) group, so z is their aligned product sum.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    ui, uj = basis.occupancy[:, i], basis.occupancy[:, j]
    ud, du = ui & ~uj, ~ui & uj
    sq = a * a
    v = sq[ui & uj].sum(axis=0)
    w = sq[ud].sum(axis=0)
    x = sq[du].sum(axis=0)
    y = sq[~(ui | uj)].sum(axis=0)
    z = (a[ud] * a[du]).sum(axis=0)
    return v, w, x, y, z


def reference_couplings(sites: int, sigma: float, seed: int) -> np.ndarray:
    """Coupling matrix by one Gaussian per pair, branch by branch.

    Nearest neighbour (sigma = inf) fills the sorted ring pairs one at a
    time; otherwise every pair in lexicographic order gets its draw, and
    sigma > 0 scales it by its own chord (L / pi) sin(pi (j - i) / L)
    to the power -sigma / 2.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    J = np.zeros((sites, sites))
    if math.isinf(sigma):
        # the closing bond (0, L - 1) is the bond (0, 1) again at L = 2
        pairs = sorted({(i, i + 1) for i in range(sites - 1)} | {(0, sites - 1)})
        draws = rng.standard_normal(len(pairs))
        for (i, j), g in zip(pairs, draws):
            J[i, j] = g
    else:
        pairs = site_pairs(sites)
        draws = rng.standard_normal(len(pairs))
        if sigma > 0:
            dist = np.array([(sites / math.pi) * math.sin(math.pi * (j - i) / sites) for i, j in pairs])
            draws = draws * dist ** (-sigma / 2.0)
        for (i, j), g in zip(pairs, draws):
            J[i, j] = g
    return J + J.T


def brute_pair_partners(states: list[int], i: int, j: int) -> list[tuple[int, int]]:
    """All (k, l) with state l = state k with the (i up, j down) pair swapped.

    Quadratic scan over the basis; cross-checks the order-preserving
    pairing the assembly kernel relies on.
    """
    index = {s: k for k, s in enumerate(states)}
    out = []
    for k, s in enumerate(states):
        if (s >> i) & 1 and not (s >> j) & 1:
            swapped = s - (1 << i) + (1 << j)
            if swapped in index:
                out.append((k, index[swapped]))
    return out


def enumerate_patterns(sites: int, magnons: int) -> tuple[list[int], np.ndarray]:
    """Sector patterns ascending, and their (dim, L) occupancy, by itertools and Python ints."""
    states = sorted(sum(1 << s for s in combo) for combo in combinations(range(sites), magnons))
    occupancy = np.array([[(pattern >> i) & 1 == 1 for i in range(sites)] for pattern in states], dtype=bool)
    return states, occupancy


def finite_difference_jacobian(family: str, params: np.ndarray, L: np.ndarray, h: float = 1e-6) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    cols = []
    for k in range(params.size):
        dp = np.zeros_like(params)
        dp[k] = h * max(1.0, abs(params[k]))
        cols.append(
            (fitting.model_value(family, params + dp, L) - fitting.model_value(family, params - dp, L))
            / (2.0 * dp[k])
        )
    return np.column_stack(cols)


def gap_scan_groups(eigenvalues: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Degeneracy groups by direct gap comparison (no production helpers)."""
    groups = []
    start = 0
    for k in range(1, eigenvalues.size):
        if eigenvalues[k] - eigenvalues[k - 1] > tol:
            groups.append((start, k))
            start = k
    groups.append((start, eigenvalues.size))
    return groups


@lru_cache(maxsize=1)
def promoted_concurrence_constant() -> float:
    """<C> * L for promoted random states as L -> infinity, by quadrature.

    In leading order the pair concurrence is
    2 (|1 + x1 x2| - |x1 + x2|) / L with x1, x2 the standardized seed
    amplitudes, positive exactly on (1 - x1^2)(1 - x2^2) > 0.  The
    region splits into the unit square and its two-sided tails; the
    (x1, x2) -> (-x1, -x2) symmetry halves the tail work.
    """

    def integrand(x2: float, x1: float) -> float:
        density = math.exp(-(x1 * x1 + x2 * x2) / 2.0) / (2.0 * math.pi)
        return (abs(1.0 + x1 * x2) - abs(x1 + x2)) * density

    inner, _ = integrate.dblquad(integrand, -1.0, 1.0, -1.0, 1.0, epsabs=1e-12)
    tail_pp, _ = integrate.dblquad(integrand, 1.0, np.inf, 1.0, np.inf, epsabs=1e-12)
    tail_pm, _ = integrate.dblquad(integrand, 1.0, np.inf, -np.inf, -1.0, epsabs=1e-12)
    return 2.0 * (inner + 2.0 * (tail_pp + tail_pm))


def _multiplets(sites: int, two_s: int) -> int:
    n = (sites - two_s) // 2
    return math.comb(sites, n) - (math.comb(sites, n - 1) if n else 0)


def reference_spin_block(sites: int, magnons: int, two_s: int) -> np.ndarray:
    """Spin block 2S of sector (L, m) by the narrow Clebsch-Gordan cone, one new array per level.

    Level l holds sectors (l, k) with the blocks 2S' that can still reach
    2S, |2S' - 2S| <= L - l; each sector stacks the scaled blocks of
    (l-1, k) (site l-1 down) and (l-1, k-1) (up), and a parent absent
    where its factor vanishes gives zeros.  The last level is built like
    every other, from a level L-1 held in arrays of its own.
    """
    def cone(l, k):
        reach = sites - l
        return range(max(abs(2 * k - l), two_s - reach), min(l, two_s + reach) + 1, 2)

    def couple(down, up, l, k):
        n_down, n_up = math.comb(l - 1, k), math.comb(l - 1, k - 1) if k else 0
        m2 = 2 * k - l
        spins = cone(l, k)
        q = np.empty((n_down + n_up, sum(_multiplets(l, s2) for s2 in spins)))
        blocks, col = {}, 0
        for s2 in spins:
            start = col
            for p2 in (s2 - 1, s2 + 1):
                qd, qu = down.get(p2), up.get(p2)
                if qd is None and qu is None:
                    continue
                plus = math.sqrt((p2 + m2 + 1) / (2 * p2 + 2))
                minus = math.sqrt((p2 - m2 + 1) / (2 * p2 + 2))
                c_down, c_up = (minus, plus) if p2 < s2 else (plus, -minus)
                cols = slice(col, col + (qd if qd is not None else qu).shape[1])
                q[:n_down, cols] = 0.0 if qd is None else qd * c_down
                q[n_down:, cols] = 0.0 if qu is None else qu * c_up
                col = cols.stop
            blocks[s2] = q[:, start:col]
        return q, blocks

    one = np.ones((1, 1))
    level = {0: (one, {0: one})}
    for l in range(1, sites + 1):
        level = {
            k: couple(level.get(k, (None, {}))[1], level.get(k - 1, (None, {}))[1], l, k)
            for k in range(max(0, magnons - sites + l), min(l, magnons) + 1)
        }
    return level[magnons][0]
