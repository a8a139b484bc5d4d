"""Pairwise entanglement of definite-magnetization states.

For a real state with a fixed number of up spins, the reduced density
matrix of sites (i, j) is determined by five numbers: the populations
v (both up), w (i up, j down), x (i down, j up), y (both down) and the
single coherence z between the two antiparallel configurations.  The
concurrence of such a matrix is max(2 (|z| - sqrt(v y)), 0).

The kernels below work directly on the sector coefficients a without
ever forming a 2^L density matrix.  :func:`pair_rdm_elements` gathers
all five numbers for one pair.  :func:`pair_concurrences`, the batch
kernel over all pairs and a matrix of column states, needs only v, y and
z: v = U^T (a*a) and y = D^T (a*a) are two matrix products with the
0/1 indicators U (both sites up) and D (both down), and z is the
column-wise dot product of the (i up, j down) rows of a with their swap
partners, the (i down, j up) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .basis import SectorBasis

_NORM_TOL = 1e-12

# Columns per block in pair_concurrences.  A constant, never derived from
# the machine, so every column is summed the same way on every run.
_COLUMN_CHUNK = 128


@dataclass
class DefiniteParticleState:
    """Real coefficients over one sector basis, unit norm."""

    basis: SectorBasis
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.coefficients, dtype=np.float64)
        if a.shape != (self.basis.dim,):
            raise ValueError(f"expected {self.basis.dim} coefficients, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {_NORM_TOL}")
        self.coefficients = a

    @classmethod
    def normalized(cls, basis: SectorBasis, raw: np.ndarray) -> "DefiniteParticleState":
        raw = np.asarray(raw, dtype=np.float64)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(basis, raw / norm)

    @classmethod
    def uniform(cls, basis: SectorBasis) -> "DefiniteParticleState":
        """The equal-amplitude state, an eigenstate of every sector matrix."""
        return cls(basis, np.full(basis.dim, 1.0 / sqrt(basis.dim)))


@dataclass
class PairRDM:
    """Two-site reduced density matrix of a definite-magnetization state.

    Basis order for the populations: v both-up, w = (i up, j down),
    x = (i down, j up), y both-down; z is the real coherence between the
    w and x configurations.
    """

    i: int
    j: int
    v: float
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        total = self.v + self.w + self.x + self.y
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {total}, not 1")
        if self.z * self.z > self.w * self.x + 1e-12:
            raise ValueError("coherence violates positivity: z^2 > w x")

    def as_matrix(self) -> np.ndarray:
        """Dense 4x4 matrix in the (uu, ud, du, dd) product basis."""
        rho = np.zeros((4, 4))
        rho[0, 0] = self.v
        rho[1, 1] = self.w
        rho[2, 2] = self.x
        rho[3, 3] = self.y
        rho[1, 2] = rho[2, 1] = self.z
        return rho


def _pair_groups(basis: SectorBasis, i: int, j: int):
    """Split basis indices by the spin configuration at sites (i, j).

    The swap partner of the t-th (i up, j down) state is the t-th
    (i down, j up) state: the swap adds the constant 2^j - 2^i to the
    pattern, so it preserves ascending order between the two groups.
    """
    ui = basis.occupancy[:, i]
    uj = basis.occupancy[:, j]
    uu = np.flatnonzero(ui & uj)
    ud = np.flatnonzero(ui & ~uj)
    du = np.flatnonzero(~ui & uj)
    dd = np.flatnonzero(~(ui | uj))
    return uu, ud, du, dd


def pair_rdm_elements(
    basis: SectorBasis, coefficients: np.ndarray, i: int, j: int
) -> tuple[np.ndarray, ...]:
    """(v, w, x, y, z) for one pair, vectorized over column states.

    ``coefficients`` may be a single vector or a (dim, n) matrix; each
    output is then a scalar array or a length-n array.
    """
    if i == j:
        raise ValueError("pair sites must differ")
    if not (0 <= i < basis.sites and 0 <= j < basis.sites):
        raise ValueError(f"pair ({i}, {j}) outside sites 0..{basis.sites - 1}")
    a = np.asarray(coefficients, dtype=np.float64)
    uu, ud, du, dd = _pair_groups(basis, i, j)
    sq = a * a
    v = sq[uu].sum(axis=0)
    w = sq[ud].sum(axis=0)
    x = sq[du].sum(axis=0)
    y = sq[dd].sum(axis=0)
    z = (a[ud] * a[du]).sum(axis=0)
    return v, w, x, y, z


def pair_rdm(state: DefiniteParticleState, i: int, j: int) -> PairRDM:
    v, w, x, y, z = pair_rdm_elements(state.basis, state.coefficients, i, j)
    return PairRDM(i=i, j=j, v=float(v), w=float(w), x=float(x), y=float(y), z=float(z))


def concurrence(rdm: PairRDM) -> float:
    """Entanglement of formation monotone for the five-element RDM."""
    return max(2.0 * (abs(rdm.z) - sqrt(rdm.v * rdm.y)), 0.0)


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
    up_i, up_j = basis.occupancy[:, first], basis.occupancy[:, second]
    both_up = (up_i & up_j).astype(np.float64)
    both_down = (~(up_i | up_j)).astype(np.float64)
    del up_i, up_j  # each del lowers the peak that pair_concurrence_bytes budgets

    for lo in range(0, n_states, _COLUMN_CHUNK):
        block = np.ascontiguousarray(a[:, lo : lo + _COLUMN_CHUNK])
        sq = block * block
        v = both_up.T @ sq
        y = both_down.T @ sq
        z = np.empty_like(v)
        for p in range(first.size):
            z[p] = np.einsum("kc,kc->c", block[ud[p]], block[du[p]])
        out[:, lo : lo + _COLUMN_CHUNK] = concurrence_from_elements(v, y, z)
    return out[:, 0] if squeeze else out


def pair_concurrence_bytes(sites: int, magnons: int, n_states: int) -> int:
    """Upper estimate of the bytes :func:`pair_concurrences` allocates beyond its input.

    With dim = C(L, m) rows, P = C(L, 2) pairs and c = min(n_states,
    128) columns per block: the two float64 dim x P pair indicators and
    the four dim x P boolean arrays they are built from, the P x n_states
    output, the swap-row tables and their index temporaries
    (P C(L-2, m-1) each), and per block the column copy, its square, v, y
    and z (the concurrence formula runs in place in v and z).
    """
    dim, pairs = comb(sites, magnons), comb(sites, 2)
    swaps = pairs * (comb(sites - 2, magnons - 1) if 0 < magnons < sites else 0)
    chunk = min(n_states, _COLUMN_CHUNK)
    return 20 * dim * pairs + 8 * (pairs * n_states + 3 * swaps + 2 * dim * chunk + 3 * pairs * chunk)


def average_concurrence(state: DefiniteParticleState) -> float:
    """Concurrence averaged over all site pairs of one state."""
    return float(pair_concurrences(state.basis, state.coefficients).mean())


def average_concurrence_columns(basis: SectorBasis, coefficients: np.ndarray) -> np.ndarray:
    """Per-column pair-averaged concurrence for a matrix of states."""
    return pair_concurrences(basis, coefficients).mean(axis=0)


def inverse_participation_ratio(coefficients: np.ndarray) -> np.ndarray | float:
    """Sum of fourth powers; 1 for a basis state, 1/dim for the uniform state.

    Computed as (a*a)**2 by squaring in place, which is an order of
    magnitude faster than ``a**4`` and allocates one temporary.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    sq = a * a
    sq *= sq
    out = sq.sum(axis=0)
    return float(out) if np.ndim(out) == 0 else out


def participation_ratio(coefficients: np.ndarray) -> np.ndarray | float:
    """Effective number of participating basis states, 1 / IPR."""
    ipr = inverse_participation_ratio(coefficients)
    return 1.0 / ipr
