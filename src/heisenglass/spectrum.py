"""Sector eigensolves by total spin."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy import sparse

from . import basis, entanglement
from .sector import SectorMatrix


# Largest eigenpair residual diagonalize accepts, relative to ||H||_F.
RESIDUAL_RTOL = 1e-10

# Pages a solve touches beyond its arrays: BLAS/LAPACK buffers and allocator
# bookkeeping, seen at up to 6 MiB above the array count.
_LIBRARY_BYTES = 16 * 2**20


def solve_bytes(sites: int, magnons: int) -> int:
    """Upper estimate of the bytes one sample's solve and statistics add above its sparse input.

    Counts the largest set of arrays alive at once in each phase of
    :func:`diagonalize`, the classification and the pair concurrences
    after it, with dim = C(L, m) and d the widest spin block, in float64
    words unless stated:

    * spin-block build: the dim^2 of blocks next to both parent sectors';
    * block solve: the blocks (or the V_S replacing them), H Q_S and
      inside eigh the matrix A, its copy, a 2 d^2 workspace and X; or,
      after eigh, H Q_S, V_S and H V_S next to X;
    * merge and Gram check: the merged copy next to the blocks and |V_S|,
      then next to V^T V;
    * classification: the eigenvectors and their sigma^- image;
    * pair concurrences: the eigenvectors, the promoted columns copied
      out of them, and the bytes of
      :func:`entanglement.pair_concurrence_bytes` for dim columns, which
      dominate at small m (its indicators are dim x C(L, 2)).

    One more dim^2 covers freed blocks the allocator keeps, and a fixed
    16 MiB the library buffers.
    """
    dim = comb(sites, magnons)
    d = max(comb(sites, k) - (comb(sites, k - 1) if k else 0) for k in range(min(magnons, sites - magnons) + 1))
    words = max(
        dim * dim + comb(sites - 1, magnons) ** 2 + comb(sites - 1, magnons - 1) ** 2,
        dim * dim + dim * d + 5 * d * d,
        dim * dim + 2 * dim * d + d * d,
        2 * dim * dim + dim * d,
        dim * dim + comb(sites, magnons - 1) * dim,
    )
    promoted = min(comb(sites, magnons - 1), dim)
    concurrence = 8 * (dim * dim + dim * promoted) + entanglement.pair_concurrence_bytes(sites, magnons, dim)
    return max(8 * words, concurrence) + 8 * dim * dim + _LIBRARY_BYTES


class SpectrumError(RuntimeError):
    """Eigensolve failed or violated a post-condition."""


@dataclass
class Spectrum:
    """Eigendecomposition of one sector matrix.

    Eigenvalues ascend; eigenvector k is column k of ``vectors`` and lies
    in the total-spin block ``two_s[k]`` = 2S.  ``groups`` lists
    contiguous (start, stop) index ranges of eigenvalues that chain
    together within ``degtol`` = 1e-8 * max(1, ||H||_F).
    """

    matrix: SectorMatrix
    eigenvalues: np.ndarray
    vectors: np.ndarray
    two_s: np.ndarray
    degtol: float
    groups: list[tuple[int, int]] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def degenerate_mask(self) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        for a, b in self.groups:
            if b - a > 1:
                mask[a:b] = True
        return mask


def group_degeneracies(eigenvalues: np.ndarray, degtol: float) -> list[tuple[int, int]]:
    """Maximal runs of ascending eigenvalues with consecutive gaps <= degtol."""
    n = eigenvalues.size
    groups: list[tuple[int, int]] = []
    start = 0
    for k in range(1, n):
        if eigenvalues[k] - eigenvalues[k - 1] > degtol:
            groups.append((start, k))
            start = k
    if n:
        groups.append((start, n))
    return groups


def diagonalize(sm: SectorMatrix) -> Spectrum:
    """Eigensolve a sparse Heisenberg sector block one total spin at a time.

    ``sm.matrix`` is a canonical CSR matrix that must commute with the
    total spin, as every sector block of sum_{i<j} J_ij sigma_i . sigma_j
    does.  For each spin-S block Q_S of :func:`basis.total_spin_blocks`
    it forms the sparse-times-dense product H Q_S, solves the small
    problem A = Q_S^T (H Q_S) with LAPACK and returns V_S = Q_S X_S; the
    blocks merge ascending by a stable sort.  No dense dim x dim copy of
    H is made.  The residual of every returned column is formed from
    (H Q_S) X_S, which by associativity is H V_S.

    Raises SpectrumError for a non-finite stored entry, an eigenpair
    residual above ``RESIDUAL_RTOL`` * ||H||_F (which is what a matrix
    without SU(2) symmetry, or an asymmetric one, produces), eigenvectors that are not
    orthonormal, or an eigenvalue sum that disagrees with the trace,
    instead of returning a silently bad decomposition.
    """
    H = sm.matrix
    if not np.isfinite(H.data).all():
        raise SpectrumError("sector matrix has non-finite entries")
    blocks = basis.total_spin_blocks(sm.basis.sites, sm.basis.magnons)
    keys = list(blocks)
    solved = [_solve_block(H, blocks.pop(two_s), two_s) for two_s in keys]

    evals_by_block = np.concatenate([w for w, _, _ in solved])
    order = np.argsort(evals_by_block, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    evals = evals_by_block[order]
    two_s = np.repeat(keys, [w.size for w, _, _ in solved])[order]
    residual = np.concatenate([r for _, _, r in solved])

    scale = max(1.0, float(np.linalg.norm(H.data)))  # ||H||_F: H is canonical, no duplicates
    worst = float(residual.max(initial=0.0))
    if not worst <= RESIDUAL_RTOL * scale:
        raise SpectrumError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||H||_F")

    # each block is dropped once placed, so blocks and merged copy never coexist in full
    vectors = np.empty((sm.dim, sm.dim))
    start = 0
    while solved:
        V = solved.pop(0)[1]
        vectors[:, position[start : start + V.shape[1]]] = V
        start += V.shape[1]
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    ortho = float(np.abs(gram, out=gram).max(initial=0.0))
    if not ortho <= 1e-10:
        raise SpectrumError(f"eigenvectors not orthonormal, deviation {ortho:.3e}")
    tr = float(H.diagonal().sum())
    if not abs(evals.sum() - tr) <= 1e-9 * max(1.0, abs(tr)):
        raise SpectrumError("eigenvalue sum disagrees with trace")

    degtol = 1e-8 * scale
    return Spectrum(
        matrix=sm,
        eigenvalues=evals,
        vectors=vectors,
        two_s=two_s,
        degtol=degtol,
        groups=group_degeneracies(evals, degtol),
    )


def _solve_block(H: sparse.csr_array, Q: np.ndarray, two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors V = Q X and residual norms |H V - V w| of one spin block."""
    HQ = H @ Q
    try:
        w, X = np.linalg.eigh(Q.T @ HQ)
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver did not converge at 2S={two_s}: {err}") from err
    V = Q @ X
    del Q  # each del lowers the peak that solve_bytes budgets
    HV = HQ @ X  # = H V by associativity
    HV -= np.multiply(V, w, out=HQ)
    del HQ
    return w, V, np.linalg.norm(HV, axis=0)


def contains_spectrum(outer: np.ndarray, inner: np.ndarray, tol: float) -> bool:
    """Is every eigenvalue of ``inner`` matched (with multiplicity) in ``outer``?

    Greedy two-pointer scan over the ascending arrays; each outer value
    is consumed at most once.
    """
    i = 0
    for lam in inner:
        while i < outer.size and outer[i] < lam - tol:
            i += 1
        if i == outer.size or abs(outer[i] - lam) > tol:
            return False
        i += 1
    return True
