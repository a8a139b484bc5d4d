"""Sector eigensolves by total spin."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy import sparse

from . import basis, entanglement
from .entanglement import PANEL
from .sector import SectorMatrix


# Largest eigenpair residual diagonalize accepts, relative to ||H||_F.
RESIDUAL_RTOL = 1e-10

# Pages a solve touches beyond its arrays: BLAS/LAPACK buffers and allocator
# bookkeeping, seen at up to 6 MiB above the array count.
_LIBRARY_BYTES = 16 * 2**20


def solve_bytes(sites: int, magnons: int) -> int:
    """Upper estimate of the bytes one sample's solve and statistics add above its sparse input.

    The dim x dim array of :func:`diagonalize`, dim = C(L, m), lives from
    the spin-block build to the last per-state statistic.  Next to it,
    with d the widest spin block and p = ``PANEL``, this counts the
    largest set of arrays alive at once in each phase, in float64 words
    unless stated:

    * spin-block build: the arrays of both parent sectors (L-1, m) and
      (L-1, m-1);
    * block solve, one phase after the other: A = Q_S^T (H Q_S), formed
      p columns at a time, next to scipy's contiguous copy of one strided
      p-column panel of Q_S, its product with H and the d x p panel of A
      it gives, d^2 + p (2 dim + d); eigh's A, its copy, a 2 d^2
      workspace and X; X next to one p-row panel of Q_S and its product
      Q_S X_S; then two dim x p residual panels of H V_S (scipy's panel
      copy, then V_S w);
    * orthonormality check: one Gram panel of at most dim x p;
    * classification: a contiguous copy of p eigenvectors and its
      sigma^- image, p (dim + C(L, m-1));
    * pair concurrences: the bytes of
      :func:`entanglement.pair_concurrence_bytes` for dim columns, which
      dominate at small m (its indicators are dim x C(L, 2)).

    One more dim^2 covers freed blocks the allocator keeps, and a fixed
    16 MiB the library buffers.
    """
    dim = comb(sites, magnons)
    d = max(comb(sites, k) - (comb(sites, k - 1) if k else 0) for k in range(min(magnons, sites - magnons) + 1))
    words = max(
        comb(sites - 1, magnons) ** 2 + comb(sites - 1, magnons - 1) ** 2,
        d * d + PANEL * (2 * dim + d),
        5 * d * d,
        d * d + 2 * PANEL * d,
        2 * PANEL * dim,
        PANEL * (dim + comb(sites, magnons - 1)),
    )
    concurrence = entanglement.pair_concurrence_bytes(sites, magnons, dim)
    return 16 * dim * dim + max(8 * words, concurrence) + _LIBRARY_BYTES


class SpectrumError(RuntimeError):
    """Eigensolve failed or violated a post-condition."""


@dataclass
class Spectrum:
    """Eigendecomposition of one sector matrix, in spin-block order.

    Eigenvector k is column k of ``vectors``, a C-ordered (dim, dim)
    array, with eigenvalue ``eigenvalues[k]``, and lies in the total-spin
    block ``two_s[k]`` = 2S.  The blocks follow each other with 2S
    ascending, and the eigenvalues ascend within each block.  ``order``
    is the stable argsort of ``eigenvalues``, the one permutation into
    energy order: ``eigenvalues[order]`` ascends.  ``groups`` and
    :meth:`degenerate_mask` are in energy order: ``groups`` lists
    contiguous (start, stop) ranges of ``eigenvalues[order]`` that chain
    together within ``degtol`` = 1e-8 * max(1, ||H||_F).
    """

    matrix: SectorMatrix
    eigenvalues: np.ndarray
    vectors: np.ndarray
    two_s: np.ndarray
    order: np.ndarray
    degtol: float
    groups: list[tuple[int, int]] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def degenerate_mask(self) -> np.ndarray:
        """Is state ``order[k]`` in a group of more than one eigenvalue?"""
        mask = np.zeros(self.dim, dtype=bool)
        for a, b in self.groups:
            if b - a > 1:
                mask[a:b] = True
        return mask


def group_degeneracies(eigenvalues: np.ndarray, degtol: float) -> list[tuple[int, int]]:
    """Maximal runs of ascending eigenvalues with consecutive gaps <= degtol (a NaN gap makes no cut)."""
    n = eigenvalues.size
    cuts = (np.flatnonzero(np.diff(eigenvalues) > degtol) + 1).tolist()
    return list(zip([0] + cuts, cuts + [n])) if n else []


def diagonalize(sm: SectorMatrix) -> Spectrum:
    """Eigensolve a sparse Heisenberg sector block one total spin at a time.

    ``sm.matrix`` is a canonical CSR matrix that must commute with the
    total spin, as every sector block of sum_{i<j} J_ij sigma_i . sigma_j
    does.  One (dim, dim) array carries the whole solve: it starts as the
    spin blocks Q_S of :func:`basis.total_spin_blocks`, and :func:`_solve_block`
    reduces each block to the d x d matrix Q_S^T H Q_S one column panel
    at a time and replaces the block by its eigenvectors V_S = Q_S X_S in
    place.  The array is returned as ``vectors`` in that spin-block
    order, so the residual check of each block covers the returned
    columns themselves; energy order is the permutation ``order`` of the
    1-D outputs alone.  No dense copy of H, no dim x d product H Q_S, no
    merged copy of the eigenvectors and no dim x dim Gram matrix is made.

    Raises SpectrumError for a non-finite stored entry, an eigenpair
    residual above ``RESIDUAL_RTOL`` * ||H||_F (which is what a matrix
    without SU(2) symmetry, or an asymmetric one, produces), eigenvectors that are not
    orthonormal (:func:`orthonormality_deviation` above 1e-10), or an
    eigenvalue sum that disagrees with the trace, instead of returning a
    silently bad decomposition.
    """
    H = sm.matrix
    if not np.isfinite(H.data).all():
        raise SpectrumError("sector matrix has non-finite entries")
    vectors, two_s = basis.total_spin_blocks(sm.basis.sites, sm.basis.magnons)
    starts = np.flatnonzero(np.diff(two_s, prepend=-1)).tolist()
    solved = [_solve_block(H, vectors[:, lo:hi], int(two_s[lo])) for lo, hi in zip(starts, starts[1:] + [sm.dim])]
    evals = np.concatenate([w for w, _ in solved])
    residual = np.concatenate([r for _, r in solved])

    scale = max(1.0, float(np.linalg.norm(H.data)))  # ||H||_F: H is canonical, no duplicates
    worst = float(residual.max(initial=0.0))
    if not worst <= RESIDUAL_RTOL * scale:
        raise SpectrumError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||H||_F")

    ortho = orthonormality_deviation(vectors)
    if not ortho <= 1e-10:
        raise SpectrumError(f"eigenvectors not orthonormal, deviation {ortho:.3e}")
    tr = float(H.diagonal().sum())
    if not abs(evals.sum() - tr) <= 1e-9 * max(1.0, abs(tr)):
        raise SpectrumError("eigenvalue sum disagrees with trace")

    degtol = 1e-8 * scale
    order = np.argsort(evals, kind="stable")
    return Spectrum(
        matrix=sm,
        eigenvalues=evals,
        vectors=vectors,
        two_s=two_s,
        order=order,
        degtol=degtol,
        groups=group_degeneracies(evals[order], degtol),
    )


def _solve_block(H: sparse.csr_array, Q: np.ndarray, two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and residual norms |H V - V w| of one spin block, whose columns Q become V = Q X.

    ``Q`` is a column range of the solve's array, passed to BLAS as a
    strided view.  The d x d matrix A = Q^T H Q is formed ``PANEL``
    columns at a time, and only from each panel's diagonal down,
    A[lo:, panel] = Q[:, lo:]^T (H Q[:, panel]), since LAPACK reads the
    lower triangle alone.  (OpenBLAS may send a thin last panel to its
    small-matrix kernel, so A can differ from the full product in the
    last bits.)  No product wider than one panel is alive (scipy copies
    one strided panel of Q at a time).  Q X overwrites Q ``PANEL`` rows at a
    time.  The residuals are then taken from H itself on the returned
    columns, ``PANEL`` columns at a time.
    """
    dim, width = Q.shape
    A = np.empty((width, width))  # above the diagonal panels, A stays unset
    for lo in range(0, width, PANEL):
        cols = slice(lo, lo + PANEL)
        A[lo:, cols] = Q[:, lo:].T @ (H @ Q[:, cols])
    try:
        w, X = np.linalg.eigh(A, UPLO="L")
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver did not converge at 2S={two_s}: {err}") from err
    del A  # each del lowers the peak that solve_bytes budgets
    for lo in range(0, dim, PANEL):
        rows = slice(lo, lo + PANEL)
        Q[rows] = Q[rows] @ X
    del X
    residual = np.empty(width)
    for lo in range(0, width, PANEL):
        cols = slice(lo, lo + PANEL)
        HV = H @ Q[:, cols]
        HV -= Q[:, cols] * w[cols]
        residual[cols] = np.linalg.norm(HV, axis=0)
    return w, residual


def orthonormality_deviation(vectors: np.ndarray) -> float:
    """max |V^T V - I| over the columns of ``vectors``, from ``PANEL`` rows of the Gram at a time.

    The Gram is symmetric, so each panel of rows lo .. hi is formed only up
    to its own diagonal block, G[lo:hi, :hi]: together the panels cover one
    triangle and the diagonal, with at most PANEL x n words alive.
    """
    n = vectors.shape[1]
    worst = np.float64(0.0)
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        gram = vectors[:, lo:hi].T @ vectors[:, :hi]
        gram[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        worst = np.maximum(worst, np.abs(gram, out=gram).max())  # NaN propagates
    return float(worst)


def contains_spectrum(outer: np.ndarray, inner: np.ndarray, tol: float) -> bool:
    """Is every eigenvalue of ``inner`` matched (with multiplicity) in ``outer``?

    Greedy two-pointer scan over the ascending arrays; each outer value
    is consumed at most once.  Raises ValueError unless both arrays
    ascend (a spectrum in spin-block order is passed as
    ``eigenvalues[order]``).
    """
    if not (np.all(np.diff(outer) >= 0) and np.all(np.diff(inner) >= 0)):  # NaN fails too
        raise ValueError("contains_spectrum needs ascending eigenvalues")
    i = 0
    for lam in inner:
        while i < outer.size and outer[i] < lam - tol:
            i += 1
        if i == outer.size or abs(outer[i] - lam) > tol:
            return False
        i += 1
    return True
