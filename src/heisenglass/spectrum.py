"""Sector eigensolves by total spin, with deterministic conventions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import basis
from .sector import SectorMatrix


# Peak number of dim x dim float64 arrays alive in diagonalize, reached
# when one spin block spans nearly the whole sector (m = 1, 2): H, the
# blocks Q, H Q, A = Q^T H Q, and inside np.linalg.eigh its copy of A,
# a workspace of two more and the eigenvectors X.
DENSE_COPIES = 8


class SpectrumError(RuntimeError):
    """Eigensolve failed or violated a post-condition."""


@dataclass
class Spectrum:
    """Eigendecomposition of one sector matrix.

    Eigenvalues ascend; eigenvector k is column k of ``vectors`` with
    its largest-magnitude component made positive, and lies in the
    total-spin block ``two_s[k]`` = 2S.  ``groups`` lists contiguous
    (start, stop) index ranges of eigenvalues that chain together within
    ``degtol``.
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


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-|.| entry is positive.

    Ties resolve to the lowest index via argmax, so the convention is
    deterministic.
    """
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


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


def default_degtol(matrix: np.ndarray) -> float:
    return 1e-8 * max(1.0, float(np.linalg.norm(matrix)))


def diagonalize(sm: SectorMatrix, degtol: float | None = None, rtol: float = 1e-10) -> Spectrum:
    """Eigensolve a Heisenberg sector block one total spin at a time.

    ``sm.matrix`` must commute with the total spin, as every sector
    block of sum_{i<j} J_ij sigma_i . sigma_j does.  For each spin-S
    block Q_S of :func:`basis.total_spin_blocks` it solves the small
    problem A = Q_S^T (H Q_S) with LAPACK and returns V_S = Q_S X_S; the
    blocks merge ascending by a stable sort.  The residual of every
    returned column is formed from (H Q_S) X_S, which by associativity
    is H V_S, so no further dim^3 product is needed.

    Raises SpectrumError for a non-finite matrix, an eigenpair residual
    above rtol * ||H||_F (which is what a matrix without SU(2) symmetry
    produces), eigenvectors that are not orthonormal, or an eigenvalue
    sum that disagrees with the trace, instead of returning a silently
    bad decomposition.
    """
    H = sm.matrix
    if not np.isfinite(H).all():
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

    scale = max(1.0, float(np.linalg.norm(H)))
    worst = float(residual.max(initial=0.0))
    if not worst <= rtol * scale:
        raise SpectrumError(f"eigenpair residual {worst:.3e} exceeds {rtol:.1e} * ||H||_F")

    # each block is dropped once placed, so blocks and merged copy never coexist in full
    vectors = np.empty_like(H)
    start = 0
    while solved:
        V = solved.pop(0)[1]
        vectors[:, position[start : start + V.shape[1]]] = fix_signs(V)
        start += V.shape[1]
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    ortho = float(np.abs(gram, out=gram).max(initial=0.0))
    if not ortho <= 1e-10:
        raise SpectrumError(f"eigenvectors not orthonormal, deviation {ortho:.3e}")
    tr = float(np.trace(H))
    if not abs(evals.sum() - tr) <= 1e-9 * max(1.0, abs(tr)):
        raise SpectrumError("eigenvalue sum disagrees with trace")

    if degtol is None:
        degtol = default_degtol(H)
    return Spectrum(
        matrix=sm,
        eigenvalues=evals,
        vectors=vectors,
        two_s=two_s,
        degtol=degtol,
        groups=group_degeneracies(evals, degtol),
    )


def _solve_block(H: np.ndarray, Q: np.ndarray, two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors V = Q X and residual norms |H V - V w| of one spin block."""
    HQ = H @ Q
    try:
        w, X = np.linalg.eigh(Q.T @ HQ)
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver did not converge at 2S={two_s}: {err}") from err
    V = Q @ X
    del Q  # each del keeps the peak within DENSE_COPIES
    HV = HQ @ X  # = H V by associativity
    del HQ
    HV -= V * w
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
