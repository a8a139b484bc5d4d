"""Sector eigensolves by total spin."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy import sparse

from . import basis, entanglement
from .entanglement import PANEL
from .sector import SectorMatrix


# Largest eigenpair residual diagonalize accepts, relative to ||H||_F.
RESIDUAL_RTOL = 1e-10

# Largest |sigma^+ sigma^- v - n_S v| diagonalize accepts for a unit eigenvector
# v of spin block S; it bounds overlaps between blocks by the same 1e-10 that
# each block's Gram bounds within it.
CASIMIR_TOL = 1e-10

# Pages a solve touches beyond its arrays: BLAS/LAPACK buffers and allocator
# bookkeeping, seen at up to 6 MiB above the array count.
_LIBRARY_BYTES = 16 * 2**20


def solve_bytes(sites: int, magnons: int) -> int:
    """Upper estimate of the bytes one sample's solve and statistics add above its sparse input.

    :func:`diagonalize` holds one spin block at a time, and of it at most
    one dim x d array.  For each block, with dim = C(L, m), d its width
    and p = ``PANEL``, this counts the largest set of arrays alive at once
    in each phase, in float64 words unless stated:

    * spin-block builds: the cone of :func:`basis.spin_block_words`,
      whose last step fills Q_S; the second build runs next to eigh's X;
    * Q_S next to A = Q_S^T (H Q_S), formed p columns at a time, scipy's
      contiguous copy of one strided p-column panel of Q_S, its product
      with H and the d x p panel of A it gives, d^2 + p (2 dim + d);
    * eigh, with Q_S released: A, its copy, a 2 d^2 workspace and X;
    * V_S = Q_S X_S, written into the rebuilt Q_S p rows at a time next
      to X, one p-row panel and its product, d^2 + 2 p d: since d <= dim
      the A phase always holds at least as much, so this phase adds no
      term;
    * V_S next to the one check pass of :func:`_check_block`: one
      contiguous copy of a p-column panel, held while it feeds first the
      residual H panel - panel w (two more dim x p) and, next to it, a
      p x d row panel of the block's Gram, then the ladder step, the
      panel's sigma^- image, that image raised and n_S times the panel;
      the ladder step is the largest, p (C(L, m-1) + 3 dim);
    * the caller's statistics, taken on the block alone: the bytes of
      :func:`entanglement.pair_concurrence_bytes` for its d columns,
      next to V_S; they dominate at small m (the indicators are
      dim x C(L, 2)).

    On top of the worst block: 16 dim words of per-state results, one
    more dim x d_max for freed blocks the allocator keeps, and a fixed
    16 MiB the library buffers.
    """
    dim, lower = comb(sites, magnons), comb(sites, magnons - 1) if magnons else 0
    p = PANEL
    worst = widest = 0
    for two_s in basis.block_spins(sites, magnons):
        d = basis.multiplets(sites, two_s)
        widest = max(widest, d)
        held = max(d * d + p * (2 * dim + d), p * (lower + 3 * dim))
        words = max(d * d + d + basis.spin_block_words(sites, magnons, two_s), 5 * d * d, dim * d + held)
        worst = max(
            worst,
            8 * words,
            8 * dim * d + entanglement.pair_concurrence_bytes(sites, magnons, d),
        )
    return worst + 8 * (16 * dim + dim * widest) + _LIBRARY_BYTES


class SpectrumError(RuntimeError):
    """Eigensolve failed or violated a post-condition."""


@dataclass
class Spectrum:
    """Eigenvalues of one sector matrix and what each eigenvector showed, in spin-block order.

    The eigenvectors themselves are not kept: :func:`diagonalize` hands
    each spin block's eigenvectors to its ``measure`` hook and drops them.
    State k has eigenvalue ``eigenvalues[k]``, lies in the total-spin
    block ``two_s[k]`` = 2S and has the ladder value
    ``ladder_values[k]`` = |sigma^- v_k|^2.  The blocks follow each other
    with 2S ascending, and the eigenvalues ascend within each block.
    ``order`` is the stable argsort of ``eigenvalues``, the one
    permutation into energy order: ``eigenvalues[order]`` ascends.
    ``groups`` and :meth:`degenerate_mask` are in energy order: ``groups``
    lists contiguous (start, stop) ranges of ``eigenvalues[order]`` that
    chain together within ``degtol`` = 1e-8 * max(1, ||H||_F).
    """

    matrix: SectorMatrix
    eigenvalues: np.ndarray
    two_s: np.ndarray
    ladder_values: np.ndarray
    order: np.ndarray
    degtol: float
    groups: list[tuple[int, int]] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def degenerate_mask(self) -> np.ndarray:
        """Is state ``order[k]`` in a group of more than one eigenvalue?"""
        sizes = [b - a for a, b in self.groups]  # the groups tile 0 .. dim
        return np.repeat(np.greater(sizes, 1), sizes)


def group_degeneracies(eigenvalues: np.ndarray, degtol: float) -> list[tuple[int, int]]:
    """Maximal runs of ascending eigenvalues with consecutive gaps <= degtol (a NaN gap makes no cut)."""
    n = eigenvalues.size
    cuts = (np.flatnonzero(np.diff(eigenvalues) > degtol) + 1).tolist()
    return list(zip([0] + cuts, cuts + [n])) if n else []


def diagonalize(
    sm: SectorMatrix,
    raising: sparse.csr_array | None = None,
    measure: Callable[[int, np.ndarray], None] | None = None,
) -> Spectrum:
    """Eigensolve a sparse Heisenberg sector block one total spin at a time.

    ``sm.matrix`` is a canonical CSR matrix that must commute with the
    total spin, as every sector block of sum_{i<j} J_ij sigma_i . sigma_j
    does.  The spin blocks are streamed, 2S ascending, and only one is
    alive at a time.  For each, :func:`_solve_block` builds Q_S with
    :func:`basis.spin_block`, reduces it to the d x d matrix Q_S^T H Q_S
    one column panel at a time, drops Q_S while eigh runs, builds it
    again and overwrites it by the eigenvectors V_S = Q_S X_S.
    :func:`_check_block` then checks V_S in one pass, ``PANEL`` columns
    at a time: each panel is copied once and that copy feeds the eigenpair
    residuals, the block's Gram rows and the Casimir residuals.  So
    ``measure(two_s, V_S)`` gets exactly the eigenvectors all three
    checks read, before they are dropped: the caller takes every
    per-state statistic there, and may keep V_S, which diagonalize no
    longer touches.  At most one dim x d array is alive at a time; no
    dense copy of H, no dim x d product H Q_S and no dim x dim array is
    made.

    ``raising`` is sigma^+ into this sector, :func:`basis.promotion_map`
    of ``sm.basis``, built here when not given.  It serves the Casimir
    check: sigma^+ sigma^- is symmetric and acts on block S as the integer
    n_S of :func:`basis.ladder_integer`, and distinct blocks have integers
    at least 2 apart, so columns v, v' of two blocks with residuals
    |sigma^+ sigma^- v - n_S v| <= ``CASIMIR_TOL`` overlap by at most
    ``CASIMIR_TOL`` (1 + ``CASIMIR_TOL``).  With each block's own Gram
    this bounds every entry of V^T V - I as the whole Gram would.  The
    same pass records |sigma^- v|^2 in ``Spectrum.ladder_values``.

    Raises SpectrumError for a non-finite stored entry, an eigenpair
    residual above ``RESIDUAL_RTOL`` * ||H||_F (which is what a matrix
    without SU(2) symmetry, or an asymmetric one, produces), a block whose
    eigenvectors are not orthonormal (max |V_S^T V_S - I| above 1e-10), a
    Casimir residual above ``CASIMIR_TOL``, or an eigenvalue sum that
    disagrees with the trace, instead of returning a silently bad
    decomposition.  A block's three checks are reported in that order: a
    fault that several of them see is named as a residual first.  A block
    that fails is not measured.
    """
    H, b = sm.matrix, sm.basis
    if not np.isfinite(H.data).all():
        raise SpectrumError("sector matrix has non-finite entries")
    if raising is None:
        raising = basis.promotion_map(b)
    scale = max(1.0, float(np.linalg.norm(H.data)))  # ||H||_F: H is canonical, no duplicates
    evals, values, two_s = [], [], []
    for s2 in basis.block_spins(b.sites, b.magnons):
        w, V = _solve_block(H, b.sites, b.magnons, s2)
        residual, gram, casimir, value = _check_block(H, raising, basis.ladder_integer(b.sites, b.magnons, s2), w, V)
        if not residual <= RESIDUAL_RTOL * scale:
            raise SpectrumError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||H||_F at 2S={s2}")
        if not gram <= 1e-10:
            raise SpectrumError(f"eigenvectors not orthonormal at 2S={s2}, deviation {gram:.3e}")
        if not casimir <= CASIMIR_TOL:
            raise SpectrumError(f"Casimir residual {casimir:.3e} at 2S={s2} exceeds {CASIMIR_TOL:.1e}")
        if measure is not None:
            measure(s2, V)
        del V  # the next block is built without this one alive
        evals.append(w)
        values.append(value)
        two_s.append(np.full(w.size, s2))
    evals = np.concatenate(evals)
    tr = float(H.diagonal().sum())
    if not abs(evals.sum() - tr) <= 1e-9 * max(1.0, abs(tr)):
        raise SpectrumError("eigenvalue sum disagrees with trace")

    degtol = 1e-8 * scale
    order = np.argsort(evals, kind="stable")
    return Spectrum(
        matrix=sm,
        eigenvalues=evals,
        two_s=np.concatenate(two_s),
        ladder_values=np.concatenate(values),
        order=order,
        degtol=degtol,
        groups=group_degeneracies(evals[order], degtol),
    )


def _solve_block(H: sparse.csr_array, sites: int, magnons: int, two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvectors V = Q X of spin block 2S = ``two_s``, unchecked.

    Q is the block's C-ordered (dim, d) array, :func:`basis.spin_block` of
    sector (``sites``, ``magnons``).  The d x d matrix A = Q^T H Q is
    formed ``PANEL`` columns at a time, and only from each panel's
    diagonal down, A[lo:, panel] = Q[:, lo:]^T (H Q[:, panel]), since
    LAPACK reads the lower triangle alone.  (OpenBLAS may send a thin last
    panel to its small-matrix kernel, so A can differ from the full
    product in the last bits.)  No product wider than one panel is alive
    (scipy copies one strided panel of Q at a time).  Q is dropped before
    eigh, so eigh runs with no dim x d array alive, and built again, bit
    for bit the same, next to X; Q X overwrites it ``PANEL`` rows at a
    time.  :func:`_check_block` then checks the returned pairs.
    """
    Q = basis.spin_block(sites, magnons, two_s)
    dim, width = Q.shape
    A = np.empty((width, width))  # above the diagonal panels, A stays unset
    for lo in range(0, width, PANEL):
        cols = slice(lo, lo + PANEL)
        A[lo:, cols] = Q[:, lo:].T @ (H @ Q[:, cols])
    del Q  # each del lowers the peak that solve_bytes budgets
    try:
        w, X = np.linalg.eigh(A, UPLO="L")
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver did not converge at 2S={two_s}: {err}") from err
    del A
    V = basis.spin_block(sites, magnons, two_s)
    for lo in range(0, dim, PANEL):
        rows = slice(lo, lo + PANEL)
        V[rows] = V[rows] @ X
    return w, V


def _check_block(H: sparse.csr_array, raising: sparse.csr_array, n: int, w: np.ndarray,
                 V: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Worst eigenpair residual, Gram deviation and Casimir residual of ``V``, and each column's |sigma^- v|^2.

    One pass over ``V``, ``PANEL`` columns at a time; one contiguous copy
    of each panel feeds all three checks:

    * |H v - w v| of each column;
    * the Gram rows lo .. hi, panel^T V[:, :hi], formed only up to their
      own diagonal block: the Gram is symmetric, so the panels together
      cover one triangle and the diagonal, and max |V^T V - I| is taken
      over them;
    * sigma^- of each column, ``raising.T`` @ panel, whose squared norm is
      the ladder value, raised again by ``raising`` into the Casimir
      residual |sigma^+ sigma^- v - n v|.

    A NaN anywhere comes out as a NaN worst value.
    """
    width = V.shape[1]
    values = np.empty(width)
    residual = gram = casimir = np.float64(0.0)
    for lo in range(0, width, PANEL):
        hi = min(lo + PANEL, width)
        panel = V[:, lo:hi].copy()
        HV = H @ panel
        HV -= panel * w[lo:hi]
        residual = np.maximum(residual, np.linalg.norm(HV, axis=0).max())
        G = panel.T @ V[:, :hi]
        G[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        gram = np.maximum(gram, np.abs(G, out=G).max())
        del HV, G  # the dels leave the ladder step as the peak that solve_bytes budgets
        lowered = raising.T @ panel
        values[lo:hi] = np.einsum("ij,ij->j", lowered, lowered)
        raised = raising @ lowered
        raised -= n * panel
        casimir = np.maximum(casimir, np.linalg.norm(raised, axis=0).max())
        del lowered, raised
    return float(residual), float(gram), float(casimir), values


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
