"""Heisenberg Hamiltonians restricted to fixed-magnetization sectors.

H = sum_{i<j} J_ij sigma_i . sigma_j commutes with the total z
magnetization, so it is block diagonal over the bases of
:mod:`heisenglass.basis`; each block is stored as a sparse CSR matrix,
m(L-m)+1 entries per row at most.  Writing sigma_i . sigma_j = 2 S_ij - 1 with
S_ij the spin swap gives the matrix elements directly:

* diagonal:  sum_{i<j} J_ij s_i s_j with s = +-1,
* off-diagonal:  2 J_ij between the two states that a swap of an
  antiparallel pair (i, j) exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import SectorBasis
from .couplings import CouplingMatrix

FULL_SPACE_MAX_SITES = 12


@dataclass
class SectorMatrix:
    """Sparse symmetric sector block (CSR) together with its ingredients."""

    basis: SectorBasis
    couplings: CouplingMatrix
    matrix: sparse.csr_array

    @property
    def dim(self) -> int:
        return self.basis.dim


def assemble(cm: CouplingMatrix, basis: SectorBasis) -> SectorMatrix:
    """Build the sector block of the swap-form Hamiltonian as a CSR matrix.

    Every diagonal entry is stored.  Each coupled pair (J_ij != 0) adds
    2 J_ij between its (i up, j down) rows and their swap partners, the
    (i down, j up) rows, in both triangles: C(L-2, m-1) entries per
    triangle, with no rank lookups (see :meth:`SectorBasis.swap_rows`).
    Uncoupled pairs store nothing.
    """
    if cm.sites != basis.sites:
        raise ValueError(f"couplings for {cm.sites} sites, basis has {basis.sites}")
    dim = basis.dim
    spins = basis.spins()
    diagonal = 0.5 * np.einsum("ki,ij,kj->k", spins, cm.J, spins)

    first, second = np.nonzero(np.triu(cm.J, 1))
    ud, du = basis.swap_rows(first, second)
    hop = np.repeat(2.0 * cm.J[first, second], ud.shape[1])
    ud, du = ud.ravel(), du.ravel()
    index = np.arange(dim)
    rows = np.concatenate([index, ud, du])
    cols = np.concatenate([index, du, ud])
    H = sparse.csr_array((np.concatenate([diagonal, hop, hop]), (rows, cols)), shape=(dim, dim))
    return SectorMatrix(basis=basis, couplings=cm, matrix=H)


def _site_operator(op: np.ndarray, site: int, sites: int) -> np.ndarray:
    """Embed a single-spin operator at ``site`` (bit order: site 0 varies fastest)."""
    out = op
    if site > 0:
        out = np.kron(out, np.eye(1 << site))
    if site < sites - 1:
        out = np.kron(np.eye(1 << (sites - 1 - site)), out)
    return out


def full_space_oracle(cm: CouplingMatrix) -> np.ndarray:
    """The 2^L x 2^L Hamiltonian from explicit Pauli matrices.

    Deliberately ignores the swap shortcut: each J_ij term is the literal
    Kronecker sum sigma^x_i sigma^x_j + sigma^y_i sigma^y_j +
    sigma^z_i sigma^z_j.  Exponential in L, for cross-checks only.
    """
    L = cm.sites
    if L > FULL_SPACE_MAX_SITES:
        raise ValueError(f"full-space construction capped at {FULL_SPACE_MAX_SITES} sites")

    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
    sz = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)  # bit value 1 = up

    H = np.zeros((1 << L, 1 << L), dtype=np.complex128)
    for i in range(L):
        for j in range(i + 1, L):
            if cm.J[i, j] == 0.0:
                continue
            term = np.zeros_like(H)
            for pauli in (sx, sy, sz):
                term += _site_operator(pauli, i, L) @ _site_operator(pauli, j, L)
            H += cm.J[i, j] * term
    if np.abs(H.imag).max() != 0.0:
        raise AssertionError("Pauli construction produced a complex Hamiltonian")
    return H.real.copy()


def sector_of_full_space(H_full: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Slice the rows/columns of a full-space matrix belonging to one sector."""
    idx = np.asarray(basis.states, dtype=np.int64)
    return H_full[np.ix_(idx, idx)]


def all_up_residual(sm: SectorMatrix) -> float:
    """|| H u - S_J u || for the uniform state u, zero in exact arithmetic.

    Every row of the sector matrix sums to S_J: parallel pairs keep
    J_ij on the diagonal, antiparallel pairs contribute -J_ij there and
    2 J_ij off the diagonal.
    """
    u = np.full(sm.dim, 1.0 / np.sqrt(sm.dim))
    sj = sm.couplings.coupling_sum()
    return float(np.linalg.norm(sm.matrix @ u - sj * u))
