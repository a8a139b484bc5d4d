from math import comb, inf

import numpy as np
import pytest
from scipy import sparse

import oracles
from heisenglass import basis, couplings, sector


def _matrix(sigma, sites, magnons, seed):
    cm = couplings.sample_couplings(sites, sigma, seed)
    return cm, sector.assemble(cm, basis.build_basis(sites, magnons))


def _coupling_with(J):
    sites = J.shape[0]
    return couplings.CouplingMatrix(sites=sites, J=J)


def test_two_spin_block():
    c = 0.7
    J = np.array([[0.0, c], [c, 0.0]])
    sm = sector.assemble(_coupling_with(J), basis.build_basis(2, 1))
    assert np.array_equal(sm.matrix.toarray(), np.array([[-c, 2 * c], [2 * c, -c]]))
    assert np.allclose(np.sort(np.linalg.eigvalsh(sm.matrix.toarray())), [-3 * c, c])


def test_full_oracle_singlet_triplet():
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    full = sector.full_space_oracle(_coupling_with(J))
    assert np.allclose(np.sort(np.linalg.eigvalsh(full)), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sites", [4, 6, 8])
def test_sector_equals_full_space_projection(sites, seed):
    cm = couplings.sample_couplings(sites, 0.0, seed)
    full = sector.full_space_oracle(cm)
    for magnons in range(sites + 1):
        b = basis.build_basis(sites, magnons)
        block = sector.sector_of_full_space(full, b)
        assert np.abs(sector.assemble(cm, b).matrix.toarray() - block).max() <= 1e-12


def test_full_oracle_block_diagonal():
    cm = couplings.sample_couplings(6, 1.0, 5)
    full = sector.full_space_oracle(cm)
    pops = np.array([bin(n).count("1") for n in range(64)])
    off_block = full[pops[:, None] != pops[None, :]]
    assert np.abs(off_block).max() == 0.0


def test_full_oracle_trace_splits_over_sectors():
    cm = couplings.sample_couplings(7, inf, 9)
    full = sector.full_space_oracle(cm)
    by_sector = sum(
        np.trace(sector.assemble(cm, basis.build_basis(7, m)).matrix.toarray()) for m in range(8)
    )
    assert np.trace(full) == pytest.approx(by_sector, abs=1e-10)


def test_full_oracle_rejects_large_system():
    cm = couplings.sample_couplings(13, 0.0, 0)
    with pytest.raises(ValueError):
        sector.full_space_oracle(cm)


def test_assemble_rejects_mismatched_sites():
    cm = couplings.sample_couplings(6, 0.0, 0)
    with pytest.raises(ValueError):
        sector.assemble(cm, basis.build_basis(8, 2))


def test_matrix_element_rule():
    """Diagonal sum J s s, off-diagonal 2 J on swap partners, zero elsewhere."""
    sites, magnons = 5, 2
    cm = couplings.sample_couplings(sites, 0.0, 3)
    b = basis.build_basis(sites, magnons)
    H = sector.assemble(cm, b).matrix.toarray()

    expected = np.zeros_like(H)
    for k, s in enumerate(b.states):
        spins = [1.0 if (s >> i) & 1 else -1.0 for i in range(sites)]
        expected[k, k] = sum(
            cm.J[i, j] * spins[i] * spins[j] for i in range(sites) for j in range(i + 1, sites)
        )
    for i in range(sites):
        for j in range(i + 1, sites):
            for k, l in oracles.brute_pair_partners(b.states, i, j):
                expected[k, l] = expected[l, k] = 2.0 * cm.J[i, j]
    assert np.abs(H - expected).max() <= 1e-13


def test_all_one_eigenstate_all_models():
    for sigma in (0.0, inf, 2.0):
        for magnons in (1, 2, 3):
            cm, sm = _matrix(sigma, 10, magnons, 7)
            assert sector.all_up_residual(sm) <= 1e-12 * max(1.0, np.abs(sm.matrix.toarray()).max())


def test_trace_identity():
    cm, sm = _matrix(0.0, 9, 3, 1)
    b = sm.basis
    spins = b.spins()
    direct = 0.5 * np.einsum("ki,ij,kj->", spins, cm.J, spins)
    assert np.trace(sm.matrix.toarray()) == pytest.approx(direct, rel=1e-12)


def test_sector_spectrum_containment():
    cm = couplings.sample_couplings(8, 0.0, 21)
    spectra = [
        np.linalg.eigvalsh(sector.assemble(cm, basis.build_basis(8, m)).matrix.toarray()) for m in range(5)
    ]
    for m in range(4):
        inner, outer = spectra[m], list(spectra[m + 1])
        for lam in inner:
            match = min(range(len(outer)), key=lambda t: abs(outer[t] - lam))
            assert abs(outer[match] - lam) <= 1e-9
            outer.pop(match)


def test_diagonal_dominance_statistics():
    """One-magnon infinite-range: Var(diag) tracks C(L,2) ~ L^2/2.

    Off-diagonal elements are 2 J_ij, so their variance is 4 and the
    variance ratio is C(L,2)/4 = L(L-1)/8.
    """
    sites = 32
    diag, off = [], []
    for seed in range(200):
        cm, sm = _matrix(0.0, sites, 1, seed)
        diag.append(sm.matrix.diagonal())
        off.append(sparse.triu(sm.matrix, k=1).data)
    var_diag = np.concatenate(diag).var()
    var_off = np.concatenate(off).var()

    assert abs(var_diag - sites**2 / 2) / (sites**2 / 2) < 0.10
    assert abs(var_diag - comb(sites, 2)) / comb(sites, 2) < 0.10
    assert abs(var_off - 4.0) / 4.0 < 0.10
    ratio = var_diag / var_off
    expected_ratio = comb(sites, 2) / 4.0
    assert abs(ratio - expected_ratio) / expected_ratio < 0.10


# model0 is infinite range, model1 the nearest-neighbour ring
@pytest.mark.parametrize("sigma", [0.0, inf], ids=["model0", "model1"])
@pytest.mark.parametrize("sites,magnons", [(10, 1), (12, 5), (16, 3), (70, 2)])
def test_sparse_block_stores_only_coupled_swaps(sigma, sites, magnons):
    cm, sm = _matrix(sigma, sites, magnons, 4)
    H = sm.matrix
    assert isinstance(H, sparse.csr_array) and H.has_canonical_format
    # every diagonal entry, and each coupled pair's C(L-2, m-1) swaps in both triangles
    pairs = int(np.count_nonzero(np.triu(cm.J, 1)))
    assert pairs == (comb(sites, 2) if sigma == 0.0 else sites)
    assert H.nnz == sm.dim + 2 * pairs * comb(sites - 2, magnons - 1)
    off = sparse.triu(H, k=1).data
    assert off.size == pairs * comb(sites - 2, magnons - 1)
    assert np.all(off != 0.0)  # no explicit zeros from uncoupled pairs
    assert (H != H.T).nnz == 0
