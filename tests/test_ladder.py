import dataclasses
from math import comb, inf, sqrt

import blocks
import numpy as np
import pytest

from heisenglass import basis, couplings, entanglement, ladder, sector, spectrum


def _raising(sites, magnons):
    """The (sites, magnons) sector and sigma^+ into it from magnons - 1."""
    target = basis.build_basis(sites, magnons)
    return target, ladder.promotion_map(target)


def _zero_sum_seed(sites, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal(sites)
    a -= a.mean()
    return a / np.linalg.norm(a)


def _classified(sigma, sites, magnons, seed):
    cm = couplings.sample_couplings(sites, sigma, seed)
    target, raising = _raising(sites, magnons)
    spec = spectrum.diagonalize(sector.assemble(cm, target))
    return spec, raising, ladder.classify(spec, raising)


def test_promote_vacuum_gives_all_one():
    _, raising = _raising(6, 1)
    promoted = ladder.promote(np.ones(1), raising)
    assert np.abs(promoted - 1.0 / sqrt(6)).max() <= 1e-15


def test_promote_zero_sum_coefficients():
    sites = 9
    a = _zero_sum_seed(sites, 3)
    b2, raising = _raising(sites, 2)
    promoted = ladder.promote(a, raising)
    expected = np.array(
        [(a[i] + a[j]) / sqrt(sites - 2) for i in range(sites) for j in range(i + 1, sites)]
    )
    # basis patterns list (i, j) pairs in ascending-integer order: j outer, i inner
    direct = np.empty(b2.dim)
    for k, s in enumerate(b2.states):
        i, j = [t for t in range(sites) if (s >> t) & 1]
        direct[k] = (a[i] + a[j]) / sqrt(sites - 2)
    assert np.abs(promoted - direct).max() <= 1e-14
    assert np.allclose(np.sort(promoted), np.sort(expected), atol=1e-14)


def test_promote_basis_state():
    sites = 8
    coeff = np.zeros(sites)
    coeff[0] = 1.0
    promoted = ladder.promote(coeff, _raising(sites, 2)[1])
    nonzero = promoted[promoted != 0]
    assert nonzero.size == sites - 1
    assert np.abs(nonzero - 1.0 / sqrt(sites - 1)).max() <= 1e-15
    ipr = entanglement.inverse_participation_ratio(promoted)
    assert ipr == pytest.approx(1.0 / (sites - 1), abs=1e-12)


def test_promoted_eigenstates_stay_eigenstates():
    sites = 8
    cm = couplings.sample_couplings(sites, 0.0, 5)
    b2, raising = _raising(sites, 2)
    H2 = sector.assemble(cm, b2).matrix.toarray()
    s1, vectors = blocks.eigenvectors(sector.assemble(cm, basis.build_basis(sites, 1)))
    for k in range(s1.dim):
        phi = raising @ vectors[:, k]
        phi /= np.linalg.norm(phi)
        assert np.linalg.norm(H2 @ phi - s1.eigenvalues[k] * phi) <= 1e-9


def test_promotion_matrix_against_brute_force():
    # every sector up to L=10 (m-1 = 0, 2m > L, m = L) and an L=70 sector, wider than 64 bits
    sectors = [(sites, m) for sites in range(1, 11) for m in range(1, sites + 1)] + [(70, 2)]
    for sites, m in sectors:
        target, raising = _raising(sites, m)
        P = raising.toarray()
        expected = np.zeros((comb(sites, m), comb(sites, m - 1)))
        order = []  # parents of each target row, lowest cleared site first
        for t, pattern in enumerate(target.states):
            for b in range(sites):
                if (pattern >> b) & 1:
                    parent = basis.rank(sites, m - 1, pattern & ~(1 << b))
                    expected[t, parent] += 1.0
                    order.append(parent)
        assert np.array_equal(P, expected), (sites, m)
        assert np.array_equal(raising.T @ np.eye(target.dim), expected.T), (sites, m)
        assert np.array_equal(raising.indices, order), (sites, m)


def test_lower_promote_vacuum_roundtrip():
    _, raising = _raising(7, 1)
    back = raising.T @ ladder.promote(np.ones(1), raising)
    assert back.shape == (1,)
    assert back[0] == pytest.approx(sqrt(7), abs=1e-12)


def test_adjoint_identity():
    _, raising = _raising(10, 3)
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(5):
        psi = rng.standard_normal(comb(10, 2))
        phi = rng.standard_normal(comb(10, 3))
        lhs = float(phi @ (raising @ psi))
        rhs = float((raising.T @ phi) @ psi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_commutes_with_hamiltonian_on_random_vectors():
    sites = 12
    cm = couplings.sample_couplings(sites, 0.5, 2)
    rng = np.random.Generator(np.random.Philox(13))
    for magnons in (1, 2):
        b_hi, raising = _raising(sites, magnons + 1)
        b_lo = basis.build_basis(sites, magnons)
        H_lo = sector.assemble(cm, b_lo).matrix.toarray()
        H_hi = sector.assemble(cm, b_hi).matrix.toarray()
        psi = rng.standard_normal(b_lo.dim)
        assert np.linalg.norm(H_hi @ (raising @ psi) - raising @ (H_lo @ psi)) <= 1e-9


def test_promote_annihilated_state_raises():
    _, raising = _raising(4, 4)
    coeff = np.zeros(4)
    coeff[0], coeff[1] = 1.0 / sqrt(2), -1.0 / sqrt(2)
    with pytest.raises(ladder.ZeroPromotionError):
        ladder.promote(coeff, raising)


def test_promote_columns_one_at_a_time_and_rejects_an_annihilated_column():
    sites = 9
    _, raising = _raising(sites, 2)
    A = np.column_stack([_zero_sum_seed(sites, seed) for seed in range(5)])
    together = ladder.promote(A, raising)
    for k in range(A.shape[1]):
        assert np.abs(together[:, k] - ladder.promote(A[:, k], raising)).max() <= 1e-15
        assert np.linalg.norm(together[:, k]) == pytest.approx(1.0, abs=1e-15)
    # into the full sector (4, 4) sigma^+ sums the coefficients: a zero sum is annihilated
    _, full = _raising(4, 4)
    B = np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, 0.5], [0.0, 0.5]])
    assert ladder.promote(B[:, 1:], full)[0, 0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ladder.ZeroPromotionError):
        ladder.promote(B, full)


def test_promote_rejects_wrong_sector():
    b2, raising = _raising(6, 2)
    stray = np.full(b2.dim, b2.dim**-0.5)
    with pytest.raises(ValueError):
        ladder.promote(stray, raising)


def test_classification_counts_large_sector():
    _, _, cls = _classified(0.0, 25, 2, 0)
    assert cls.n_promoted == 25
    assert cls.n_new == 275
    assert ladder.expected_counts(25, 2) == (25, 275)


def test_new_states_are_annihilated_by_lowering():
    cm = couplings.sample_couplings(10, 0.0, 7)
    target, raising = _raising(10, 2)
    spec, vectors = blocks.eigenvectors(sector.assemble(cm, target), raising)
    cls = ladder.classify(spec, raising)
    lowered = raising.T @ vectors
    norms = np.linalg.norm(lowered, axis=0)
    assert norms[cls.labels == ladder.NEW].max() <= 1e-8
    assert norms[cls.labels == ladder.PROMOTED].min() >= 1.0


def test_ladder_eigenvalues_are_integers():
    _, _, cls = _classified(1.0, 10, 2, 9)
    assert np.abs(cls.ladder_eigenvalues - np.round(cls.ladder_eigenvalues)).max() <= 1e-8
    values = set(np.round(cls.ladder_eigenvalues[cls.labels == ladder.PROMOTED]).astype(int))
    # generic promoted states sit at L-2; the all-one state at 2(L-1)
    assert values == {8, 18}


def test_ladder_values_sit_on_block_integers():
    # L=7, m=2: M=-3/2, blocks 2S=3,5,7 carry S(S+1)-M^2+M = 0, 5, 12
    spec, _, cls = _classified(0.0, 7, 2, 4)
    assert np.array_equal(cls.ladder_integers, np.select([spec.two_s == 3, spec.two_s == 5], [0, 5], 12))
    assert cls.integer_distance <= 1e-12
    assert np.array_equal(cls.labels, np.where(spec.two_s > 3, ladder.PROMOTED, ladder.NEW))


def _two_block_columns(spec):
    i = int(np.flatnonzero(spec.two_s == 3)[0])
    j = int(np.flatnonzero(spec.two_s == 5)[0])
    return i, j


def test_classify_rejects_swapped_block_labels():
    spec, raising, _ = _classified(0.0, 7, 2, 4)
    i, j = _two_block_columns(spec)
    two_s = spec.two_s.copy()
    two_s[[i, j]] = two_s[[j, i]]
    with pytest.raises(spectrum.SpectrumError, match="integer of its spin block"):
        ladder.classify(dataclasses.replace(spec, two_s=two_s), raising)


def test_classify_rejects_vector_mixing_two_spins():
    # (a +- b) / sqrt(2) for a of block 3 and b of block 5 is still orthonormal, and
    # |sigma^- v|^2 of either is the mean of the two blocks' integers, 0 and 5
    spec, raising, _ = _classified(0.0, 7, 2, 4)
    i, j = _two_block_columns(spec)
    values = spec.ladder_values.copy()
    values[[i, j]] = values[[i, j]].mean()
    with pytest.raises(spectrum.SpectrumError, match="integer of its spin block"):
        ladder.classify(dataclasses.replace(spec, ladder_values=values), raising)


def test_classify_rejects_ladder_values_off_the_trace():
    # every value on its block's integer, but one block counted twice: the values
    # no longer sum to ||raising||_F^2 = m C(L, m), the trace of sigma^+ sigma^-
    spec, raising, _ = _classified(0.0, 7, 2, 4)
    assert float(spec.ladder_values.sum()) == pytest.approx(2 * comb(7, 2), abs=1e-9)
    keep = spec.two_s != 3
    twice = dataclasses.replace(spec, two_s=np.append(spec.two_s, spec.two_s[keep]),
                                ladder_values=np.append(spec.ladder_values, spec.ladder_values[keep]))
    with pytest.raises(spectrum.SpectrumError, match="not the trace"):
        ladder.classify(twice, raising)


def test_all_one_state_classified_promoted():
    sites = 10
    cm = couplings.sample_couplings(sites, inf, 3)
    b2, raising = _raising(sites, 2)
    spec = spectrum.diagonalize(sector.assemble(cm, b2))
    cls = ladder.classify(spec, raising)
    k = int(np.argmin(np.abs(spec.eigenvalues - cm.coupling_sum())))
    assert cls.labels[k] == ladder.PROMOTED
    # direct double promotion gives the same sigma+ sigma- eigenvalue
    uniform = np.full(b2.dim, b2.dim**-0.5)
    direct = float(np.sum((raising.T @ uniform) ** 2))
    assert cls.ladder_eigenvalues[k] == pytest.approx(direct, abs=1e-8)
    assert direct == pytest.approx(2.0 * (sites - 1), abs=1e-10)


def test_synthetic_orthogonal_state_is_new():
    b2, raising = _raising(9, 2)
    Q, _ = np.linalg.qr(raising.toarray())
    rng = np.random.Generator(np.random.Philox(21))
    w = rng.standard_normal(b2.dim)
    w -= Q @ (Q.T @ w)
    w /= np.linalg.norm(w)
    assert np.linalg.norm(raising.T @ w) <= 1e-10


def test_labels_invariant_under_coupling_rescale():
    cm = couplings.sample_couplings(10, 0.0, 15)
    b2, raising = _raising(10, 2)
    cls_a = ladder.classify(spectrum.diagonalize(sector.assemble(cm, b2)), raising)
    scaled = couplings.CouplingMatrix(cm.sites, 3.7 * cm.J)
    cls_b = ladder.classify(spectrum.diagonalize(sector.assemble(scaled, b2)), raising)
    assert np.array_equal(cls_a.labels, cls_b.labels)


def test_promoted_cloud_sits_above_new_median():
    target, raising = _raising(25, 2)
    for seed in (0, 1, 2):
        cm = couplings.sample_couplings(25, 0.0, seed)
        spec, vectors = blocks.eigenvectors(sector.assemble(cm, target), raising)
        cls = ladder.classify(spec, raising)
        cbar = entanglement.pair_concurrences(target, vectors).mean(axis=0)
        promoted = cbar[cls.labels == ladder.PROMOTED]
        new = cbar[cls.labels == ladder.NEW]
        assert promoted.min() > np.median(new)


def test_localized_bound_values():
    b3 = ladder.localized_promotion_bound(3)
    assert b3.mean_concurrence == pytest.approx(1.0 / 3.0, abs=1e-15)
    for L in (5, 10, 25):
        b = ladder.localized_promotion_bound(L)
        assert b.probability == pytest.approx(comb(L - 1, 2) / comb(L, 2), abs=1e-15)
        assert b.pair_concurrence == pytest.approx(2.0 / (L - 1), abs=1e-15)
        assert b.mean_concurrence == pytest.approx(
            b.probability * b.pair_concurrence, abs=1e-15
        )
    with pytest.raises(ValueError):
        ladder.localized_promotion_bound(2)


def test_localized_bound_matches_direct_promotion():
    sites = 10
    b2, raising = _raising(sites, 2)
    coeff = np.zeros(sites)
    coeff[0] = 1.0
    conc = entanglement.pair_concurrences(b2, ladder.promote(coeff, raising))
    bound = ladder.localized_promotion_bound(sites)
    assert conc.mean() == pytest.approx(bound.mean_concurrence, abs=1e-12)
    assert (conc > 0).mean() == pytest.approx(bound.probability, abs=1e-15)
    assert conc.max() == pytest.approx(bound.pair_concurrence, abs=1e-15)


def test_expected_counts_formula():
    assert ladder.expected_counts(12, 1) == (1, 11)
    assert ladder.expected_counts(12, 3) == (comb(12, 2), comb(12, 3) - comb(12, 2))


def test_expected_counts_above_half_filling():
    # 2m > L: sigma^+ maps the 20-dim m=3 sector onto the 15-dim m=4 sector
    assert ladder.expected_counts(6, 4) == (15, 0)
    assert ladder.expected_counts(6, 6) == (1, 0)
    assert ladder.expected_counts(6, 0) == (0, 1)
