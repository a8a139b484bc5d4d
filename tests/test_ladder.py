import dataclasses
from math import comb, sqrt

import numpy as np
import pytest

from heisenglass import basis, couplings, entanglement, ladder, sector, spectrum


def _promotion(sites, magnons):
    return ladder.promotion_map(basis.build_basis(sites, magnons), basis.build_basis(sites, magnons + 1))


def _zero_sum_state(sites, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal(sites)
    a -= a.mean()
    a /= np.linalg.norm(a)
    return entanglement.DefiniteParticleState(basis.build_basis(sites, 1), a)


def _classified(model, sites, magnons, seed):
    cm = couplings.sample_couplings(model, sites, seed)
    pmap = _promotion(sites, magnons - 1)
    spec = spectrum.diagonalize(sector.assemble(cm, pmap.target))
    return spec, pmap, ladder.classify(spec, pmap)


def test_promote_vacuum_gives_all_one():
    pmap = _promotion(6, 0)
    vacuum = entanglement.DefiniteParticleState(basis.build_basis(6, 0), np.ones(1))
    promoted = ladder.promote(vacuum, pmap)
    assert np.abs(promoted.coefficients - 1.0 / sqrt(6)).max() <= 1e-15


def test_promote_zero_sum_coefficients():
    sites = 9
    state = _zero_sum_state(sites, 3)
    promoted = ladder.promote(state, _promotion(sites, 1))
    a = state.coefficients
    expected = np.array(
        [(a[i] + a[j]) / sqrt(sites - 2) for i in range(sites) for j in range(i + 1, sites)]
    )
    # basis patterns list (i, j) pairs in ascending-integer order: j outer, i inner
    b2 = promoted.basis
    direct = np.empty(b2.dim)
    for k, s in enumerate(b2.states):
        i, j = [t for t in range(sites) if (s >> t) & 1]
        direct[k] = (a[i] + a[j]) / sqrt(sites - 2)
    assert np.abs(promoted.coefficients - direct).max() <= 1e-14
    assert np.allclose(np.sort(promoted.coefficients), np.sort(expected), atol=1e-14)


def test_promote_basis_state():
    sites = 8
    b1 = basis.build_basis(sites, 1)
    coeff = np.zeros(sites)
    coeff[0] = 1.0
    promoted = ladder.promote(entanglement.DefiniteParticleState(b1, coeff), _promotion(sites, 1))
    nonzero = promoted.coefficients[promoted.coefficients != 0]
    assert nonzero.size == sites - 1
    assert np.abs(nonzero - 1.0 / sqrt(sites - 1)).max() <= 1e-15
    ipr = entanglement.inverse_participation_ratio(promoted.coefficients)
    assert ipr == pytest.approx(1.0 / (sites - 1), abs=1e-12)


def test_promoted_eigenstates_stay_eigenstates():
    sites = 8
    cm = couplings.sample_couplings(couplings.InfiniteRange(), sites, 5)
    pmap = _promotion(sites, 1)
    H1 = sector.assemble(cm, pmap.source).matrix.toarray()
    H2 = sector.assemble(cm, pmap.target).matrix.toarray()
    s1 = spectrum.diagonalize(sector.assemble(cm, pmap.source))
    for k in range(s1.dim):
        phi = pmap.apply(s1.vectors[:, k])
        phi /= np.linalg.norm(phi)
        assert np.linalg.norm(H2 @ phi - s1.eigenvalues[k] * phi) <= 1e-9


def test_promotion_matrix_against_brute_force():
    # every sector up to L=10 (m-1 = 0, 2m > L, m = L) and an L=70 sector, wider than 64 bits
    sectors = [(sites, m) for sites in range(1, 11) for m in range(1, sites + 1)] + [(70, 2)]
    for sites, m in sectors:
        pmap = _promotion(sites, m - 1)
        P = pmap.apply(np.eye(pmap.source.dim))
        expected = np.zeros_like(P)
        order = []  # parents of each target row, lowest cleared site first
        for t, pattern in enumerate(pmap.target.states):
            for b in range(sites):
                if (pattern >> b) & 1:
                    parent = basis.rank(sites, m - 1, pattern & ~(1 << b))
                    expected[t, parent] += 1.0
                    order.append(parent)
        assert np.array_equal(P, expected), (sites, m)
        assert np.array_equal(pmap.apply_adjoint(np.eye(pmap.target.dim)), expected.T), (sites, m)
        assert np.array_equal(pmap.raising.indices, order), (sites, m)


def test_lower_promote_vacuum_roundtrip():
    pmap = _promotion(7, 0)
    vacuum = entanglement.DefiniteParticleState(basis.build_basis(7, 0), np.ones(1))
    promoted = ladder.promote(vacuum, pmap)
    back = pmap.apply_adjoint(promoted.coefficients)
    assert back.shape == (1,)
    assert back[0] == pytest.approx(sqrt(7), abs=1e-12)


def test_adjoint_identity():
    pmap = _promotion(10, 2)
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(5):
        psi = rng.standard_normal(pmap.source.dim)
        phi = rng.standard_normal(pmap.target.dim)
        lhs = float(phi @ pmap.apply(psi))
        rhs = float(pmap.apply_adjoint(phi) @ psi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_commutes_with_hamiltonian_on_random_vectors():
    sites = 12
    cm = couplings.sample_couplings(couplings.PowerLaw(0.5), sites, 2)
    rng = np.random.Generator(np.random.Philox(13))
    for magnons in (1, 2):
        pmap = _promotion(sites, magnons)
        H_lo = sector.assemble(cm, pmap.source).matrix.toarray()
        H_hi = sector.assemble(cm, pmap.target).matrix.toarray()
        psi = rng.standard_normal(pmap.source.dim)
        assert np.linalg.norm(H_hi @ pmap.apply(psi) - pmap.apply(H_lo @ psi)) <= 1e-9


def test_promote_annihilated_state_raises():
    b3 = basis.build_basis(4, 3)
    pmap = ladder.promotion_map(b3, basis.build_basis(4, 4))
    coeff = np.zeros(4)
    coeff[0], coeff[1] = 1.0 / sqrt(2), -1.0 / sqrt(2)
    with pytest.raises(ladder.ZeroPromotionError):
        ladder.promote(entanglement.DefiniteParticleState(b3, coeff), pmap)


def test_promote_rejects_wrong_sector():
    pmap = _promotion(6, 1)
    stray = entanglement.DefiniteParticleState.uniform(basis.build_basis(6, 2))
    with pytest.raises(ValueError):
        ladder.promote(stray, pmap)


def test_classification_counts_large_sector():
    _, _, cls = _classified(couplings.InfiniteRange(), 25, 2, 0)
    assert cls.n_promoted == 25
    assert cls.n_new == 275
    assert ladder.expected_counts(25, 2) == (25, 275)


def test_new_states_are_annihilated_by_lowering():
    spec, pmap, cls = _classified(couplings.InfiniteRange(), 10, 2, 7)
    lowered = pmap.apply_adjoint(spec.vectors)
    norms = np.linalg.norm(lowered, axis=0)
    assert norms[cls.labels == ladder.NEW].max() <= 1e-8
    assert norms[cls.labels == ladder.PROMOTED].min() >= 1.0


def test_ladder_eigenvalues_are_integers():
    _, _, cls = _classified(couplings.PowerLaw(1.0), 10, 2, 9)
    assert np.abs(cls.ladder_eigenvalues - np.round(cls.ladder_eigenvalues)).max() <= 1e-8
    values = set(np.round(cls.ladder_eigenvalues[cls.labels == ladder.PROMOTED]).astype(int))
    # generic promoted states sit at L-2; the all-one state at 2(L-1)
    assert values == {8, 18}


def test_ladder_values_sit_on_block_integers():
    # L=7, m=2: M=-3/2, blocks 2S=3,5,7 carry S(S+1)-M^2+M = 0, 5, 12
    spec, _, cls = _classified(couplings.InfiniteRange(), 7, 2, 4)
    assert np.array_equal(cls.ladder_integers, np.select([spec.two_s == 3, spec.two_s == 5], [0, 5], 12))
    assert cls.integer_distance <= 1e-12
    assert np.array_equal(cls.labels, np.where(spec.two_s > 3, ladder.PROMOTED, ladder.NEW))


def _two_block_columns(spec):
    i = int(np.flatnonzero(spec.two_s == 3)[0])
    j = int(np.flatnonzero(spec.two_s == 5)[0])
    return i, j


def test_classify_rejects_swapped_block_labels():
    spec, pmap, _ = _classified(couplings.InfiniteRange(), 7, 2, 4)
    i, j = _two_block_columns(spec)
    two_s = spec.two_s.copy()
    two_s[[i, j]] = two_s[[j, i]]
    with pytest.raises(spectrum.SpectrumError, match="integer of its spin block"):
        ladder.classify(dataclasses.replace(spec, two_s=two_s), pmap)


def test_classify_rejects_vector_mixing_two_spins():
    spec, pmap, _ = _classified(couplings.InfiniteRange(), 7, 2, 4)
    i, j = _two_block_columns(spec)
    vectors = spec.vectors.copy()
    a, b = spec.vectors[:, i], spec.vectors[:, j]
    vectors[:, i], vectors[:, j] = (a + b) / sqrt(2), (a - b) / sqrt(2)  # still orthonormal
    with pytest.raises(spectrum.SpectrumError, match="integer of its spin block"):
        ladder.classify(dataclasses.replace(spec, vectors=vectors), pmap)


def test_all_one_state_classified_promoted():
    sites = 10
    cm = couplings.sample_couplings(couplings.NearestNeighbour(), sites, 3)
    pmap = _promotion(sites, 1)
    spec = spectrum.diagonalize(sector.assemble(cm, pmap.target))
    cls = ladder.classify(spec, pmap)
    k = int(np.argmin(np.abs(spec.eigenvalues - cm.coupling_sum())))
    assert cls.labels[k] == ladder.PROMOTED
    # direct double promotion gives the same sigma+ sigma- eigenvalue
    uniform = entanglement.DefiniteParticleState.uniform(pmap.target)
    direct = float(np.sum(pmap.apply_adjoint(uniform.coefficients) ** 2))
    assert cls.ladder_eigenvalues[k] == pytest.approx(direct, abs=1e-8)
    assert direct == pytest.approx(2.0 * (sites - 1), abs=1e-10)


def test_synthetic_orthogonal_state_is_new():
    pmap = _promotion(9, 1)
    P = pmap.apply(np.eye(pmap.source.dim))
    Q, _ = np.linalg.qr(P)
    rng = np.random.Generator(np.random.Philox(21))
    w = rng.standard_normal(pmap.target.dim)
    w -= Q @ (Q.T @ w)
    w /= np.linalg.norm(w)
    assert np.linalg.norm(pmap.apply_adjoint(w)) <= 1e-10


def test_labels_invariant_under_coupling_rescale():
    cm = couplings.sample_couplings(couplings.InfiniteRange(), 10, 15)
    pmap = _promotion(10, 1)
    cls_a = ladder.classify(spectrum.diagonalize(sector.assemble(cm, pmap.target)), pmap)
    scaled = couplings.CouplingMatrix(cm.model, cm.sites, 3.7 * cm.J)
    cls_b = ladder.classify(spectrum.diagonalize(sector.assemble(scaled, pmap.target)), pmap)
    assert np.array_equal(cls_a.labels, cls_b.labels)


def test_promoted_cloud_sits_above_new_median():
    for seed in (0, 1, 2):
        spec, _, cls = _classified(couplings.InfiniteRange(), 25, 2, seed)
        cbar = entanglement.average_concurrence_columns(spec.matrix.basis, spec.vectors)
        promoted = cbar[cls.labels == ladder.PROMOTED]
        new = cbar[cls.labels == ladder.NEW]
        assert promoted.min() > np.median(new)


def test_localized_bound_values():
    b3 = ladder.localized_promotion_bound(3)
    assert b3.average_concurrence == pytest.approx(1.0 / 3.0, abs=1e-15)
    for L in (5, 10, 25):
        b = ladder.localized_promotion_bound(L)
        assert b.probability == pytest.approx(comb(L - 1, 2) / comb(L, 2), abs=1e-15)
        assert b.pair_concurrence == pytest.approx(2.0 / (L - 1), abs=1e-15)
        assert b.average_concurrence == pytest.approx(
            b.probability * b.pair_concurrence, abs=1e-15
        )
    with pytest.raises(ValueError):
        ladder.localized_promotion_bound(2)


def test_localized_bound_matches_direct_promotion():
    sites = 10
    b1 = basis.build_basis(sites, 1)
    coeff = np.zeros(sites)
    coeff[0] = 1.0
    promoted = ladder.promote(entanglement.DefiniteParticleState(b1, coeff), _promotion(sites, 1))
    conc = entanglement.pair_concurrences(promoted.basis, promoted.coefficients)
    bound = ladder.localized_promotion_bound(sites)
    assert conc.mean() == pytest.approx(bound.average_concurrence, abs=1e-12)
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
