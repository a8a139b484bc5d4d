from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from heisenglass import basis, cli, entanglement, ladder
from heisenglass.verify import wootters_concurrence


def _random_state(sites, magnons, seed):
    b = basis.build_basis(sites, magnons)
    rng = np.random.Generator(np.random.Philox(seed))
    return entanglement.DefiniteParticleState.normalized(b, rng.standard_normal(b.dim))


def uniform_two_magnon_form(sites: int) -> float:
    return (2.0 / comb(sites, 2)) * (sites - 2 - sqrt((sites**2 - 5 * sites + 6) / 2.0))


def test_state_norm_enforced():
    b = basis.build_basis(4, 2)
    with pytest.raises(ValueError):
        entanglement.DefiniteParticleState(b, np.full(b.dim, 0.5))
    with pytest.raises(ValueError):
        entanglement.DefiniteParticleState.normalized(b, np.zeros(b.dim))


def test_uniform_one_magnon_rdm_elements():
    L = 6
    state = entanglement.DefiniteParticleState.uniform(basis.build_basis(L, 1))
    rdm = entanglement.pair_rdm(state, 1, 4)
    assert rdm.v == 0.0
    assert rdm.z == pytest.approx(1.0 / L, abs=1e-15)
    assert rdm.y == pytest.approx((L - 2.0) / L, abs=1e-15)
    assert rdm.w == pytest.approx(1.0 / L, abs=1e-15)
    assert rdm.x == pytest.approx(1.0 / L, abs=1e-15)


def test_basis_state_is_unentangled():
    b = basis.build_basis(5, 2)
    coeff = np.zeros(b.dim)
    coeff[3] = 1.0
    state = entanglement.DefiniteParticleState(b, coeff)
    for i, j in oracles.site_pairs(5):
        rdm = entanglement.pair_rdm(state, i, j)
        assert rdm.z == 0.0
        assert entanglement.concurrence(rdm) == 0.0
    assert entanglement.average_concurrence(state) == 0.0


@pytest.mark.parametrize("magnons", [1, 2, 3])
def test_pair_rdm_matches_partial_trace(magnons):
    sites = 4 if magnons == 2 else 6
    state = _random_state(sites, magnons, 17 + magnons)
    psi_full = oracles.embed_full_space(state.basis, state.coefficients)
    for i, j in oracles.site_pairs(sites):
        direct = entanglement.pair_rdm(state, i, j).as_matrix()
        traced = oracles.pair_rdm_by_partial_trace(psi_full, sites, i, j)
        # fixed magnetization forces every coherence except (ud, du) to
        # vanish in the trace, so the five-element form is the whole story
        assert np.abs(direct - traced).max() <= 1e-12


def test_definite_magnetization_kills_coherences():
    """The full partial trace itself must produce the five-element form."""
    state = _random_state(6, 2, 23)
    psi_full = oracles.embed_full_space(state.basis, state.coefficients)
    rho = oracles.pair_rdm_by_partial_trace(psi_full, 6, 0, 3)
    off = rho - np.diag(np.diag(rho))
    off[1, 2] = off[2, 1] = 0.0
    assert np.abs(off).max() == 0.0


def test_concurrence_uniform_one_magnon():
    for L in (3, 8, 33):
        state = entanglement.DefiniteParticleState.uniform(basis.build_basis(L, 1))
        rdm = entanglement.pair_rdm(state, 0, 1)
        assert entanglement.concurrence(rdm) == pytest.approx(2.0 / L, abs=1e-14)


def test_concurrence_balanced_point_is_zero():
    rdm = entanglement.PairRDM(i=0, j=1, v=0.25, w=0.25, x=0.25, y=0.25, z=0.25)
    assert entanglement.concurrence(rdm) == 0.0


def test_concurrence_matches_wootters_oracle():
    rng = np.random.Generator(np.random.Philox(29))
    worst = 0.0
    for _ in range(100):
        magnons = int(rng.integers(1, 4))
        sites = int(rng.integers(magnons + 1, 9))
        state = _random_state(sites, magnons, int(rng.integers(0, 2**31)))
        i, j = sorted(rng.choice(sites, size=2, replace=False).tolist())
        rdm = entanglement.pair_rdm(state, int(i), int(j))
        worst = max(worst, abs(entanglement.concurrence(rdm) - wootters_concurrence(rdm.as_matrix())))
    assert worst <= 1e-10


def test_average_concurrence_uniform_closed_forms():
    for L in range(3, 65):
        u1 = entanglement.DefiniteParticleState.uniform(basis.build_basis(L, 1))
        assert entanglement.average_concurrence(u1) == pytest.approx(2.0 / L, abs=1e-12)
    for L in (4, 8, 16, 25, 64):
        u2 = entanglement.DefiniteParticleState.uniform(basis.build_basis(L, 2))
        assert entanglement.average_concurrence(u2) == pytest.approx(
            uniform_two_magnon_form(L), abs=1e-12
        )


def test_pair_rdm_rejects_equal_sites():
    state = _random_state(5, 2, 3)
    with pytest.raises(ValueError):
        entanglement.pair_rdm(state, 2, 2)


def test_pair_rdm_invariants_rejected_when_violated():
    with pytest.raises(ValueError):
        entanglement.PairRDM(i=0, j=1, v=0.5, w=0.5, x=0.5, y=0.5, z=0.0)
    with pytest.raises(ValueError):
        entanglement.PairRDM(i=0, j=1, v=0.25, w=0.25, x=0.25, y=0.25, z=0.9)


@given(
    st.integers(4, 9),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_pair_rdm_invariants_hold(sites, magnons, seed):
    state = _random_state(sites, magnons, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    i, j = sorted(rng.choice(sites, size=2, replace=False).tolist())
    rdm = entanglement.pair_rdm(state, int(i), int(j))
    assert min(rdm.v, rdm.w, rdm.x, rdm.y) >= 0.0
    assert rdm.v + rdm.w + rdm.x + rdm.y == pytest.approx(1.0, abs=1e-10)
    assert rdm.z**2 <= rdm.w * rdm.x + 1e-12
    c = entanglement.concurrence(rdm)
    assert 0.0 <= c <= 1.0
    rho = rdm.as_matrix()
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_batch_kernels_match_per_state_loop():
    b = basis.build_basis(7, 2)
    rng = np.random.Generator(np.random.Philox(31))
    cols = rng.standard_normal((b.dim, 5))
    cols /= np.linalg.norm(cols, axis=0)
    avg = entanglement.average_concurrence_columns(b, cols)
    pos = (entanglement.pair_concurrences(b, cols) > 0.0).mean(axis=0)
    for n in range(5):
        state = entanglement.DefiniteParticleState(b, cols[:, n])
        per_pair = entanglement.pair_concurrences(b, cols[:, n])
        assert avg[n] == pytest.approx(entanglement.average_concurrence(state), abs=1e-14)
        assert pos[n] == pytest.approx((per_pair > 0).mean(), abs=0.0)


@given(
    st.integers(2, 10).flatmap(lambda L: st.tuples(st.just(L), st.integers(1, L - 1))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_pair_concurrences_match_partial_trace(sector_size, uniform, seed):
    sites, magnons = sector_size
    b = basis.build_basis(sites, magnons)
    if uniform:
        state = entanglement.DefiniteParticleState.uniform(b)
    else:
        state = _random_state(sites, magnons, seed)
    kernel = entanglement.pair_concurrences(b, state.coefficients)
    psi_full = oracles.embed_full_space(b, state.coefficients)
    traced = []
    for i, j in oracles.site_pairs(sites):
        rho = oracles.pair_rdm_by_partial_trace(psi_full, sites, i, j)
        traced.append(max(2.0 * (abs(rho[1, 2]) - sqrt(rho[0, 0] * rho[3, 3])), 0.0))
    traced = np.array(traced)
    assert kernel.shape == traced.shape
    assert np.abs(kernel - traced).max() <= 1e-13
    assert np.array_equal(kernel > 0.0, traced > 0.0)


def test_pair_concurrences_across_limbs():
    # L=66 puts sites 64 and 65 beyond bit 63 of the integer patterns
    b = basis.build_basis(66, 2)
    rng = np.random.Generator(np.random.Philox(41))
    cols = rng.standard_normal((b.dim, 3))
    cols /= np.linalg.norm(cols, axis=0)
    kernel = entanglement.pair_concurrences(b, cols)
    for row, (i, j) in enumerate(oracles.site_pairs(66)):
        v, _, _, y, z = entanglement.pair_rdm_elements(b, cols, i, j)
        assert np.abs(kernel[row] - entanglement.concurrence_from_elements(v, y, z)).max() <= 1e-14


def test_pair_concurrences_independent_of_column_blocking():
    b = basis.build_basis(9, 3)
    n = 2 * entanglement._COLUMN_CHUNK + 7
    rng = np.random.Generator(np.random.Philox(43))
    cols = rng.standard_normal((b.dim, n))
    cols /= np.linalg.norm(cols, axis=0)
    full = entanglement.pair_concurrences(b, cols)
    assert full.shape == (36, n)
    lo, hi = entanglement._COLUMN_CHUNK - 5, entanglement._COLUMN_CHUNK + 20
    assert np.abs(entanglement.pair_concurrences(b, cols[:, lo:hi]) - full[:, lo:hi]).max() <= 1e-14
    for k in (0, lo, n - 1):
        single = entanglement.pair_concurrences(b, cols[:, k])
        assert single.shape == (36,)
        assert np.abs(single - full[:, k]).max() <= 1e-14


def test_participation_ratio_limits():
    b = basis.build_basis(6, 2)
    coeff = np.zeros(b.dim)
    coeff[0] = 1.0
    assert entanglement.participation_ratio(coeff) == 1.0
    assert entanglement.participation_ratio(np.full(b.dim, b.dim**-0.5)) == pytest.approx(
        b.dim, rel=1e-12
    )
    state = _random_state(6, 2, 5)
    pr = entanglement.participation_ratio(state.coefficients)
    assert 1.0 <= pr <= b.dim
    assert pr == 1.0 / entanglement.inverse_participation_ratio(state.coefficients)


def test_promoted_ipr_exact_twelfth_at_eight_sites():
    L = 8
    raising = ladder.promotion_map(basis.build_basis(L, 2))
    rng = np.random.Generator(np.random.Philox(37))
    for _ in range(20):
        a = rng.standard_normal(L)
        a -= a.mean()
        a /= np.linalg.norm(a)
        ipr = entanglement.inverse_participation_ratio(ladder.promote(a, raising))
        assert ipr == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_state_report_row_format():
    assert cli.REPORT_HEADER == "sample,index,eigenvalue,E_minus_SJ,avg_concurrence,PR,promoted,degenerate"
    values = (-1.5, 0.25, 0.125, 3.0, 1, 0)
    plain = [[0] * 4 + [v] for v in values]
    # numpy scalars and arrays must not leak a np.float64(...) repr
    scalars = [[np.float64(x) if isinstance(v, float) else np.int64(x) for x in c] for v, c in zip(values, plain)]
    arrays = [np.array(c) for c in plain]
    for columns in (plain, scalars, arrays):
        assert cli.state_rows(columns)[4] == "4,-1.5,0.25,0.125,3.0,1,0"
