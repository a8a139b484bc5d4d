from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from heisenglass import basis, cli, entanglement, ladder
from heisenglass.verify import embed_full_space, kernel_wootters_deviation, two_site_rdm


def _random_state(sites, magnons, seed):
    """A sector basis and a unit-norm Gaussian coefficient vector over it."""
    b = basis.build_basis(sites, magnons)
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal(b.dim)
    return b, a / np.linalg.norm(a)


def _uniform(b):
    """The equal-amplitude state, an eigenstate of every sector matrix."""
    return np.full(b.dim, b.dim**-0.5)


def uniform_two_magnon_form(sites: int) -> float:
    return (2.0 / comb(sites, 2)) * (sites - 2 - sqrt((sites**2 - 5 * sites + 6) / 2.0))


def test_uniform_one_magnon_rdm_elements():
    L = 6
    b = basis.build_basis(L, 1)
    rho = two_site_rdm(embed_full_space(b, _uniform(b)), L, 1, 4)
    assert rho[0, 0] == 0.0
    assert rho[1, 2] == pytest.approx(1.0 / L, abs=1e-15)
    assert rho[3, 3] == pytest.approx((L - 2.0) / L, abs=1e-15)
    assert rho[1, 1] == pytest.approx(1.0 / L, abs=1e-15)
    assert rho[2, 2] == pytest.approx(1.0 / L, abs=1e-15)


def test_basis_state_is_unentangled():
    b = basis.build_basis(5, 2)
    coeff = np.zeros(b.dim)
    coeff[3] = 1.0
    conc = entanglement.pair_concurrences(b, coeff)
    assert conc.shape == (10,)
    assert np.all(conc == 0.0)


@pytest.mark.parametrize("magnons", [1, 2, 3])
def test_pair_rdm_matches_partial_trace(magnons):
    """The masked five-element sums of the test oracle against the full partial trace."""
    sites = 4 if magnons == 2 else 6
    b, a = _random_state(sites, magnons, 17 + magnons)
    psi_full = embed_full_space(b, a)
    for i, j in oracles.site_pairs(sites):
        v, w, x, y, z = oracles.pair_elements_by_masks(b, a, i, j)
        direct = np.diag([v, w, x, y])
        direct[1, 2] = direct[2, 1] = z
        traced = two_site_rdm(psi_full, sites, i, j)
        # fixed magnetization forces every coherence except (ud, du) to
        # vanish in the trace, so the five-element form is the whole story
        assert np.abs(direct - traced).max() <= 1e-12


def test_definite_magnetization_kills_coherences():
    """The full partial trace itself must produce the five-element form."""
    b, a = _random_state(6, 2, 23)
    rho = two_site_rdm(embed_full_space(b, a), 6, 0, 3)
    off = rho - np.diag(np.diag(rho))
    off[1, 2] = off[2, 1] = 0.0
    assert np.abs(off).max() == 0.0


def test_concurrence_uniform_one_magnon():
    for L in (3, 8, 33):
        b = basis.build_basis(L, 1)
        assert entanglement.pair_concurrences(b, _uniform(b))[0] == pytest.approx(2.0 / L, abs=1e-14)


def test_concurrence_balanced_point_is_zero():
    v, y, z = np.array([0.25]), np.array([0.25]), np.array([0.25])
    assert entanglement.concurrence_from_elements(v, y, z)[0] == 0.0


def test_concurrence_matches_wootters_oracle():
    rng = np.random.Generator(np.random.Philox(29))
    worst = 0.0
    for _ in range(100):
        magnons = int(rng.integers(1, 4))
        sites = int(rng.integers(magnons + 1, 9))
        b, a = _random_state(sites, magnons, int(rng.integers(0, 2**31)))
        worst = max(worst, kernel_wootters_deviation(b, a))
    assert worst <= 1e-10


def test_average_concurrence_uniform_closed_forms():
    for L in range(3, 65):
        b1 = basis.build_basis(L, 1)
        assert entanglement.pair_concurrences(b1, _uniform(b1)).mean() == pytest.approx(2.0 / L, abs=1e-12)
    for L in (4, 8, 16, 25, 64):
        b2 = basis.build_basis(L, 2)
        assert entanglement.pair_concurrences(b2, _uniform(b2)).mean() == pytest.approx(
            uniform_two_magnon_form(L), abs=1e-12
        )


@given(
    st.integers(4, 9),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_pair_rdm_invariants_hold(sites, magnons, seed):
    b, a = _random_state(sites, magnons, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    i, j = sorted(int(t) for t in rng.choice(sites, size=2, replace=False))
    rho = two_site_rdm(embed_full_space(b, a), sites, i, j)
    v, w, x, y, z = rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3], rho[1, 2]
    assert min(v, w, x, y) >= 0.0
    assert v + w + x + y == pytest.approx(1.0, abs=1e-10)
    assert z**2 <= w * x + 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    c = entanglement.pair_concurrences(b, a)
    assert np.all((0.0 <= c) & (c <= 1.0))


def test_batch_kernels_match_per_state_loop():
    b = basis.build_basis(7, 2)
    rng = np.random.Generator(np.random.Philox(31))
    cols = rng.standard_normal((b.dim, 5))
    cols /= np.linalg.norm(cols, axis=0)
    batch = entanglement.pair_concurrences(b, cols)
    avg, pos = batch.mean(axis=0), (batch > 0.0).mean(axis=0)
    for n in range(5):
        per_pair = entanglement.pair_concurrences(b, cols[:, n])
        assert avg[n] == pytest.approx(per_pair.mean(), abs=1e-14)
        assert pos[n] == pytest.approx((per_pair > 0).mean(), abs=0.0)


@given(
    st.integers(2, 10).flatmap(lambda L: st.tuples(st.just(L), st.integers(1, L - 1))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_pair_concurrences_match_partial_trace(sector_size, uniform, seed):
    sites, magnons = sector_size
    b, a = _random_state(sites, magnons, seed)
    if uniform:
        a = _uniform(b)
    kernel = entanglement.pair_concurrences(b, a)
    psi_full = embed_full_space(b, a)
    traced = []
    for i, j in oracles.site_pairs(sites):
        rho = two_site_rdm(psi_full, sites, i, j)
        traced.append(max(2.0 * (abs(rho[1, 2]) - sqrt(rho[0, 0] * rho[3, 3])), 0.0))
    traced = np.array(traced)
    assert kernel.shape == traced.shape
    assert np.abs(kernel - traced).max() <= 1e-13
    assert np.array_equal(kernel > 0.0, traced > 0.0)


def test_pair_concurrences_on_a_sector_wider_than_64_sites():
    # L=66: sites 64 and 65 lie beyond what one 64-bit pattern could hold
    b = basis.build_basis(66, 2)
    rng = np.random.Generator(np.random.Philox(41))
    cols = rng.standard_normal((b.dim, 3))
    cols /= np.linalg.norm(cols, axis=0)
    kernel = entanglement.pair_concurrences(b, cols)
    for row, (i, j) in enumerate(oracles.site_pairs(66)):
        v, _, _, y, z = oracles.pair_elements_by_masks(b, cols, i, j)
        assert np.abs(kernel[row] - entanglement.concurrence_from_elements(v, y, z)).max() <= 1e-14


def test_pair_concurrences_independent_of_column_blocking():
    b = basis.build_basis(9, 3)
    n = 2 * entanglement.PANEL + 7
    rng = np.random.Generator(np.random.Philox(43))
    cols = rng.standard_normal((b.dim, n))
    cols /= np.linalg.norm(cols, axis=0)
    full = entanglement.pair_concurrences(b, cols)
    assert full.shape == (36, n)
    lo, hi = entanglement.PANEL - 5, entanglement.PANEL + 20
    assert np.abs(entanglement.pair_concurrences(b, cols[:, lo:hi]) - full[:, lo:hi]).max() <= 1e-14
    for k in (0, lo, n - 1):
        single = entanglement.pair_concurrences(b, cols[:, k])
        assert single.shape == (36,)
        assert np.abs(single - full[:, k]).max() <= 1e-14


@pytest.mark.parametrize("sites", [7, 30])
@pytest.mark.parametrize("hole", [False, True])
def test_pair_concurrences_with_one_magnon_or_one_hole(sites, hole):
    # m = 1 or L - 1: one antiparallel row per pair, where the kernel skips
    # the pair indicators; it must agree with the general formula bit for bit
    b = basis.build_basis(sites, sites - 1 if hole else 1)
    rng = np.random.Generator(np.random.Philox(sites + hole))
    cols = rng.standard_normal((b.dim, 6))
    cols /= np.linalg.norm(cols, axis=0)
    cols[:, 4] = 0.0
    cols[0, 5] = -0.0
    kernel = entanglement.pair_concurrences(b, cols)
    for row, (i, j) in enumerate(oracles.site_pairs(sites)):
        v, _, _, y, z = oracles.pair_elements_by_masks(b, cols, i, j)
        assert np.array_equal(kernel[row], entanglement.concurrence_from_elements(v, y, z))
    assert np.array_equal(entanglement.pair_concurrences(b, cols[:, 2]), kernel[:, 2])


@pytest.mark.parametrize("n", [1, 2 * entanglement.PANEL + 1, 2 * entanglement.PANEL + 7])
def test_inverse_participation_ratio_sums_each_column_as_one_reduction(n):
    # the panelled kernel adds each column's fourth powers in the order one
    # reduction over the whole matrix does, also where a last panel holds one column
    rng = np.random.Generator(np.random.Philox(n))
    a = rng.standard_normal((500, n))
    sq = a * a
    sq *= sq
    assert np.array_equal(entanglement.inverse_participation_ratio(a), sq.sum(axis=0))


def test_participation_ratio_limits():
    b = basis.build_basis(6, 2)
    coeff = np.zeros(b.dim)
    coeff[0] = 1.0
    assert entanglement.participation_ratio(coeff) == 1.0
    assert entanglement.participation_ratio(np.full(b.dim, b.dim**-0.5)) == pytest.approx(
        b.dim, rel=1e-12
    )
    _, a = _random_state(6, 2, 5)
    pr = entanglement.participation_ratio(a)
    assert 1.0 <= pr <= b.dim
    assert pr == 1.0 / entanglement.inverse_participation_ratio(a)


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
