import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import blocks
import oracles
from heisenglass import basis, couplings, ladder, sector


def test_dim_and_order_small():
    b = basis.build_basis(4, 2)
    assert b.dim == 6
    assert b.states == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]


def test_dim_fig_sector():
    assert basis.build_basis(25, 2).dim == 300


def test_empty_sector():
    b = basis.build_basis(8, 0)
    assert b.dim == 1
    assert b.states == [0]


def test_full_sector():
    b = basis.build_basis(5, 5)
    assert b.states == [0b11111]


@pytest.mark.parametrize("sites,magnons", [(6, 2), (9, 4), (12, 1), (16, 3)])
def test_invariants(sites, magnons):
    b = basis.build_basis(sites, magnons)
    assert b.dim == comb(sites, magnons)
    assert all(bin(s).count("1") == magnons for s in b.states)
    assert all(a < c for a, c in zip(b.states, b.states[1:]))


def test_rank_endpoints():
    assert basis.rank(4, 2, 0b0011) == 0
    assert basis.rank(4, 2, 0b1100) == 5


def test_rank_unrank_roundtrip_exhaustive():
    for sites in range(1, 17):
        for magnons in range(sites + 1):
            dim = comb(sites, magnons)
            patterns = [basis.unrank(sites, magnons, k) for k in range(dim)]
            assert patterns == sorted(patterns)
            assert [basis.rank(sites, magnons, p) for p in patterns] == list(range(dim))


@given(st.integers(2, 300), st.data())
def test_rank_unrank_roundtrip_random(sites, data):
    magnons = data.draw(st.integers(0, min(sites, 6)))
    up = data.draw(st.sets(st.integers(0, sites - 1), min_size=magnons, max_size=magnons))
    pattern = sum(1 << s for s in up)
    assert basis.unrank(sites, magnons, basis.rank(sites, magnons, pattern)) == pattern


def test_rank_rejects_wrong_popcount():
    with pytest.raises(ValueError):
        basis.rank(4, 2, 0b0111)
    with pytest.raises(ValueError):
        basis.rank(4, 2, 0b10011)  # five bits wide


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        basis.unrank(4, 2, 6)


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        basis.build_basis(0, 0)
    with pytest.raises(ValueError):
        basis.build_basis(4, 5)
    with pytest.raises(ValueError):
        basis.build_basis(40, 10)  # dimension above DEFAULT_MAX_DIM
    with pytest.raises(ValueError):
        basis.spin_block(0, 0, 0)
    with pytest.raises(ValueError):
        basis.spin_block(4, 5, 1)
    for two_s in (-2, 0, 3, 6):  # below 2|M| = 2 at (4, 1), odd, or above L
        with pytest.raises(ValueError):
            basis.spin_block(4, 1, two_s)


def test_occupancy_columns_of_wide_patterns():
    # sites on both sides of bit 64 of the integer patterns
    b = basis.build_basis(70, 2)
    states, _ = oracles.enumerate_patterns(70, 2)
    for i in (0, 31, 63, 64, 69):
        expect = np.array([(s >> i) & 1 == 1 for s in states])
        assert np.array_equal(b.occupancy[:, i], expect)


def test_occupancy_is_read_only():
    b = basis.build_basis(6, 3)
    assert b.occupancy.shape == (20, 6) and b.occupancy.dtype == bool
    with pytest.raises(ValueError):
        b.occupancy[0, 0] = not b.occupancy[0, 0]
    with pytest.raises(ValueError):
        b.occupancy[:] = False


def test_spins_row_sums():
    b = basis.build_basis(9, 3)
    assert np.all(b.spins().sum(axis=1) == 2 * 3 - 9)


def test_pair_partners_against_brute_scan():
    # the (i up, j down) rows of a pair line up with their swap partners,
    # which the sector assembly and the concurrence kernels rely on
    for sites, magnons in ((8, 3), (8, 0), (8, 8), (9, 8)):
        b = basis.build_basis(sites, magnons)
        first, second = np.triu_indices(sites, k=1)
        ud_all, du_all = b.swap_rows(first, second)
        total = 0
        for p, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            brute = sorted(oracles.brute_pair_partners(b.states, i, j))
            assert list(zip(ud_all[p].tolist(), du_all[p].tolist())) == brute
            total += len(brute)
        width = comb(sites - 2, magnons - 1) if 0 < magnons < sites else 0
        assert ud_all.shape == du_all.shape == (first.size, width)
        assert total == comb(sites, 2) * width


def test_build_basis_matches_itertools_enumeration():
    sectors = [(L, m) for L in range(1, 11) for m in range(L + 1)] + [(70, 2)]
    for sites, magnons in sectors:
        b = basis.build_basis(sites, magnons)
        states, occupancy = oracles.enumerate_patterns(sites, magnons)
        assert b.dim == len(states)
        assert b.occupancy.dtype == bool and np.array_equal(b.occupancy, occupancy)
        assert all(type(s) is int for s in b.states)
        assert b.states == states


# sectors with L <= 12, including 2m = L and 2m > L
spin_sectors = st.integers(1, 12).flatmap(lambda L: st.tuples(st.just(L), st.integers(0, L)))


@given(spin_sectors)
@example((12, 6))
@example((7, 5))
def test_total_spin_blocks_orthonormal_with_multiplet_counts(sector_lm):
    sites, magnons = sector_lm
    Q, two_s = blocks.spin_blocks(sites, magnons)
    dim = comb(sites, magnons)
    assert Q.shape == (dim, dim) and Q.dtype == np.float64 and Q.flags.c_contiguous
    assert two_s.shape == (dim,) and two_s.dtype.kind == "i" and np.all(np.diff(two_s) >= 0)
    keys, counts = np.unique(two_s, return_counts=True)
    assert keys.tolist() == list(range(abs(2 * magnons - sites), sites + 1, 2))
    for key, count in zip(keys.tolist(), counts.tolist()):
        n = (sites - key) // 2
        assert count == comb(sites, n) - (comb(sites, n - 1) if n else 0)
    assert np.abs(Q.T @ Q - np.eye(Q.shape[0])).max() <= 1e-13


@given(spin_sectors.filter(lambda lm: lm[1] >= 1))
@example((12, 6))
@example((7, 5))
def test_total_spin_blocks_are_ladder_eigenspaces(sector_lm):
    # sigma^+ sigma^- = S^2 - S_z^2 + S_z acts on spin S as S(S+1) - M^2 + M
    sites, magnons = sector_lm
    raising = ladder.promotion_map(basis.build_basis(sites, magnons))
    m2 = 2 * magnons - sites
    Q, two_s = blocks.spin_blocks(sites, magnons)
    value = (two_s * (two_s + 2) - m2 * m2 + 2 * m2) / 4
    assert np.array_equal(basis.ladder_integer(sites, magnons, two_s), value)
    assert np.abs(raising @ (raising.T @ Q) - value * Q).max() <= 1e-12


@given(spin_sectors.filter(lambda lm: lm[0] >= 2), st.integers(0, 2**32 - 1))
@example((12, 6), 0)
@example((7, 5), 1)
def test_total_spin_blocks_decouple_heisenberg_sectors(sector_lm, seed):
    sites, magnons = sector_lm
    cm = couplings.sample_couplings(sites, 0.0, seed)
    H = sector.assemble(cm, basis.build_basis(sites, magnons)).matrix.toarray()
    Q, two_s = blocks.spin_blocks(sites, magnons)
    # every entry of Q^T H Q between columns of different spin vanishes
    coupling = (Q.T @ H @ Q)[two_s[:, None] != two_s[None, :]]
    assert np.abs(coupling).max(initial=0.0) <= 1e-12 * max(1.0, np.linalg.norm(H))


def _widest_block(sites: int, magnons: int) -> int:
    return max(basis.block_spins(sites, magnons), key=lambda two_s: basis.multiplets(sites, two_s))


@pytest.mark.parametrize("sites,magnons,spins", [
    *((L, m, None) for L in range(1, 13) for m in range(L + 1)),  # every block of every sector
    *((L, m, [_widest_block(L, m)]) for L, m in ((13, 6), (14, 7), (25, 2), (60, 2))),
])
def test_spin_block_matches_the_level_by_level_build(sites, magnons, spins):
    # the last level built into the result's row ranges and scaled there is the
    # reference's own level L, bit for bit
    for two_s in spins or basis.block_spins(sites, magnons):
        block = basis.spin_block(sites, magnons, two_s)
        reference = oracles.reference_spin_block(sites, magnons, two_s)
        assert block.flags.c_contiguous and block.dtype == np.float64 and block.shape == reference.shape
        assert np.array_equal(block.view(np.uint64), reference.view(np.uint64))


@given(spin_sectors)
@example((13, 6))
@example((25, 2))
def test_spin_block_words_count_the_cone(sector_lm):
    # two consecutive levels of each block's cone, or the result next to level
    # L-2: the arrays of spin_block that tracemalloc sees, up to numpy's ufunc
    # buffers (about 130 kB when a strided block is scaled into its column range)
    # and the dicts
    sites, magnons = sector_lm
    for two_s in basis.block_spins(sites, magnons):
        tracemalloc.start()
        try:
            Q = basis.spin_block(sites, magnons, two_s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        words = basis.spin_block_words(sites, magnons, two_s)
        assert Q.shape[1] == basis.multiplets(sites, two_s)
        assert 8 * words <= peak <= 8 * words + 2**18
