import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from heisenglass import couplings


def test_chord_half_ring():
    assert couplings.chord_distance(10, 0, 5) == pytest.approx(10 / math.pi, abs=1e-14)


def test_chord_adjacent_value():
    assert couplings.chord_distance(25, 3, 4) == pytest.approx(0.99737, abs=1e-5)


def test_chord_symmetry():
    for L in (5, 12, 32):
        for i in range(L):
            for j in range(i + 1, L):
                assert couplings.chord_distance(L, i, j) == couplings.chord_distance(L, j, i)


def test_chord_rejects_equal_sites():
    with pytest.raises(ValueError):
        couplings.chord_distance(10, 3, 3)


def test_nearest_neighbour_support():
    cm = couplings.sample_couplings(6, math.inf, 0)
    upper = np.triu(cm.J, k=1)
    nz = {(i, j) for i, j in zip(*np.nonzero(upper))}
    assert nz == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
    assert len(nz) == 6


def test_nearest_neighbour_two_sites():
    # the ring degenerates to a single bond, not a doubled one
    cm = couplings.sample_couplings(2, math.inf, 0)
    assert np.count_nonzero(np.triu(cm.J, k=1)) == 1


def test_infinite_range_support():
    cm = couplings.sample_couplings(10, 0.0, 0)
    assert np.count_nonzero(np.triu(cm.J, k=1)) == 45


def test_symmetry_zero_diagonal():
    for sigma in (0.0, math.inf, 2.0):
        cm = couplings.sample_couplings(9, sigma, 4)
        assert np.array_equal(cm.J, cm.J.T)
        assert np.all(np.diag(cm.J) == 0)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.5, 3.0, math.inf])
@pytest.mark.parametrize("sites", [2, 3, 9, 16, 25])
@pytest.mark.parametrize("seed", [0, 99])
def test_sample_matches_per_pair_reference_bitwise(sigma, sites, seed):
    reference = oracles.reference_couplings(sites, sigma, seed)
    assert np.array_equal(couplings.sample_couplings(sites, sigma, seed).J, reference)


def test_power_law_rejects_negative_sigma():
    with pytest.raises(ValueError):
        couplings.sample_couplings(5, -0.5, 0)
    with pytest.raises(ValueError):
        couplings.sample_couplings(5, math.nan, 0)


def test_power_law_zero_unit_variance_monte_carlo():
    L, n = 10, 10_000
    acc = np.zeros((L, L))
    for s in range(n):
        acc += couplings.sample_couplings(L, 0.0, s).J ** 2
    var = acc / n
    iu = np.triu_indices(L, k=1)
    assert np.abs(var[iu] - 1.0).max() < 0.05


def test_power_law_variance_law():
    # J_ij * r_ij^(sigma/2) should be standard normal for every pair
    L, sigma, n = 8, 1.5, 4000
    scale = np.ones((L, L))
    for i in range(L):
        for j in range(L):
            if i != j:
                scale[i, j] = couplings.chord_distance(L, i, j) ** (sigma / 2.0)
    acc = np.zeros((L, L))
    for s in range(n):
        acc += (couplings.sample_couplings(L, sigma, s).J * scale) ** 2
    iu = np.triu_indices(L, k=1)
    pooled = acc[iu].sum() / (n * iu[0].size)
    assert abs(pooled - 1.0) < 0.02


def test_power_law_large_sigma_concentrates():
    L, sigma, n = 12, 16.0, 20_000
    acc_nn = 0.0
    acc_nnn = 0.0
    for s in range(n):
        J = couplings.sample_couplings(L, sigma, s).J
        acc_nn += J[0, 1] ** 2
        acc_nnn += J[0, 2] ** 2
    measured = math.sqrt(acc_nnn / acc_nn)
    r_nn = couplings.chord_distance(L, 0, 1)
    r_nnn = couplings.chord_distance(L, 0, 2)
    expected = (r_nn / r_nnn) ** (sigma / 2.0)
    assert measured == pytest.approx(expected, rel=0.05)


def test_coupling_sum_trivial_cases():
    assert couplings.CouplingMatrix(5, np.zeros((5, 5))).coupling_sum() == 0.0
    J = np.zeros((4, 4))
    J[1, 2] = J[2, 1] = 3.25
    assert couplings.CouplingMatrix(4, J).coupling_sum() == 3.25


def test_coupling_sum_against_double_loop():
    cm = couplings.sample_couplings(8, 0.0, 13)
    brute = sum(cm.J[i, j] for i in range(8) for j in range(i + 1, 8))
    assert cm.coupling_sum() == pytest.approx(brute, abs=1e-13)


def test_determinism_and_seed_sensitivity():
    a = couplings.sample_couplings(10, 1.0, 7)
    b = couplings.sample_couplings(10, 1.0, 7)
    c = couplings.sample_couplings(10, 1.0, 8)
    assert np.array_equal(a.J, b.J)
    assert not np.array_equal(a.J, c.J)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
@example(0, [0, 1, 2**32 - 1])
@example(2**32 - 1, [0, 2**32 - 1])
@example(2**32, [0, 2**32 - 1])
@example(2**64 - 1, [0, 2**32 - 1])
def test_sample_keys_equal_seed_sequence(master, indices):
    keys = couplings.sample_keys(master, np.array(indices, dtype=np.uint64))
    assert keys.dtype == np.uint64
    assert keys.shape == (len(indices), 2)
    for key, index in zip(keys, indices):
        expected = couplings.sample_seed(master, index).generate_state(2, np.uint64)
        assert np.array_equal(key, expected)


@pytest.mark.parametrize("indices", [[-1], [0, 2**32], [2**40]])
def test_sample_keys_reject_indices_outside_32_bits(indices):
    with pytest.raises(ValueError):
        couplings.sample_keys(0, indices)


@pytest.mark.parametrize("master", [-1, 2**64])
def test_sample_keys_reject_masters_outside_64_bits(master):
    with pytest.raises(ValueError):
        couplings.sample_keys(master, [0])


def test_sample_rejects_single_site():
    with pytest.raises(ValueError):
        couplings.sample_couplings(1, 0.0, 0)
