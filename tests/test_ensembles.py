import math

import numpy as np
import oracles
import pytest

from heisenglass import couplings, ensembles, entanglement
from heisenglass.basis import build_basis
from heisenglass.ensembles import (
    KINDS,
    MEAN_CONCURRENCE,
    MEAN_IPR,
    PROB_POSITIVE,
    PROB_POSITIVE_ASYMPTOTE,
    PROMOTED_CONCURRENCE_COEFF,
    RANDOM_1P,
    RANDOM_2P,
    RANDOM_PROMOTED_2P,
    EnsembleSpec,
)
from heisenglass.ladder import promote, promotion_map


def _spec(kind, sites=12, n=120, seed=4, **kw):
    return EnsembleSpec(kind=kind, sites=sites, n_samples=n, seed=seed, **kw)


def _sample_state(spec, index):
    """Sample ``index`` as (basis, coefficients) over its sector, promoted through sigma^+ where the kind says so."""
    a = ensembles._draw_seed_vectors(spec, index, index + 1)[:, 0]
    if spec.kind == RANDOM_1P:
        return build_basis(spec.sites, 1), a
    b2 = build_basis(spec.sites, 2)
    if spec.kind == RANDOM_PROMOTED_2P:
        a = promote(a, promotion_map(b2))
    return b2, a


@pytest.mark.parametrize("kind", KINDS)
def test_single_pair_fast_path_matches_materialized(kind):
    spec = _spec(kind)
    fast = ensembles.sample_values(spec, (MEAN_CONCURRENCE,))[0]
    for idx in (0, 1, 17, 119):
        b, a = _sample_state(spec, idx)
        # row 0 of the kernel is pair (0, 1)
        assert fast[idx] == pytest.approx(entanglement.pair_concurrences(b, a)[0], abs=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_ipr_fast_path_matches_materialized(kind):
    spec = _spec(kind)
    fast = ensembles.sample_values(spec, (MEAN_IPR,))[0]
    for idx in (0, 5, 119):
        _, a = _sample_state(spec, idx)
        direct = entanglement.inverse_participation_ratio(a)
        assert fast[idx] == pytest.approx(direct, abs=1e-13)


def test_positive_fraction_is_indicator_of_concurrence():
    spec = _spec(RANDOM_PROMOTED_2P, n=200)
    conc = ensembles.sample_values(spec, (MEAN_CONCURRENCE,))[0]
    pos = ensembles.sample_values(spec, (PROB_POSITIVE,))[0]
    assert np.array_equal(pos, (conc > 0.0).astype(float))


def test_single_and_all_pairs_agree_within_error():
    # permutation invariance: pair (0, 1) has the same mean as the
    # all-pairs average, just a larger variance
    single = ensembles.estimate(_spec(RANDOM_PROMOTED_2P, sites=20, n=500), MEAN_CONCURRENCE)
    allp = ensembles.estimate(
        _spec(RANDOM_PROMOTED_2P, sites=20, n=500, pair_policy="all"), MEAN_CONCURRENCE
    )
    gap = abs(single.mean - allp.mean)
    assert gap <= 3.0 * math.hypot(single.stderr, allp.stderr)
    assert allp.stderr < single.stderr


def test_random2p_coherence_second_moment():
    # exact sphere moment: E[z^2] = (L - 2) / (n (n + 2)), n = C(L, 2)
    sites, n_samples = 16, 4000
    spec = _spec(RANDOM_2P, sites=sites, n=n_samples, seed=9)
    sq = np.empty(n_samples)
    for lo in range(0, n_samples, 500):
        A = ensembles._draw_seed_vectors(spec, lo, lo + 500)
        _, _, z = ensembles._pair01_elements(spec, A)
        sq[lo : lo + 500] = z * z
    n = math.comb(sites, 2)
    exact = (sites - 2) / (n * (n + 2))
    stderr = sq.std(ddof=1) / math.sqrt(n_samples)
    assert abs(sq.mean() - exact) <= 3.0 * stderr
    # the 4 / L^3 closed form is the same thing to leading order
    assert 4.0 / sites**3 == pytest.approx(exact, rel=0.3)


def test_promoted_concurrence_constant_quadrature():
    c = oracles.promoted_concurrence_constant()
    assert c == pytest.approx(PROMOTED_CONCURRENCE_COEFF, abs=5e-4)
    # Monte Carlo cross-check at large L where the leading order dominates
    est = ensembles.estimate(
        _spec(RANDOM_PROMOTED_2P, sites=2000, n=4000, seed=1), MEAN_CONCURRENCE
    )
    assert abs(est.mean * 2000 - c) <= 3.0 * est.stderr * 2000


def test_prob_positive_asymptote_value():
    r = math.erf(2.0**-0.5)
    assert PROB_POSITIVE_ASYMPTOTE == pytest.approx(r * r + (1.0 - r) ** 2, abs=1e-15)
    assert PROB_POSITIVE_ASYMPTOTE == pytest.approx(0.56675, abs=5e-6)


def test_promoted_prob_positive_near_asymptote():
    est = ensembles.estimate(_spec(RANDOM_PROMOTED_2P, sites=400, n=4000, seed=2), PROB_POSITIVE)
    assert est.mean == pytest.approx(PROB_POSITIVE_ASYMPTOTE, abs=0.03)


def test_random1p_pair_always_entangled():
    # v = 0 for one-magnon states, so C = 2|a_0 a_1| > 0 almost surely
    est = ensembles.estimate(_spec(RANDOM_1P, sites=30, n=300), PROB_POSITIVE)
    assert est.mean == 1.0


def promoted_pair_leading_order(a0, a1, sites):
    """Leading 1/L forms of the promoted pair (0, 1) elements (v, y, z) given the two seed amplitudes."""
    return (a0 + a1) ** 2 / sites, 1.0, (1.0 + sites * a0 * a1) / sites


def test_promoted_pair_leading_order_forms():
    sites = 100_000
    rng = np.random.Generator(np.random.Philox(6))
    a = rng.standard_normal(sites)
    a /= np.linalg.norm(a)
    spec = _spec(RANDOM_PROMOTED_2P, sites=sites)
    v, y, z = ensembles._pair01_elements(spec, a[:, None])
    approx_v, approx_y, approx_z = promoted_pair_leading_order(float(a[0]), float(a[1]), sites)
    assert float(v[0]) == pytest.approx(approx_v, rel=1e-3)
    assert float(y[0]) == pytest.approx(approx_y, abs=1e-3)
    assert float(z[0]) == pytest.approx(approx_z, rel=0.05)


def test_estimates_are_reproducible():
    spec = _spec(RANDOM_2P, sites=10, n=150, seed=33)
    a = ensembles.estimate(spec, MEAN_CONCURRENCE)
    b = ensembles.estimate(spec, MEAN_CONCURRENCE)
    assert a == b
    assert repr(a.mean) == repr(b.mean)


def test_values_independent_of_chunking(monkeypatch):
    spec = _spec(RANDOM_PROMOTED_2P, sites=9, n=130, seed=8)
    whole = ensembles.sample_values(spec, (MEAN_CONCURRENCE,))[0]
    monkeypatch.setattr(ensembles, "_CHUNK", 7)
    chopped = ensembles.sample_values(spec, (MEAN_CONCURRENCE,))[0]
    assert np.array_equal(whole, chopped)


def _reference_draw(spec, index):
    """One sample from a fresh Philox stream seeded by SeedSequence((seed, index))."""
    n = math.comb(spec.sites, 2) if spec.kind == RANDOM_2P else spec.sites
    rng = np.random.Generator(np.random.Philox(couplings.sample_seed(spec.seed, index)))
    a = rng.standard_normal(n)
    if spec.zero_sum:
        a -= a.mean()
    return a / np.linalg.norm(a)


@pytest.mark.parametrize(
    "kind,zero_sum",
    [(RANDOM_1P, False), (RANDOM_2P, False), (RANDOM_PROMOTED_2P, False),
     (RANDOM_1P, True), (RANDOM_PROMOTED_2P, True)],
)
@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_batched_draws_match_fresh_generators(kind, zero_sum, seed):
    spec = _spec(kind, sites=9, n=1100, seed=seed, zero_sum=zero_sum)
    for lo, hi in ((0, 1024), (1024, 1100), (1020, 1030)):
        A = ensembles._draw_seed_vectors(spec, lo, hi)
        assert A.flags.c_contiguous
        expected = np.stack([_reference_draw(spec, i) for i in range(lo, hi)], axis=1)
        assert A.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pair_policy", ["single", "all"])
def test_one_pass_estimates_equal_separate_estimates(pair_policy):
    spec = _spec(RANDOM_PROMOTED_2P, sites=8, n=1100, seed=21, pair_policy=pair_policy)
    both = ensembles.estimates(spec, (MEAN_CONCURRENCE, PROB_POSITIVE))
    assert both == [ensembles.estimate(spec, MEAN_CONCURRENCE), ensembles.estimate(spec, PROB_POSITIVE)]
    values = ensembles.sample_values(spec, (MEAN_CONCURRENCE, PROB_POSITIVE, MEAN_IPR))
    assert values.shape == (3, 1100)
    for row, quantity in zip(values, (MEAN_CONCURRENCE, PROB_POSITIVE, MEAN_IPR)):
        assert row.tobytes() == ensembles.sample_values(spec, (quantity,))[0].tobytes()


def test_zero_sum_seed_is_centered():
    spec = _spec(RANDOM_PROMOTED_2P, sites=15, zero_sum=True)
    a = ensembles._draw_seed_vectors(spec, 3, 4)[:, 0]
    assert abs(a.sum()) <= 1e-14
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)
    b, promoted = _sample_state(spec, 3)
    expected = entanglement.concurrence_from_elements(*ensembles._pair01_elements(spec, a[:, None]))
    assert entanglement.pair_concurrences(b, promoted)[0] == pytest.approx(float(expected[0]), abs=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec("random-3p")
    with pytest.raises(ValueError):
        _spec(RANDOM_1P, sites=2)
    with pytest.raises(ValueError):
        _spec(RANDOM_1P, n=99)
    with pytest.raises(ValueError):
        _spec(RANDOM_2P, zero_sum=True)
    with pytest.raises(ValueError):
        _spec(RANDOM_1P, pair_policy="some")
    _spec(RANDOM_PROMOTED_2P, zero_sum=True)  # allowed: constraint is on the seed
    with pytest.raises(ValueError):
        _spec(RANDOM_1P, n=2**32 + 1)  # sample indices are 32-bit
    _spec(RANDOM_1P, n=2**32)


def test_closed_forms_table():
    cf = ensembles.closed_forms(10)
    assert cf.mean_concurrence_random2p == pytest.approx(16.0 / (100.0 * math.pi**1.5), abs=1e-15)
    assert cf.mean_concurrence_promoted2p == pytest.approx(0.0465, abs=1e-15)
    # cross-module route: the uniform two-magnon closed form against the
    # generic pair kernels on the materialized state
    b = build_basis(8, 2)
    direct = entanglement.pair_concurrences(b, np.full(b.dim, b.dim**-0.5)).mean()
    assert ensembles.uniform_avg_concurrence_2p(8) == pytest.approx(direct, abs=1e-12)


def test_mean_ipr_estimates_track_closed_forms():
    one = ensembles.estimate(_spec(RANDOM_1P, sites=300, n=2000, seed=5), MEAN_IPR)
    assert abs(one.mean - 3.0 / 302.0) <= 3.0 * one.stderr
    pro = ensembles.estimate(_spec(RANDOM_PROMOTED_2P, sites=300, n=2000, seed=5), MEAN_IPR)
    assert pro.mean == pytest.approx(6.0 / 300.0**2, rel=0.1)


def test_csv_row_format():
    est = ensembles.estimate(_spec(RANDOM_1P, sites=10, n=100, seed=0), MEAN_CONCURRENCE)
    row = est.csv_row()
    fields = row.split(",")
    assert fields[0] == "10"
    assert fields[1] == MEAN_CONCURRENCE
    assert float(fields[2]) == est.mean
    assert fields[4:] == ["100", RANDOM_1P, "single"]
    assert ensembles.MCEstimate.CSV_HEADER.count(",") == row.count(",")
