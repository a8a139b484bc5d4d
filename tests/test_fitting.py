import json

import numpy as np
import oracles
import pytest

from heisenglass import fitting
from heisenglass.fitting import (
    EXP_SATURATION,
    FAMILIES,
    POWER_LAW,
    POWER_OFFSET,
    FitError,
    fit,
    initial_guess,
    model_jacobian,
    model_value,
    scaling_pipeline,
)

L_GRID = np.array([8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 200.0])

TRUTH = {
    POWER_OFFSET: np.array([0.564, 0.426, 0.754]),
    EXP_SATURATION: np.array([0.65, 0.20, 18.0]),
    POWER_LAW: np.array([0.900, 1.138]),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_noiseless_recovery(family):
    truth = TRUTH[family]
    y = model_value(family, truth, L_GRID)
    result = fit(family, L_GRID, y)
    assert result.converged
    assert np.abs(result.parameters - truth).max() <= 1e-6
    assert result.rss <= 1e-12


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_noisy_recovery_within_three_sigma(family):
    truth = TRUTH[family]
    rng = np.random.Generator(np.random.Philox(71))
    clean = model_value(family, truth, L_GRID)
    sigma = 0.01 * np.abs(clean) + 1e-4
    y = clean + sigma * rng.standard_normal(L_GRID.size)
    result = fit(family, L_GRID, y, sigma=sigma)
    assert result.converged
    assert result.weighted
    assert np.all(np.abs(result.parameters - truth) <= 3.0 * result.stderr)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_analytic_jacobian_matches_finite_differences(family):
    params = TRUTH[family]
    analytic = model_jacobian(family, params, L_GRID)
    numeric = oracles.finite_difference_jacobian(family, params, L_GRID)
    assert np.abs(analytic - numeric).max() <= 1e-6


def test_equal_sigmas_reproduce_unweighted_fit():
    y = model_value(POWER_LAW, TRUTH[POWER_LAW], L_GRID) + 0.001 * np.sin(L_GRID)
    plain = fit(POWER_LAW, L_GRID, y)
    flat = fit(POWER_LAW, L_GRID, y, sigma=np.full_like(y, 0.37))
    assert np.abs(plain.parameters - flat.parameters).max() <= 1e-10
    assert np.abs(plain.stderr - flat.stderr).max() <= 1e-10


def test_initial_guess_power_law_is_near_exact():
    y = model_value(POWER_LAW, TRUTH[POWER_LAW], L_GRID)
    guess = initial_guess(POWER_LAW, L_GRID, y)
    assert np.abs(guess - TRUTH[POWER_LAW]).max() <= 1e-8


def test_initial_guess_power_offset_anchors_plateau():
    truth = TRUTH[POWER_OFFSET]
    y = model_value(POWER_OFFSET, truth, L_GRID)
    guess = initial_guess(POWER_OFFSET, L_GRID, y)
    assert guess[0] == pytest.approx(y[-1], abs=1e-15)
    # fit, which starts from the deterministic guess, still lands on the truth
    result = fit(POWER_OFFSET, L_GRID, y)
    assert np.abs(result.parameters - truth).max() <= 1e-6


def test_validation_errors():
    y = model_value(POWER_LAW, TRUTH[POWER_LAW], L_GRID)
    with pytest.raises(ValueError):
        fit("quartic", L_GRID, y)
    with pytest.raises(FitError):
        fit(POWER_LAW, L_GRID[:2], y[:2])
    with pytest.raises(FitError):
        fit(POWER_LAW, L_GRID, y[:-1])
    with pytest.raises(FitError):
        fit(POWER_LAW, -L_GRID, y)
    with pytest.raises(FitError):
        fit(POWER_LAW, L_GRID, y, sigma=np.zeros_like(y))
    with pytest.raises(ValueError):
        model_value("quartic", TRUTH[POWER_LAW], L_GRID)
    with pytest.raises(ValueError):
        model_jacobian("quartic", TRUTH[POWER_LAW], L_GRID)
    with pytest.raises(ValueError):
        initial_guess("quartic", L_GRID, y)


def test_pipeline_drops_small_systems():
    L = np.concatenate([[3.0, 5.0], L_GRID])
    y = model_value(POWER_LAW, TRUTH[POWER_LAW], L)
    y[:2] += 0.5  # transient junk that would wreck the fit if kept
    out = scaling_pipeline(POWER_LAW, L, y)
    assert out["weighted"] is None
    assert np.abs(out["unweighted"].parameters - TRUTH[POWER_LAW]).max() <= 1e-6
    assert out["unweighted"].n_points == L_GRID.size

    sigma = np.full_like(y, 0.01)
    both = scaling_pipeline(POWER_LAW, L, y, sigma=sigma)
    assert both["weighted"] is not None
    assert both["weighted"].weighted
    assert np.abs(both["weighted"].parameters - TRUTH[POWER_LAW]).max() <= 1e-6


def test_pipeline_needs_enough_large_systems():
    L = np.array([3.0, 4.0, 5.0, 8.0, 12.0])
    y = np.ones_like(L)
    with pytest.raises(FitError):
        scaling_pipeline(POWER_LAW, L, y)


def test_result_serialization_roundtrip():
    y = model_value(EXP_SATURATION, TRUTH[EXP_SATURATION], L_GRID)
    result = fit(EXP_SATURATION, L_GRID, y)
    d = result.as_dict()
    assert d["family"] == EXP_SATURATION
    assert set(FAMILIES[EXP_SATURATION]) <= set(d)
    assert d["p_stderr"] >= 0.0
    assert json.loads(json.dumps(d)) == d


def test_names_property():
    y = model_value(POWER_LAW, TRUTH[POWER_LAW], L_GRID)
    assert fit(POWER_LAW, L_GRID, y).names == ("b", "a")


def test_exp_saturation_with_zero_gap_at_largest_size():
    # the last two points are equal, so y(L_max) - y is 0 there
    L = np.array([8.0, 10.0, 12.0, 14.0, 16.0])
    y = np.array([0.1, 0.3, 0.4, 0.45, 0.45])
    result = fit(EXP_SATURATION, L, y)
    # reference: p and q solved linearly on a fine grid of r
    scan = []
    for r in np.geomspace(0.5, 200.0, 4001):
        design = np.column_stack([np.ones_like(L), -np.exp(-L / r)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        scan.append(float(((y - design @ coef) ** 2).sum()))
    assert result.converged
    assert result.rss <= min(scan) * (1.0 + 1e-6)
    assert np.all(np.isfinite(result.parameters)) and abs(result.parameters[1]) < 1e3
