"""Tests for the imperfection channels."""

import math

import numpy as np
import pytest

from ensemble_repeater.noise import (
    NoiseParams,
    dark_count_error,
    gaussian_phase_average,
    misalignment_channel,
    phase_error_prob,
)


def test_noise_params_defaults_and_validation():
    params = NoiseParams()
    assert params.eta == 0.95
    assert params.D == 0.0
    with pytest.raises(ValueError):
        NoiseParams(eta=1.0001)
    with pytest.raises(ValueError):
        NoiseParams(D=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="D must be finite"):
            NoiseParams(D=bad)
    with pytest.raises(ValueError):
        NoiseParams(p_misalign=2.0)


def test_phase_error_closed_form():
    assert phase_error_prob(1e-3, 10.0) == pytest.approx(
        0.5 * (1.0 - math.exp(-0.01)), abs=1e-15
    )
    assert phase_error_prob(1e-3, 10.0) == pytest.approx(0.004975083125, abs=1e-12)


def test_phase_error_limits():
    # No diffusion: no error.  Deep diffusion: the sign is fully random.
    assert phase_error_prob(0.0, 40.0) == 0.0
    assert phase_error_prob(10.0, 1e4) == pytest.approx(0.5)
    assert 0.0 < phase_error_prob(1e-4, 40.0) < 0.5
    with pytest.raises(ValueError):
        phase_error_prob(-1e-3, 10.0)
    with pytest.raises(ValueError):
        phase_error_prob(1e-3, 0.0)


def test_phase_error_monotone():
    grid = [phase_error_prob(1e-3, L0) for L0 in (5.0, 10.0, 20.0, 40.0)]
    assert grid == sorted(grid)


def test_gaussian_phase_average_matches_link_form():
    # One link of variance 2*D*L0 reproduces phase_error_prob.
    D, L0 = 2e-3, 25.0
    assert gaussian_phase_average(2.0 * D * L0) == pytest.approx(
        phase_error_prob(D, L0), abs=1e-15
    )
    assert gaussian_phase_average(0.0) == 0.0


def test_gaussian_phase_average_against_sampling():
    """Monte Carlo check of <sin^2(delta/2)> for Gaussian delta."""
    rng = np.random.default_rng(7)
    variance = 0.08
    delta = rng.normal(0.0, math.sqrt(variance), size=200_000)
    estimate = np.mean(np.sin(delta / 2.0) ** 2)
    sigma = np.std(np.sin(delta / 2.0) ** 2) / math.sqrt(delta.size)
    assert abs(estimate - gaussian_phase_average(variance)) < 4.0 * sigma


def test_misalignment_channel_is_stochastic():
    chan = misalignment_channel(0.3)
    assert chan.shape == (4, 4)
    assert np.allclose(chan.sum(axis=0), 1.0)
    assert np.all(chan >= 0.0)
    assert np.allclose(misalignment_channel(0.0), np.eye(4))
    assert np.allclose(misalignment_channel(1.0), 0.25)
    with pytest.raises(ValueError):
        misalignment_channel(-0.1)


def test_dark_count_error():
    assert dark_count_error(0.0, 0.9) == 0.0
    assert dark_count_error(1e-4, 0.9) == pytest.approx(1e-5)
    with pytest.raises(ValueError):
        dark_count_error(2.0, 0.9)
