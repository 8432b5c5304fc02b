"""Tests for the imperfection models."""

import math

import numpy as np
import pytest

from ensemble_repeater.noise import NoiseParams, phase_error_prob, step_error
from ensemble_repeater.patterns import (
    ExcitationPattern,
    PatternState,
    SchemeKind,
    apply_bell_channel,
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


def _gaussian_phase_average(variance):
    """<sin^2(delta/2)> for a zero-mean Gaussian phase of given variance."""
    return 0.5 * (1.0 - math.exp(-variance / 2.0))


def test_gaussian_phase_average_matches_link_form():
    # One link of variance 2*D*L0 is phase_error_prob(D, L0); the two-cell
    # pair's variance 4*D*L0 is phase_error_prob(2*D, L0), to the bit.
    D, L0 = 2e-3, 25.0
    assert _gaussian_phase_average(2.0 * D * L0) == pytest.approx(
        phase_error_prob(D, L0), abs=1e-15
    )
    for D, L0 in (
        (0.0, 40.0), (1e-4, 40.0), (3e-4, 5.0), (0.02, 160.0),
        (0.5, 1e308), (5e-324, 1.0),  # 4*D*L0 overflows; D*L0 is subnormal
    ):
        assert phase_error_prob(2.0 * D, L0) == _gaussian_phase_average(4.0 * D * L0)


def test_gaussian_phase_average_against_sampling():
    """Monte Carlo check of <sin^2(delta/2)> for Gaussian delta of
    variance 2*D*L0."""
    rng = np.random.default_rng(7)
    D, L0 = 1e-3, 40.0
    delta = rng.normal(0.0, math.sqrt(2.0 * D * L0), size=200_000)
    estimate = np.mean(np.sin(delta / 2.0) ** 2)
    sigma = np.std(np.sin(delta / 2.0) ** 2) / math.sqrt(delta.size)
    assert abs(estimate - phase_error_prob(D, L0)) < 4.0 * sigma


def test_misalignment_channel_is_stochastic():
    """Misalignment alone is the step error; its channel keeps the Bell
    mass, is the identity at 0 and randomizes fully at 1."""
    assert step_error(NoiseParams(p_misalign=0.3)) == 0.3
    state = PatternState(SchemeKind.NEW, {ExcitationPattern.P11: 1.0}, (0.7, 0.1, 0.2, 0.0))
    out = apply_bell_channel(state, 0.3)
    assert out.logical.sum() == pytest.approx(1.0)
    assert np.all(out.logical >= 0.0)
    assert apply_bell_channel(state, 0.0) == state
    assert apply_bell_channel(state, 1.0).logical.tolist() == [0.25] * 4


def test_dark_count_error():
    """Dark counts on the step's two accepted detectors add
    2 p_dark (1 - eta_s)."""
    assert step_error(NoiseParams(p_dark=0.0, eta_s=0.9)) == 0.0
    assert step_error(NoiseParams(p_dark=1e-4, eta_s=0.9)) == pytest.approx(2e-5)
    assert step_error(NoiseParams(p_dark=0.3, eta_s=1.0)) == 0.0


def test_step_error():
    """The step error is p_misalign + min(2 p_dark (1 - eta_s), 1), capped
    at 1, with the IEEE operations of that formula."""
    assert step_error(NoiseParams()) == 0.0
    noise = NoiseParams(p_misalign=0.03, p_dark=0.01, eta_s=0.5)
    assert step_error(noise) == 0.03 + 2 * (0.01 * (1.0 - 0.5))
    assert step_error(NoiseParams(p_dark=1.0, eta_s=0.0)) == 1.0
    assert step_error(NoiseParams(p_misalign=0.4, p_dark=0.6, eta_s=0.0)) == 1.0
    assert step_error(NoiseParams(p_misalign=1.0)) == 1.0
