"""Imperfection models: efficiency, phase diffusion, misalignment, dark counts.

The combined retrieval and detection efficiency eta is consumed directly
by the connection circuits; this module holds the remaining two models.
Interferometric phase noise is applied at generation time as a
Bell-weight mixture, the Gaussian average over the accumulated phase
(``phase_error_prob``).  Misalignment and dark counts enter together as
one depolarizing Bell channel after each heralded connection or
purification step, given by its probability ``step_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NoiseParams:
    """Imperfection parameters.

    Attributes
    ----------
    eta : float
        Combined retrieval and detection efficiency per photon.
    D : float
        Phase diffusion coefficient of the fiber links, rad^2 per km.
    p_misalign : float
        Depolarizing probability per connection/purification step.
    p_dark : float
        Dark-count probability per detection window.
    eta_s : float
        Signal detection efficiency entering the dark-count error term.
    """

    eta: float = 0.95
    D: float = 0.0
    p_misalign: float = 0.0
    p_dark: float = 0.0
    eta_s: float = 0.9

    def __post_init__(self) -> None:
        for name in ("eta", "p_misalign", "p_dark", "eta_s"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not math.isfinite(self.D):
            raise ValueError(f"D must be finite, got {self.D}")
        if self.D < 0.0:
            raise ValueError("D must be non-negative")


def phase_error_prob(D: float, L0: float) -> float:
    """Phase-error probability of one interferometric link.

    The accumulated phase is Gaussian with variance 2*D*L0, and the
    average sin^2(delta/2) over that distribution is (1 - exp(-D*L0))/2.
    Monotone in both arguments, bounded by 1/2.
    """
    if D < 0.0:
        raise ValueError("D must be non-negative")
    if L0 <= 0.0:
        raise ValueError("L0 must be positive")
    return 0.5 * (1.0 - math.exp(-D * L0))


def step_error(noise: NoiseParams) -> float:
    """Depolarizing probability of the Bell channel after each heralded step.

    Misalignment adds p_misalign; dark counts on the step's two accepted
    detectors add 2 p_dark (1 - eta_s), at most 1; the sum is capped at 1.
    """
    dark = min(2 * (noise.p_dark * (1.0 - noise.eta_s)), 1.0)
    return min(noise.p_misalign + dark, 1.0)
