"""Simulation and optimization of atomic-ensemble quantum repeaters.

The package models two repeater protocols built from atomic cells,
linear optics, and photon counting: the single-rail protocol with a
final post-selection step, and a two-cell scheme whose logical qubit is
one excitation shared between an H cell and a V cell per node.  Protocol
steps are exact superoperators over excitation-pattern states, frozen
from a brute-force Fock-space oracle that can re-verify every
coefficient on demand.

Layers, from the bottom up:

``fock``
    Exact Fock-space density operators and linear-optics circuits.
``patterns``
    ``PatternState``, the one pair-state type: a float row of
    excitation-pattern masses, then the Bell-diagonal masses of the
    logical pattern.
``circuits``
    The protocol primitives as explicit Fock circuits; superoperator
    table entries derived from them, at one eta (``oracle_entry``) or
    as exact polynomials in eta (``freeze`` stores those with the
    package).
``tables`` / ``protocols``
    Connection/purification tables, one float row per entry in the
    ``PatternState`` layout, evaluated from the frozen polynomials and
    cached per eta, and the heralded protocol steps; a
    step returns its unnormalized output ``PatternState``, whose total
    is the success probability.
``noise`` / ``chain``
    Imperfection models, full-chain simulation, optimization, sweeps.
``verify``
    The exact oracle verification suite.
``cli``
    Command-line entry points.
"""

from .chain import (
    RepeaterConfig,
    RunResult,
    empirical_time,
    fit_tf_slope,
    optimize,
    scaling_exponent,
    scaling_fit,
    simulate_chain,
    tf_curve,
)
from .noise import NoiseParams, phase_error_prob
from .patterns import (
    BellState,
    ExcitationPattern,
    PatternState,
    SchemeKind,
    fidelity,
    logical_fidelity,
)
from .protocols import (
    EnpKind,
    enc,
    eng,
    enp,
    postselect_pme,
    predicted_logical_error,
)

__version__ = "0.1.0"

__all__ = [
    "BellState",
    "EnpKind",
    "ExcitationPattern",
    "NoiseParams",
    "PatternState",
    "RepeaterConfig",
    "RunResult",
    "SchemeKind",
    "__version__",
    "empirical_time",
    "enc",
    "eng",
    "enp",
    "fidelity",
    "fit_tf_slope",
    "logical_fidelity",
    "optimize",
    "phase_error_prob",
    "postselect_pme",
    "predicted_logical_error",
    "scaling_exponent",
    "scaling_fit",
    "simulate_chain",
    "tf_curve",
]
