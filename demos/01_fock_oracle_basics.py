"""
Exact Fock-space primitives
===========================

The package keeps a small brute-force simulator of linear optics on
sparse Fock kets, exact at any photon number with no truncation:
labeled bosonic modes, beamsplitters, polarizing beamsplitters, loss
channels, and photon counting.  Everything the
protocol layer claims is ultimately checked against it.  This script
walks through the primitives on two-photon states.
"""

import math

from ensemble_repeater.fock import (
    BS_5050,
    FockDensityOperator,
    apply_loss,
    apply_mode_unitary,
    apply_pbs,
    measure_modes,
)

# Two photons, one per input mode of a balanced beamsplitter.
state = FockDensityOperator.from_occupations(("a", "b"), {"a": 1, "b": 1})
out = apply_mode_unitary(state, ("a", "b"), BS_5050)

print("Hong-Ou-Mandel interference of |1,1> on a 50/50 splitter:")
for occ, p in sorted(out.occupation_probabilities().items()):
    print(f"  occupation {occ}: probability {p:.6f}")
print("  (the coincidence term (1,1) cancels; both photons bunch)\n")

# Loss is a beamsplitter to an environment mode that is traced out.
# Each surviving photon keeps amplitude sqrt(eta).
lossy = apply_loss(out, "a", 0.7)
print("After 30% loss on mode a:")
for occ, p in sorted(lossy.occupation_probabilities().items()):
    print(f"  occupation {occ}: probability {p:.6f}")
print(f"  trace is still {lossy.trace:.6f}\n")

# Photon counting on one mode: exhaustive outcomes and their
# conditional states.  Probabilities sum to the input trace.
print("Counting photons in mode a:")
for (n,), (cond, p) in sorted(measure_modes(lossy, ("a",)).items()):
    print(f"  {n} photons with probability {p:.6f},"
          f" leftover trace {cond.trace:.6f}")
print()

# Post-selection on a specific count keeps the conditional state.  An
# outcome is keyed by its tuple of counts, one per measured mode.
cond, p = measure_modes(out, ("a",))[(2,)]
print(f"Post-selecting exactly 2 photons in mode a: probability {p:.6f}")

# The polarizing beamsplitter routes H through and reflects V; on H/V
# mode pairs it is pure relabeling.
hv = FockDensityOperator.from_occupations(
    ("aH", "aV", "bH", "bV"), {"aH": 1, "bV": 1}
)
routed = apply_pbs(hv, ("aH", "aV"), ("bH", "bV"), ("uH", "uV"), ("dH", "dV"))
print("\nPBS routing of one H photon (port a) and one V photon (port b):")
for occ, p in routed.occupation_probabilities().items():
    labels = [m for m, n in zip(routed.modes, occ) if n]
    print(f"  both photons end up in {labels} with probability {p:.0f}")

# A superposition across the two rails keeps its coherence under the
# coherent projector but loses part of it to loss.
s = 1 / math.sqrt(2)
plus = FockDensityOperator.from_ket(("a", "b"), {(1, 0): s, (0, 1): s})
dimmed = apply_loss(plus, "a", 0.49)
block = dimmed.block([(1, 0), (0, 1)])
print(f"\nOff-diagonal amplitude of (|10>+|01>)/sqrt2 after 51% loss on one"
      f" rail: {abs(block[0, 1]):.4f} (was 0.5, scaled by sqrt(0.49))")
