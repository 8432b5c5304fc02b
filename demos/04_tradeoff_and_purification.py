"""
Time-fidelity trade-off and purification
========================================

Scanning the excitation probability p_c turns each chain configuration
into a curve: weak pumping is slow but clean, strong pumping is fast
but floods the chain with multi-excitation errors.  Interferometric
phase noise (diffusion coefficient D) caps the attainable fidelity;
purification rounds restore it at a time cost.  The script prints
plot-ready columns for 1280 km at eta = 0.95.
"""

import numpy as np

from ensemble_repeater import NoiseParams, tf_curve
from ensemble_repeater.patterns import SchemeKind

L = 1280.0
noise = NoiseParams(eta=0.95, D=1e-3)
sweep = np.logspace(-5, -1.3, 60)


def describe(points, label):
    best_f = max(F for _, F, _, _ in points)
    fastest = min(t for t, _, _, _ in points)
    print(f"{label}: {len(points)} points, best F = {best_f:.4f},"
          f" fastest t = {fastest:.3g} s")
    return best_f


print(f"phase diffusion D = {noise.D} rad^2/km over {L:.0f} km\n")

plain = tf_curve(SchemeKind.NEW, L, noise=noise, p_c_sweep=sweep)
purified = tf_curve(
    SchemeKind.NEW, L, noise=noise, enp_schedule=((2, "phase"),),
    p_c_sweep=sweep,
)

describe(plain, "no purification      ")
describe(purified, "phase round after m=2")
print("\nWithout purification the accumulated phase error saturates the")
print("curve near F = 0.65; one phase round recovers most of it.\n")

# The raw points, ready for a log-log plot of t versus 1 - F.
print(f"{'p_c':>10} {'L0 [km]':>8} {'t_plain [s]':>12} {'F_plain':>8}"
      f" {'t_purified [s]':>14} {'F_purified':>10}")
by_pc = {round(np.log10(p), 6): (t, F, L0) for t, F, p, L0 in plain}
for t2, F2, p_c, L02 in purified[::6]:
    key = round(np.log10(p_c), 6)
    if key not in by_pc:
        continue
    t1, F1, L01 = by_pc[key]
    print(f"{p_c:>10.2e} {L02:>8.0f} {t1:>12.4g} {F1:>8.4f}"
          f" {t2:>14.4g} {F2:>10.4f}")

# Without phase noise the high-fidelity branch follows t ~ 1/(1 - F):
# halving the infidelity doubles the delivery time.  The default sweep
# (dense grid up to p_c = 0.5) keeps the Pareto selection stable.
from ensemble_repeater import fit_tf_slope

clean = tf_curve(SchemeKind.NEW, L, noise=NoiseParams(eta=0.95))
slope = fit_tf_slope(clean)
print(f"\nlog t vs log(1-F) slope without phase noise: {slope:.3f}"
      " (expect about -1)")
