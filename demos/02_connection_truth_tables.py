"""
Connection and purification truth tables
========================================

Every heralded operation of the repeater (entanglement connection,
purification, the final post-selected mapping) acts bilinearly on a
finite set of canonical input components, so its whole behavior fits in
a table.  Each table value is a polynomial in the efficiency eta,
computed once by the exact Fock simulation and frozen in the package;
this script prints the logical sector at unit efficiency, where the
rules are simple enough to read off.
"""

from ensemble_repeater.circuits import oracle_table
from ensemble_repeater.patterns import BellState, ExcitationPattern, SchemeKind
from ensemble_repeater.tables import dump_table, enc_table, enp_table

LABEL = {
    BellState.PHI_PLUS: "Phi+",
    BellState.PHI_MINUS: "Phi-",
    BellState.PSI_PLUS: "Psi+",
    BellState.PSI_MINUS: "Psi-",
}


def bell_grid(table, pattern):
    """Print outcome per ordered pair of logical Bell inputs."""
    print(f"{'':>6}" + "".join(f"{LABEL[b]:>12}" for b in BellState))
    for a in BellState:
        cells = []
        for b in BellState:
            entry = table.entry((pattern, a), (pattern, b))
            if entry.total == 0.0:
                cells.append("reject")
                continue
            weights = entry.bell
            best = max(BellState, key=lambda s: weights[s.index])
            cells.append(f"{LABEL[best]} ({weights[best.index]:.2f})")
        print(f"{LABEL[a]:>6}" + "".join(f"{c:>12}" for c in cells))
    print()


# Two-cell connection: the output label is the XOR of the input labels
# (bit parity and sign combine independently), always with weight 1/2.
print("Two-cell entanglement connection at eta = 1 (output and weight):")
bell_grid(enc_table(SchemeKind.NEW, 1.0), ExcitationPattern.P11)

# Bit purification keeps only pairs whose bit parities agree...
print("Bit purification at eta = 1:")
bell_grid(enp_table("bit", 1.0), ExcitationPattern.P11)

# ...phase purification keeps only pairs whose signs agree.
print("Phase purification at eta = 1:")
bell_grid(enp_table("phase", 1.0), ExcitationPattern.P11)

# Below unit efficiency the same tables pick up loss branches; the full
# dump lists every input pair with its surviving pattern masses.  The
# vacuum rows show how connection losses feed the vacuum fraction.  The
# table is built by the Fock oracle, so that each line also reports the
# discarded off-Bell-diagonal residue, which no polynomial carries.
table = oracle_table("enc_higher", 0.9)
print("Some two-cell connection entries at eta = 0.9:")
for line in dump_table(table).splitlines():
    if line.startswith(("P00 x", "P11[phi_plus] x P11", "#")):
        print(" ", line)
