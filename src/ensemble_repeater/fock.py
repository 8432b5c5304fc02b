"""Exact few-mode bosonic states under linear optics, loss, and counting.

This module is the numerical ground truth for the protocol maps: every
truth table and every superoperator coefficient used by the scalable
pattern recursion is checked against brute-force circuits built from the
primitives here.

A state lives on a register of named modes as an ensemble of
unnormalized pure kets, ``rho = sum_i |k_i><k_i|``. Each ket is sparse:
it holds only the occupation tuples it reaches, so a state is exact at
any photon number and nothing is truncated. Linear optics maps kets to
kets, loss maps a ket to one ket per number of photons lost, and photon
counting splits a ket by detection outcome, so every operation is exact
up to floating point. Only amplitudes that are exactly zero are dropped;
nothing is pruned by size. ``block`` builds the dense matrix over given
occupation tuples, which is how the oracle reads a state's logical
block.

Conventions
-----------
* Mode unitaries act on creation operators as ``S_k -> sum_j u[j, k] S_j``.
* The polarizing beamsplitter transmits H and reflects V.
* Sub-normalized states are first class: the trace after a projective
  step is the probability of that outcome. Normalization is an explicit
  caller action.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

ModeLabel = str

UNITARITY_TOL = 1e-12

#: 45 degree rotation between the two cells of a node, taken verbatim as
#: S_H -> (S_H + S_V)/sqrt2, S_V -> (S_H - S_V)/sqrt2. Self-inverse.
ROTATE_45 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

#: Balanced beamsplitter used for single-rail interference, same
#: convention as the 45 degree rotation.
BS_5050 = ROTATE_45

#: Dual-rail bit flip (swap the H and V modes).
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

#: Dual-rail phase flip (sign on the V mode).
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


_Ket = dict[tuple[int, ...], complex]


class FockDensityOperator:
    """Mixed state over labeled bosonic modes, exact at any photon number.

    The state is stored as an ensemble of unnormalized pure kets whose
    outer products sum to the density operator. Each ket is a sparse map
    from occupation tuples (aligned with ``modes``) to complex
    amplitudes; ensemble weights are absorbed into the amplitudes. No
    photon number is truncated. Operations never form the dense matrix;
    ``block`` builds it over given occupation tuples on demand.

    The constructor checks its input: distinct labels, and every
    occupation tuple of the register's length with no negative count.
    The first offender in ket order decides the message, and an
    occupation whose amplitude is zero is still checked.
    """

    __slots__ = ("_modes", "_index", "_kets")

    def __init__(self, modes: Sequence[ModeLabel], kets: Iterable[_Ket]) -> None:
        modes = tuple(modes)
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate mode labels")
        kets = list(kets)
        for ket in kets:
            for occ in ket:
                if len(occ) != len(modes):
                    raise ValueError("occupation tuple does not match register")
                if any(n < 0 for n in occ):
                    raise ValueError("occupations must be non-negative")
        self._store(modes, kets)

    def _store(self, modes: tuple[ModeLabel, ...], kets: Iterable[_Ket]) -> None:
        """Keep each ket's nonzero amplitudes, as complex, and the kets
        that have one; only exact zeros, such as a cancellation, go."""
        self._modes = modes
        self._index = {m: i for i, m in enumerate(modes)}
        self._kets = []
        for ket in kets:
            kept = {occ: complex(amp) for occ, amp in ket.items() if amp != 0}
            if kept:
                self._kets.append(kept)

    @classmethod
    def _result(
        cls, modes: tuple[ModeLabel, ...], kets: Iterable[_Ket]
    ) -> "FockDensityOperator":
        """An operation's result, built without the constructor's checks.

        Every operation takes a checked state, and its caller checks the
        labels that the result adds or merges, so the result satisfies
        the rules by construction. Loss and mode unitaries keep each
        tuple's length and never make a count negative. Measurements and
        projections keep or drop whole modes. A tensor product joins
        disjoint registers, and a relabeling changes no tuple. Like the
        constructor, it drops only amplitudes that are exactly zero.
        """
        state = cls.__new__(cls)
        state._store(modes, kets)
        return state

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_ket(
        cls, modes: Sequence[ModeLabel], amplitudes: Mapping[tuple[int, ...], complex]
    ) -> "FockDensityOperator":
        """Pure state from a sparse amplitude map over occupation tuples."""
        return cls(modes, [dict(amplitudes)])

    @classmethod
    def from_occupations(
        cls, modes: Sequence[ModeLabel], occupations: Mapping[ModeLabel, int]
    ) -> "FockDensityOperator":
        """Basis state with the given photon numbers (zero elsewhere)."""
        modes = tuple(modes)
        unknown = set(occupations) - set(modes)
        if unknown:
            raise ValueError(f"unknown mode labels: {sorted(unknown)}")
        occ = tuple(int(occupations.get(m, 0)) for m in modes)
        return cls(modes, [{occ: 1.0 + 0.0j}])

    # ------------------------------------------------------------------
    # basic properties

    @property
    def modes(self) -> tuple[ModeLabel, ...]:
        return self._modes

    @property
    def trace(self) -> float:
        return float(
            sum(abs(amp) ** 2 for ket in self._kets for amp in ket.values())
        )

    def mode_index(self, mode: ModeLabel) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise ValueError(f"unknown mode label: {mode!r}") from None

    # ------------------------------------------------------------------
    # dense facade

    def block(self, occupations: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Dense matrix block over the given occupation tuples."""
        occs = list(occupations)
        pos = {occ: i for i, occ in enumerate(occs)}
        out = np.zeros((len(occs), len(occs)), dtype=complex)
        for ket in self._kets:
            vec = np.zeros(len(occs), dtype=complex)
            hit = False
            for occ, amp in ket.items():
                i = pos.get(occ)
                if i is not None:
                    vec[i] = amp
                    hit = True
            if hit:
                out += np.outer(vec, vec.conj())
        return out

    def occupation_probabilities(self) -> dict[tuple[int, ...], float]:
        """Born-rule probabilities of each occupation tuple (diagonal)."""
        probs: dict[tuple[int, ...], float] = {}
        for ket in self._kets:
            for occ, amp in ket.items():
                probs[occ] = probs.get(occ, 0.0) + abs(amp) ** 2
        return probs


def tensor(a: FockDensityOperator, b: FockDensityOperator) -> "FockDensityOperator":
    """Tensor product of two states on disjoint registers."""
    if set(a.modes) & set(b.modes):
        raise ValueError("registers overlap")
    kets: list[_Ket] = []
    for ka in a._kets:
        for kb in b._kets:
            kets.append(
                {
                    occa + occb: ampa * ampb
                    for occa, ampa in ka.items()
                    for occb, ampb in kb.items()
                }
            )
    return FockDensityOperator._result(a.modes + b.modes, kets)


# ----------------------------------------------------------------------
# linear optics


def _expand_monomial(
    sub: tuple[int, ...], u: np.ndarray
) -> list[tuple[tuple[int, ...], complex]]:
    """Image of a creation-operator monomial under a mode unitary.

    For input occupations ``sub`` on the transformed modes, returns the
    output occupations and amplitude factors of
    prod_k (sum_j u[j,k] S_j)^{n_k} |0>, including the sqrt(n!) basis
    normalization on both sides.
    """
    k = len(sub)
    poly: dict[tuple[int, ...], complex] = {(0,) * k: 1.0 + 0.0j}
    for slot, n in enumerate(sub):
        col = u[:, slot]
        for _ in range(n):
            nxt: dict[tuple[int, ...], complex] = {}
            for mono, c in poly.items():
                for j in range(k):
                    cj = col[j]
                    if cj == 0:
                        continue
                    lifted = list(mono)
                    lifted[j] += 1
                    key = tuple(lifted)
                    nxt[key] = nxt.get(key, 0.0) + c * cj
            poly = nxt
    norm_in = math.sqrt(math.prod(math.factorial(n) for n in sub))
    out = []
    for mono, c in poly.items():
        if c == 0:
            continue
        norm_out = math.sqrt(math.prod(math.factorial(m) for m in mono))
        out.append((mono, c * norm_out / norm_in))
    return out


def apply_mode_unitary(
    state: FockDensityOperator,
    modes: Sequence[ModeLabel],
    u: np.ndarray,
) -> FockDensityOperator:
    """Apply a linear-optics unitary to a subset of modes.

    Creation operators transform as ``S_k -> sum_j u[j, k] S_j`` where j
    and k index ``modes``. Photon number and trace are preserved.

    Parameters
    ----------
    state : FockDensityOperator
    modes : sequence of mode labels, distinct and present in the state
    u : complex unitary matrix of shape (len(modes), len(modes))
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("transformed modes must be distinct")
    u = np.asarray(u, dtype=complex)
    k = len(modes)
    if u.shape != (k, k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} modes")
    if not np.allclose(u.conj().T @ u, np.eye(k), atol=UNITARITY_TOL):
        raise ValueError("matrix is not unitary")
    idx = [state.mode_index(m) for m in modes]
    # Images per transformed sub-occupation, and per full occupation the
    # same images lifted back into the register.
    memo: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    lifted: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    new_kets: list[_Ket] = []
    for ket in state._kets:
        out: _Ket = {}
        for occ, amp in ket.items():
            images = lifted.get(occ)
            if images is None:
                sub = tuple(occ[i] for i in idx)
                monos = memo.get(sub)
                if monos is None:
                    monos = _expand_monomial(sub, u)
                    memo[sub] = monos
                images = []
                for mono, coeff in monos:
                    new_occ = list(occ)
                    for pos, i in enumerate(idx):
                        new_occ[i] = mono[pos]
                    images.append((tuple(new_occ), coeff))
                lifted[occ] = images
            for key, coeff in images:
                out[key] = out.get(key, 0.0) + amp * coeff
        new_kets.append(out)
    return FockDensityOperator._result(state.modes, new_kets)


def relabel_modes(
    state: FockDensityOperator, mapping: Mapping[ModeLabel, ModeLabel]
) -> FockDensityOperator:
    """Rename modes without touching amplitudes."""
    new_modes = tuple(mapping.get(m, m) for m in state.modes)
    if len(set(new_modes)) != len(new_modes):
        raise ValueError("duplicate mode labels")
    return FockDensityOperator._result(new_modes, state._kets)


def apply_pbs(
    state: FockDensityOperator,
    in_a: tuple[ModeLabel, ModeLabel],
    in_b: tuple[ModeLabel, ModeLabel],
    out_1: tuple[ModeLabel, ModeLabel],
    out_2: tuple[ModeLabel, ModeLabel],
) -> FockDensityOperator:
    """Polarizing beamsplitter: H transmits, V reflects.

    Each argument is an (H, V) mode pair. Input ``in_a`` transmits to
    ``out_1`` and reflects to ``out_2``; input ``in_b`` transmits to
    ``out_2`` and reflects to ``out_1``. In the H/V basis this is pure
    routing (no amplitude mixing), so it is implemented as a relabeling:

        in_a H -> out_1 H,  in_a V -> out_2 V,
        in_b H -> out_2 H,  in_b V -> out_1 V.
    """
    a_h, a_v = in_a
    b_h, b_v = in_b
    o1_h, o1_v = out_1
    o2_h, o2_v = out_2
    ins = (a_h, a_v, b_h, b_v)
    outs = (o1_h, o1_v, o2_h, o2_v)
    if len(set(ins)) != 4 or len(set(outs)) != 4:
        raise ValueError("mode pairs overlap")
    for m in ins:
        state.mode_index(m)
    stay = set(state.modes) - set(ins)
    clash = stay & set(outs)
    if clash:
        raise ValueError(f"output labels collide with existing modes: {sorted(clash)}")
    return relabel_modes(
        state, {a_h: o1_h, a_v: o2_v, b_h: o2_h, b_v: o1_v}
    )


# ----------------------------------------------------------------------
# loss and measurement


#: Ledger modes of a tagged loss run: the photons kept and lost so far.
LEDGER = ("#kept", "#lost")


def apply_loss(
    state: FockDensityOperator, mode: ModeLabel, eta: Optional[float]
) -> FockDensityOperator:
    """Bosonic loss channel of transmissivity eta on one mode.

    Equivalent to a beamsplitter of transmissivity eta to a fresh
    environment mode followed by tracing the environment out. Each pure
    ket branches into one ket per number of photons lost, which keeps
    the ensemble exactly pure per branch.

    ``eta=None`` tags the loss instead: a branch keeps only its
    binomial weight, without the factor eta^kept (1 - eta)^lost, and
    the kept and lost photon counts add up in the two ``LEDGER`` modes,
    appended to the register unless they already end it.  Counting the ledger at the
    end of a circuit splits its output into parts that each carry one
    factor eta^kept (1 - eta)^lost at every eta.
    """
    tagged = eta is None
    if not tagged and not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if tagged and state.modes[-2:] != LEDGER:
        if set(LEDGER) & set(state.modes):
            raise ValueError("duplicate mode labels")
        kets = [{occ + (0, 0): amp for occ, amp in ket.items()} for ket in state._kets]
        state = FockDensityOperator._result(state.modes + LEDGER, kets)
    i = state.mode_index(mode)
    roots: dict[tuple[int, int], float] = {}
    new_kets: list[_Ket] = []
    for ket in state._kets:
        nmax = max(occ[i] for occ in ket)
        for lost in range(nmax + 1):
            branch: _Ket = {}
            for occ, amp in ket.items():
                n = occ[i]
                if n < lost:
                    continue
                root = roots.get((n, lost))
                if root is None:
                    if tagged:
                        w = math.comb(n, lost)
                    else:
                        w = math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost
                    root = roots[(n, lost)] = math.sqrt(w)
                if root == 0.0:
                    continue
                kept = occ[:i] + (n - lost,) + occ[i + 1 :]
                if tagged:
                    kept = kept[:-2] + (kept[-2] + n - lost, kept[-1] + lost)
                branch[kept] = branch.get(kept, 0.0) + amp * root
            if branch:
                new_kets.append(branch)
    return FockDensityOperator._result(state.modes, new_kets)


def _kept_modes(
    state: FockDensityOperator, idx: Sequence[int]
) -> tuple[list[int], tuple[ModeLabel, ...]]:
    """Register positions and labels left after removing ``idx``."""
    drop = set(idx)
    keep = [i for i in range(len(state.modes)) if i not in drop]
    return keep, tuple(state.modes[i] for i in keep)


def measure_modes(
    state: FockDensityOperator, measured_modes: Sequence[ModeLabel]
) -> dict[tuple[int, ...], tuple[FockDensityOperator, float]]:
    """Exhaustive photon counting on the given modes.

    Returns a map from every outcome with nonzero probability, the
    tuple of counts on ``measured_modes`` in that order, to its
    unnormalized conditional state (counters removed) and probability.
    Probabilities sum to the input trace.
    """
    if len(set(measured_modes)) != len(measured_modes):
        raise ValueError("measured modes must be distinct")
    idx = [state.mode_index(m) for m in measured_modes]
    keep, new_modes = _kept_modes(state, idx)
    # Per occupation: its outcome and the tuple without the counters.
    # Within one outcome distinct occupations stay distinct when stripped.
    split: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    grouped: dict[tuple[int, ...], list[_Ket]] = {}
    for ket in state._kets:
        per_outcome: dict[tuple[int, ...], _Ket] = {}
        for occ, amp in ket.items():
            parts = split.get(occ)
            if parts is None:
                parts = split[occ] = (
                    tuple(occ[i] for i in idx),
                    tuple(occ[i] for i in keep),
                )
            key, rest = parts
            per_outcome.setdefault(key, {})[rest] = amp
        for key, sub in per_outcome.items():
            grouped.setdefault(key, []).append(sub)
    out: dict[tuple[int, ...], tuple[FockDensityOperator, float]] = {}
    for key, kets in grouped.items():
        cond = FockDensityOperator._result(new_modes, kets)
        tr = cond.trace
        if tr > 0.0:
            out[key] = (cond, tr)
    return out


def project_total_photons(
    state: FockDensityOperator, modes: Sequence[ModeLabel], total: int
) -> FockDensityOperator:
    """Coherent projection onto a total photon number over ``modes``.

    Unlike measurement this keeps the projected modes and all coherence
    among terms with the required total, as in post-selection where the
    surviving photons carry the output qubit.
    """
    if len(set(modes)) != len(modes):
        raise ValueError("projected modes must be distinct")
    idx = [state.mode_index(m) for m in modes]
    hits: dict[tuple[int, ...], bool] = {}
    new_kets = []
    for ket in state._kets:
        sub: _Ket = {}
        for occ, amp in ket.items():
            hit = hits.get(occ)
            if hit is None:
                hit = hits[occ] = sum(occ[i] for i in idx) == total
            if hit:
                sub[occ] = amp
        if sub:
            new_kets.append(sub)
    return FockDensityOperator._result(state.modes, new_kets)
