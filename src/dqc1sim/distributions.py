"""Probability distributions over measured qubits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bits import bitstring, fold
from .config import PROB_SUM_TOL, ZERO_PROB_TOL
from .errors import ContractError, PostselectionImpossibleError


def _outcome_index(key: str, k: int) -> int:
    if not isinstance(key, str) or len(key) != k or set(key) - {"0", "1"}:
        raise ContractError(f"outcome key {key!r} does not match {k} measured qubits")
    return int(key, 2)


def _outcome_indices(keys: list, k: int) -> np.ndarray:
    """Packed outcomes of bitstring keys, decoded as one array of digits;
    a bad key is named by _outcome_index, the first one first."""
    try:
        digits = np.frombuffer("".join(keys).encode(errors="replace"), np.uint8) - 48
        valid = set(map(len, keys)) <= {k} and digits.size == len(keys) * k
    except TypeError:  # a key that is not a string
        valid = False
    if not (valid and digits.max(initial=0) <= 1):
        for key in keys:
            _outcome_index(key, k)
    return (digits.reshape(-1, k) << np.arange(k - 1, -1, -1)).sum(axis=1)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact distribution over an ordered tuple of measured qubits.

    `pmf[i]` is the probability of outcome i, packed like
    ShotRecord.outcomes: the first measured qubit is the most significant
    bit.  The constructor also accepts a mapping from bitstrings (i-th
    character = outcome of measured_qubits[i]) to probabilities, with
    absent keys read as zero; `probs` renders that form back.
    Probabilities must be non-negative and sum to one within tolerance;
    tiny negative rounding dust is clamped to zero.
    """

    measured_qubits: tuple[int, ...]
    pmf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "measured_qubits", tuple(int(q) for q in self.measured_qubits))
        k = len(self.measured_qubits)
        if k == 0:
            raise ContractError("a distribution needs at least one measured qubit")
        if len(set(self.measured_qubits)) != k:
            raise ContractError("measured qubits must be distinct")
        if isinstance(self.pmf, Mapping):
            pmf = np.zeros(1 << k)
            keys = list(self.pmf)
            pmf[_outcome_indices(keys, k)] = np.fromiter(self.pmf.values(), float, len(keys))
        else:
            pmf = np.asarray(self.pmf, dtype=float)
            if pmf.shape != (1 << k,):
                raise ContractError(f"{pmf.size} probabilities do not fit {k} measured qubits")
        bad = np.flatnonzero(~((pmf >= -PROB_SUM_TOL) & (pmf <= 1.0 + PROB_SUM_TOL)))
        if bad.size:
            i = int(bad[0])
            raise ContractError(f"probability of {bitstring(i, k)!r} out of range: {pmf[i]}")
        pmf = np.maximum(pmf, 0.0)
        total = float(pmf.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ContractError(f"probabilities sum to {total}, not 1")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def __eq__(self, other):
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return self.measured_qubits == other.measured_qubits and np.array_equal(self.pmf, other.pmf)

    @property
    def probs(self) -> dict[str, float]:
        """Every outcome's probability keyed by bitstring, for JSON documents."""
        k = len(self.measured_qubits)
        return {bitstring(i, k): p for i, p in enumerate(self.pmf.tolist())}

    def prob(self, key: str) -> float:
        return float(self.pmf[_outcome_index(key, len(self.measured_qubits))])

    def marginal(self, subset: Sequence[int]) -> "OutcomeDistribution":
        """Marginal onto `subset`, an ordered list of already-measured qubits."""
        subset = tuple(int(q) for q in subset)
        if len(set(subset)) != len(subset):
            raise ContractError("measured qubits must be distinct")
        kept = []
        for q in subset:
            if q not in self.measured_qubits:
                raise ContractError(f"qubit {q} is not measured in this distribution")
            kept.append(self.measured_qubits.index(q))
        pmf = fold(self.pmf, len(self.measured_qubits), kept)[0]
        return OutcomeDistribution(subset, pmf)

    def condition(self, assignments: Mapping[int, int]) -> tuple["OutcomeDistribution", float]:
        """Condition on the given qubit -> bit assignments.

        Returns the renormalized distribution over the unassigned qubits,
        in measured order, and the probability of the conditioning event.
        Assigning every qubit raises ContractError.
        """
        kept, select = selector(self.measured_qubits, assignments)
        if not kept:
            raise ContractError("postselection leaves no measured qubits")
        pmf, event = select(self.pmf)
        return OutcomeDistribution(kept, pmf), event

    def total_variation(self, other: "OutcomeDistribution") -> float:
        if set(self.measured_qubits) != set(other.measured_qubits):
            raise ContractError("distributions measure different qubit sets")
        aligned = other
        if other.measured_qubits != self.measured_qubits:
            aligned = other.marginal(self.measured_qubits)
        return 0.5 * float(np.abs(self.pmf - aligned.pmf).sum())


def selector(
    measured: Sequence[int], assignments: Mapping[int, int]
) -> tuple[tuple[int, ...], Callable[[np.ndarray], tuple[np.ndarray, float]]]:
    """Check a qubit -> bit assignment against the measured qubits, then
    return the unassigned ones, in measured order, and the function that
    conditions outcome weights on the assignment into their pmf and the
    event probability; with every qubit assigned the pmf is [1.0].  The
    weights need not sum to one: only the entries that match are read."""
    assignments = {int(q): int(b) for q, b in assignments.items()}
    if not assignments:
        raise ContractError("empty postselection assignment")
    for q, b in assignments.items():
        if q not in measured:
            raise ContractError(f"postselected qubit {q} is not measured")
        if b not in (0, 1):
            raise ContractError(f"postselection bit for qubit {q} must be 0 or 1")
    k = len(measured)
    index = tuple(assignments.get(q, slice(None)) for q in measured)

    def select(weights: np.ndarray) -> tuple[np.ndarray, float]:
        selected = weights.reshape((2,) * k)[index]
        # Summed one entry after another in index order; np.sum adds
        # pairwise, which rounds differently.
        event = float(np.cumsum(selected)[-1])
        if event < ZERO_PROB_TOL:
            raise PostselectionImpossibleError(
                f"postselection {assignments} has probability {event}"
            )
        return selected.reshape(-1) / event, event

    return tuple(q for q in measured if q not in assignments), select
