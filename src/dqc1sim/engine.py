"""Execution engine for one-clean-qubit circuits.

Inputs are always |0><0| on the clean qubits tensored with the maximally
mixed state on the rest.  Exact distributions come from two independent
routes: full density-matrix conjugation (dense oracle, capped) and the
uniform average over mixed-register basis states, each run through the
circuit compiled once into pure-state ops.  Sampling is per shot: draw a
mixed-register basis state, run it pure, then draw the outcome, all from
a counter-based random stream so a (seed, shot index) pair always yields
the same shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bits import bitstring, scatter_bits
from .circuits import Dqc1Circuit, require_valid
from .config import DEFAULT_LIMITS, Limits
from .distributions import OutcomeDistribution
from .errors import ContractError, ResourceError
from .qstate import DensityMatrix, _outcome_weights, compile_gate, evolve_density


@dataclass(frozen=True)
class PostselectionSpec:
    """Required bits for a subset of the measured qubits."""

    assignments: dict[int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "assignments", {int(q): int(b) for q, b in self.assignments.items()}
        )


def _as_assignments(ps: "PostselectionSpec | Mapping[int, int]") -> dict[int, int]:
    if isinstance(ps, PostselectionSpec):
        return dict(ps.assignments)
    return {int(q): int(b) for q, b in ps.items()}


@dataclass(eq=False)
class ShotRecord:
    """Outcomes of a seeded sampling run.

    outcomes[i] packs shot i's bits over measured_qubits, first measured
    qubit as the most significant bit; bitstrings() renders them.
    """

    measured_qubits: tuple[int, ...]
    outcomes: np.ndarray
    seed: int
    shot_count: int

    def bitstrings(self) -> Iterator[str]:
        k = len(self.measured_qubits)
        return (bitstring(int(o), k) for o in self.outcomes)

    def counts(self) -> dict[str, int]:
        k = len(self.measured_qubits)
        values, freq = np.unique(self.outcomes, return_counts=True)
        return {bitstring(int(v), k): int(f) for v, f in zip(values, freq)}


def build_input(dc: Dqc1Circuit, limits: Limits = DEFAULT_LIMITS) -> DensityMatrix:
    """Initial state as an explicit density matrix (capped): |0><0| on the
    clean qubits, I/2 on every other qubit."""
    require_valid(dc)
    m = dc.total_qubits
    if m > limits.density_cap:
        raise ResourceError(f"{m} qubits exceed the density cap of {limits.density_cap}")
    size = 1 << len(dc.mixed_qubits)
    diag = np.zeros(1 << m)
    diag[scatter_bits(np.arange(size), dc.mixed_qubits, m)] = 1.0 / size
    return DensityMatrix(m, np.diag(diag.astype(complex)))


def _apply_gate_kernel(op, psi: np.ndarray) -> None:
    """Run one compiled op in place.  Kept as a named step so that a tracer
    can count and time the engine's kernel calls."""
    op(psi)


def _mixture_outcome_weights(dc: Dqc1Circuit, ops: Sequence, start: int) -> np.ndarray:
    """Outcome weights of one pure run of the compiled ops from basis state `start`."""
    m = dc.total_qubits
    amps = np.zeros(1 << m, dtype=complex)
    amps[start] = 1.0
    psi = amps.reshape((2,) * m)
    for op in ops:
        _apply_gate_kernel(op, psi)
    return _outcome_weights(np.abs(amps) ** 2, m, dc.measured)


def exact_distribution(
    dc: Dqc1Circuit, method: str = "auto", limits: Limits = DEFAULT_LIMITS
) -> OutcomeDistribution:
    """Exact joint distribution over the measured qubits.

    method "density" evolves the full density matrix, "mixture" averages
    pure runs over the mixed-register basis, "auto" prefers the density
    route while it fits under the cap.  Both routes agree within 1e-10
    and the test suite holds them to that.
    """
    require_valid(dc)
    m = dc.total_qubits
    if method == "auto":
        method = "density" if m <= limits.density_cap else "mixture"
    if method == "density":
        rho = build_input(dc, limits=limits)
        for g in dc.gates:
            rho = evolve_density(rho, g, cap=limits.density_cap)
        p = rho.entries.diagonal().real
        weights = _outcome_weights(p, m, dc.measured)
    elif method == "mixture":
        if m > limits.exact_cap:
            raise ResourceError(f"{m} qubits exceed the exact cap of {limits.exact_cap}")
        ops = [compile_gate(g, m) for g in dc.gates]
        size = 1 << len(dc.mixed_qubits)
        weights = np.zeros(1 << len(dc.measured))
        for start in scatter_bits(np.arange(size), dc.mixed_qubits, m).tolist():
            weights += _mixture_outcome_weights(dc, ops, start)
        weights *= 1.0 / size
    else:
        raise ContractError(f"unknown method {method!r}")
    return OutcomeDistribution(dc.measured, np.maximum(weights, 0.0))


def conditional_distribution(
    dc: Dqc1Circuit,
    ps: PostselectionSpec | Mapping[int, int],
    method: str = "auto",
    limits: Limits = DEFAULT_LIMITS,
) -> OutcomeDistribution:
    """Exact distribution over the non-postselected measured qubits, given
    that every postselected qubit read its required bit."""
    joint = exact_distribution(dc, method=method, limits=limits)
    conditioned, _ = joint.condition(_as_assignments(ps))
    return conditioned


def marginal(d: OutcomeDistribution, subset: Sequence[int]) -> OutcomeDistribution:
    return d.marginal(subset)


def all_zeros_probability(
    dc: Dqc1Circuit, method: str = "auto", limits: Limits = DEFAULT_LIMITS
) -> float:
    """Probability that every measured clean qubit reads 0.

    Defined for circuits whose measured set is exactly the clean set.
    """
    if set(dc.measured) != set(dc.clean_qubits):
        raise ContractError("all-zeros probability needs measured set == clean set")
    joint = exact_distribution(dc, method=method, limits=limits)
    return float(joint.pmf[0])


def _shot_uniforms(seed: int, shots: int) -> np.ndarray:
    # Philox is counter-based: the stream is a pure function of the key, and
    # shot i always consumes words 2i and 2i+1, so shots are reproducible
    # and order-independent.
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.random((shots, 2))


def sample(
    dc: Dqc1Circuit, shots: int, seed: int, limits: Limits = DEFAULT_LIMITS
) -> ShotRecord:
    """Draw seeded i.i.d. shots from the circuit's exact distribution.

    Without postselection each shot draws a mixed-register basis state,
    runs it through the compiled pure-state ops and draws the outcome;
    identical basis draws share one simulation.  With postselection baked
    into the circuit, shots are drawn from the exact conditional
    distribution and keep their full-length bitstrings (forced bits always
    match).
    """
    require_valid(dc)
    if shots < 1:
        raise ContractError(f"need a positive shot count, got {shots}")
    k = len(dc.measured)
    uniforms = _shot_uniforms(seed, shots)
    if dc.postselect:
        joint = exact_distribution(dc, limits=limits)
        conditioned, _ = joint.condition(dc.postselect, keep_assigned=True)
        cdf = np.cumsum(conditioned.pmf)
        cdf[-1] = max(cdf[-1], 1.0)
        outcomes = np.searchsorted(cdf, uniforms[:, 1], side="right")
    else:
        size = 1 << len(dc.mixed_qubits)
        draws = (uniforms[:, 0] * size).astype(np.int64)
        np.clip(draws, 0, size - 1, out=draws)
        values, counts = np.unique(draws, return_counts=True)
        order = np.argsort(draws, kind="stable")
        outcomes = draws  # grouped already; each shot's entry becomes its outcome
        ops = [compile_gate(g, dc.total_qubits) for g in dc.gates]
        starts = scatter_bits(values, dc.mixed_qubits, dc.total_qubits).tolist()
        for start, group in zip(starts, np.split(order, np.cumsum(counts[:-1]))):
            weights = _mixture_outcome_weights(dc, ops, start)
            cdf = np.cumsum(np.maximum(weights, 0.0))
            cdf[-1] = max(cdf[-1], 1.0)
            outcomes[group] = np.searchsorted(cdf, uniforms[group, 1], side="right")
    np.clip(outcomes, 0, (1 << k) - 1, out=outcomes)
    return ShotRecord(dc.measured, outcomes, int(seed), shots)
