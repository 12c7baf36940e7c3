"""Pure-state and density-matrix simulation kernels.

The pure path applies gates by reshaping the amplitude vector into a rank-m
tensor and contracting the affected axes, so no full 2^m x 2^m matrix is
ever built; it is meant to stay usable up to roughly 24 qubits.  The
density path deliberately goes the other way: it conjugates by the full
gate matrix from the dense oracle, so the two routes stay independent and
can check each other.

Bit convention: qubit 0 is the most significant bit of a basis index and
the leftmost character of every outcome bitstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits
from .bits import gather_bits
from .circuits import FIXED_1Q, Gate, check_unitary, gate_matrix, rz_matrix
from .config import HERMITICITY_TOL, NORM_TOL, PSD_TOL, TRACE_TOL
from .distributions import OutcomeDistribution
from .errors import ContractError, WiringError


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over 2^num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if self.num_qubits < 1:
            raise ContractError(f"need at least one qubit, got {self.num_qubits}")
        if amps.size != 1 << self.num_qubits:
            raise ContractError(
                f"{amps.size} amplitudes do not fit {self.num_qubits} qubits"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ContractError(f"squared norm {norm_sq} is off unity beyond {NORM_TOL}")

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "PureState":
        if not 0 <= index < (1 << num_qubits):
            raise ContractError(f"basis index {index} out of range")
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def zero(cls, num_qubits: int) -> "PureState":
        return cls.basis(num_qubits, 0)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix over 2^num_qubits basis states.

    Positivity is not re-checked on every construction (it is an O(d^3)
    eigendecomposition); call validate_psd() where it matters.
    """

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", mat)
        dim = 1 << self.num_qubits
        if self.num_qubits < 1 or mat.shape != (dim, dim):
            raise ContractError(f"entries of shape {mat.shape} do not fit {self.num_qubits} qubits")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ContractError(f"hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractError(f"trace {tr} is off unity beyond {TRACE_TOL:.1e}")

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        v = state.amplitudes
        return cls(state.num_qubits, np.outer(v, v.conj()))

    def validate_psd(self, tol: float = PSD_TOL) -> None:
        lo = float(np.linalg.eigvalsh(self.entries)[0])
        if lo < -tol:
            raise ContractError(f"smallest eigenvalue {lo:.3e} below -{tol:.1e}")


# ---------------------------------------------------------------------------
# pure-state kernels (private, operate on raw amplitude arrays)

def _apply_matrix(amps: np.ndarray, m: int, mat: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    k = len(wires)
    psi = np.moveaxis(amps.reshape((2,) * m), wires, range(k))
    tail = psi.shape[k:]
    out = (mat @ psi.reshape(1 << k, -1)).reshape((2,) * k + tail)
    return np.moveaxis(out, range(k), wires).reshape(-1)


def _apply_mcx(
    amps: np.ndarray, m: int, controls: Sequence[int], polarities: Sequence[int], target: int
) -> np.ndarray:
    psi = amps.reshape((2,) * m).copy()
    sel: list = [slice(None)] * m
    for c, p in zip(controls, polarities):
        sel[c] = p
    sel0 = list(sel)
    sel0[target] = 0
    sel1 = list(sel)
    sel1[target] = 1
    low = psi[tuple(sel0)].copy()
    psi[tuple(sel0)] = psi[tuple(sel1)]
    psi[tuple(sel1)] = low
    return psi.reshape(-1)


def _apply_controlled(
    amps: np.ndarray, m: int, mat: np.ndarray, controls: Sequence[int], targets: Sequence[int]
) -> np.ndarray:
    psi = amps.reshape((2,) * m).copy()
    sel = tuple(1 if q in controls else slice(None) for q in range(m))
    sub = psi[sel]
    remaining = [q for q in range(m) if q not in controls]
    sub_wires = [remaining.index(q) for q in targets]
    flat = np.ascontiguousarray(sub).reshape(-1)
    psi[sel] = _apply_matrix(flat, m - len(controls), mat, sub_wires).reshape(sub.shape)
    return psi.reshape(-1)


def _apply_graph_flip(
    amps: np.ndarray, m: int, vec: np.ndarray, proj_wires: Sequence[int], target: int
) -> np.ndarray:
    # Direct projector action: split off the component along `vec` on the
    # projector wires and exchange it between the target's 0 and 1 branches.
    r = len(proj_wires)
    order = list(proj_wires) + [target]
    psi = np.moveaxis(amps.reshape((2,) * m), order, range(r + 1))
    tail = psi.shape[r + 1:]
    block = psi.reshape(1 << r, 2, -1)
    overlap = np.tensordot(vec.conj(), block, axes=(0, 0))  # shape (2, rest)
    proj = vec[:, None, None] * overlap[None, :, :]
    out = block - proj + proj[:, ::-1, :]
    out = out.reshape((2,) * (r + 1) + tail)
    return np.moveaxis(out, range(r + 1), order).reshape(-1)


def _apply_gate_kernel(amps: np.ndarray, m: int, g: Gate) -> np.ndarray:
    kind = g.kind
    if kind in FIXED_1Q:
        return _apply_matrix(amps, m, FIXED_1Q[kind], g.qubits)
    if kind == "RZ":
        return _apply_matrix(amps, m, rz_matrix(g.theta), g.qubits)
    if kind == "U1Q":
        return _apply_matrix(amps, m, g.matrix, g.qubits)
    if kind == "CZ":
        psi = amps.reshape((2,) * m).copy()
        sel: list = [slice(None)] * m
        sel[g.qubits[0]] = 1
        sel[g.qubits[1]] = 1
        psi[tuple(sel)] *= -1.0
        return psi.reshape(-1)
    if kind == "CNOT":
        return _apply_mcx(amps, m, g.controls, (1,), g.qubits[0])
    if kind == "MCX":
        return _apply_mcx(amps, m, g.controls, g.polarities, g.qubits[0])
    if kind == "CU":
        return _apply_controlled(amps, m, g.matrix, g.controls, g.qubits)
    if kind == "GraphProjX":
        vec = g.graph.state_vector()
        proj_wires: tuple[int, ...] = g.controls
        if g.extra_zero is not None:
            vec = np.kron(vec, np.array([1.0, 0.0], dtype=complex))
            proj_wires = g.controls + (g.extra_zero,)
        return _apply_graph_flip(amps, m, vec, proj_wires, g.qubits[0])
    raise ContractError(f"no kernel for gate kind {kind!r}")


def _rewire(gate: Gate, targets: Sequence[int] | None) -> Gate:
    if targets is None:
        return gate
    targets = tuple(int(q) for q in targets)
    wires = gate.wires
    if len(targets) != len(wires):
        raise ContractError(
            f"{gate.kind} spans {len(wires)} wires, cannot rewire onto {len(targets)}"
        )
    return gate.remapped(dict(zip(wires, targets)))


def _check_range(gate: Gate, num_qubits: int) -> None:
    bad = [w for w in gate.wires if not 0 <= w < num_qubits]
    if bad:
        raise WiringError(
            f"{gate.kind} references qubits {bad} outside a {num_qubits}-qubit state"
        )


# ---------------------------------------------------------------------------
# public operations

def apply_gate(state: PureState, gate: Gate, targets: Sequence[int] | None = None) -> PureState:
    """Apply one gate to a pure state.

    `targets`, when given, remaps the gate's wires (in canonical order:
    controls, then the forced-zero qubit if any, then targets) onto the
    listed state qubits.  By default the gate's own wiring is used.
    """
    g = _rewire(gate, targets)
    _check_range(g, state.num_qubits)
    if g.matrix is not None:
        check_unitary(g.matrix)
    amps = _apply_gate_kernel(state.amplitudes, state.num_qubits, g)
    return PureState(state.num_qubits, amps)


def evolve_density(
    rho: DensityMatrix, gate: Gate, targets: Sequence[int] | None = None, cap: int | None = None
) -> DensityMatrix:
    """Conjugate a density matrix by the full gate unitary.

    Routed through the dense-matrix oracle on purpose; see the module
    docstring.  Subject to the dense size cap.
    """
    g = _rewire(gate, targets)
    full = gate_matrix(g, rho.num_qubits, cap=cap)
    return DensityMatrix(rho.num_qubits, full @ rho.entries @ full.conj().T)


def _outcome_weights(p: np.ndarray, m: int, qubits: Sequence[int]) -> np.ndarray:
    """Fold a length-2^m probability vector onto the listed qubits."""
    idx = gather_bits(np.arange(1 << m, dtype=np.int64), qubits, m)
    return np.bincount(idx, weights=p, minlength=1 << len(qubits))


def measure_probs(state: PureState | DensityMatrix, qubits: Sequence[int]) -> OutcomeDistribution:
    """Computational-basis outcome distribution over the listed qubits.

    Outcomes are packed in the order of `qubits`, the first listed qubit
    as the most significant bit.
    """
    qubits = tuple(int(q) for q in qubits)
    if not qubits:
        raise ContractError("measurement needs at least one qubit")
    if len(set(qubits)) != len(qubits):
        raise ContractError(f"measured qubits must be distinct: {qubits}")
    bad = [q for q in qubits if not 0 <= q < state.num_qubits]
    if bad:
        raise ContractError(f"measured qubits out of range: {bad}")
    if isinstance(state, PureState):
        p = state.probabilities()
    else:
        p = state.entries.diagonal().real
    weights = _outcome_weights(p, state.num_qubits, qubits)
    return OutcomeDistribution(qubits, np.maximum(weights, 0.0))


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ContractError("states live on different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
