"""Pure-state and density-matrix simulation kernels.

The pure path compiles a gate list once into ops, then runs them in place
on the amplitude vector viewed as a rank-m tensor of 2s, so no full
2^m x 2^m matrix is ever built.  Every gate but GraphProjX becomes one
controlled-matrix op: a 2^k x 2^k matrix on k target axes, applied on the
view where the control axes read their firing bits (CZ is Z on its second
qubit under the first, CNOT and MCX are X under controls).  GraphProjX
becomes a projector flip.  Compiling evaluates each matrix, graph-state
vector and index tuple once per job.  An op runs a batch of states, so one
pass covers a block of basis states, each rounded as if alone.  The
density path deliberately goes the other way: it conjugates by the full
gate matrix from the dense oracle, so the two routes stay independent and
can check each other.

Bit convention: qubit 0 is the most significant bit of a basis index and
the leftmost character of every outcome bitstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        if not abs(norm_sq - 1.0) <= NORM_TOL:
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
        if not herm <= HERMITICITY_TOL:
            raise ContractError(f"hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:
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
# compiled pure-state ops

@dataclass(frozen=True)
class _ControlledMatrix:
    """`mat` on the target axes of psi[sel].transpose(fwd), per state.

    sel keeps the batch axis, fixes every control axis to its firing bit
    and keeps the other axes whole, so psi[sel] is a view; fwd keeps the
    batch axis first, then puts the target axes, then the rest in order.
    """

    sel: tuple
    fwd: tuple[int, ...]
    mat: np.ndarray

    def __call__(self, psi: np.ndarray) -> None:
        view = psi[self.sel].transpose(self.fwd)
        # One 2-D product per state, with a lone state's strides, so numpy
        # takes the same BLAS or plain loop and rounds it as if alone.
        stack = view.reshape(len(view), len(self.mat), -1)
        view[...] = (self.mat @ stack).reshape(view.shape)


@dataclass(frozen=True)
class _GraphFlip:
    """Direct projector action of GraphProjX: split off the component along
    `vec` on the leading axes of state.transpose(fwd) and exchange it
    between the 0 and 1 branches of the next axis, the target.  State by
    state, since tensordot's rounding depends on how many columns it gets."""

    fwd: tuple[int, ...]
    vec: np.ndarray

    def __call__(self, psi: np.ndarray) -> None:
        for state in psi:
            view = state.transpose(self.fwd)
            block = view.reshape(len(self.vec), 2, -1)
            overlap = np.tensordot(self.vec.conj(), block, axes=(0, 0))  # shape (2, rest)
            proj = self.vec[:, None, None] * overlap[None, :, :]
            view[...] = (block - proj + proj[:, ::-1, :]).reshape(view.shape)


def _wires_first(wires: Sequence[int], axes: Sequence[int]) -> tuple[int, ...]:
    """Transpose order of a view whose axes are the qubits `axes`: the
    positions of `wires` first, then the remaining positions in order."""
    axes = list(axes)
    rest = [i for i, q in enumerate(axes) if q not in wires]
    return tuple(axes.index(w) for w in wires) + tuple(rest)


def compile_gate(g: Gate, m: int) -> _ControlledMatrix | _GraphFlip:
    """The ready-to-run op for one gate on m-qubit states.  An op acts in
    place on a batch of B amplitude vectors viewed as (B,) + (2,)*m, one
    C-contiguous state per index of the first axis.

    The gate is not validated here: callers check wiring and unitarity
    once per job, before compiling.
    """
    if g.kind == "GraphProjX":
        vec = g.graph.state_vector()
        if g.extra_zero is not None:
            vec = np.kron(vec, np.array([1.0, 0.0], dtype=complex))
        # Canonical wire order: register, forced-zero qubit, target.
        return _GraphFlip(_wires_first(g.wires, range(m)), vec)
    controls, targets = g.controls, g.qubits
    bits = g.polarities if g.kind == "MCX" else (1,) * len(controls)
    if g.kind in FIXED_1Q:
        mat = FIXED_1Q[g.kind]
    elif g.kind == "RZ":
        mat = rz_matrix(g.theta)
    elif g.kind in ("U1Q", "CU"):
        mat = g.matrix
    elif g.kind == "CZ":
        mat, controls, bits, targets = FIXED_1Q["Z"], g.qubits[:1], (1,), g.qubits[1:]
    elif g.kind in ("CNOT", "MCX"):
        mat = FIXED_1Q["X"]
    else:
        raise ContractError(f"no kernel for gate kind {g.kind!r}")
    fire = dict(zip(controls, bits))
    sel = (slice(None),) + tuple(fire.get(q, slice(None)) for q in range(m))
    free = [q for q in range(m) if q not in fire]
    fwd = (0,) + tuple(1 + i for i in _wires_first(targets, free))
    return _ControlledMatrix(sel, fwd, mat)


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
    m = state.num_qubits
    # The op writes in place, and PureState shares the caller's array.
    amps = state.amplitudes.copy()
    compile_gate(g, m)(amps.reshape((1,) + (2,) * m))
    return PureState(m, amps)


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
    """Fold rows of 2^m probabilities onto the listed qubits, into rows of
    2^k weights; one bincount adds each row in index order, as if alone."""
    p = p.reshape(-1, 1 << m)
    k = len(qubits)
    idx = gather_bits(np.arange(1 << m, dtype=np.int64), qubits, m)
    keys = (np.arange(len(p), dtype=np.int64)[:, None] << k) + idx
    return np.bincount(keys.ravel(), weights=p.ravel(), minlength=len(p) << k).reshape(-1, 1 << k)


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
    weights = _outcome_weights(p, state.num_qubits, qubits)[0]
    return OutcomeDistribution(qubits, np.maximum(weights, 0.0))


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ContractError("states live on different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
