"""Circuit gadgets: graph-state distillation, trace-estimation circuits,
and compilers that reduce postselected measurement patterns to
one-clean-qubit circuits.

The distillation gadget flips the clean qubit exactly on the graph-state
component of the register.  Run on the standard input and postselected on
the clean qubit reading 1, it leaves the register in the graph state with
probability 2^-n.  The two compilers wrap that gadget around a measurement
pattern on a cluster: one measures the clean qubit plus the whole register,
the other adds an ancilla that collects the AND of the non-output readouts
so only three qubits are ever measured, two of them postselected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import (
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
    _graph_from_obj,
    _index_field,
    _json_text,
    _loads,
    _number_field,
    _small_matrix,
    cu,
    cz,
    h,
    mcx,
    sdg,
    u1q,
)
from .errors import ContractError, ParseError, ValidationError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cluster and graph states

def cluster_unitary(g: GraphSpec, wires: Sequence[int] | None = None) -> list[Gate]:
    """Preparation circuit for the graph state: H on every vertex, then CZ
    on every edge.  `wires` maps vertex i to a circuit qubit (defaults to
    the identity map)."""
    wires = list(range(g.num_vertices)) if wires is None else [int(q) for q in wires]
    if len(wires) != g.num_vertices:
        raise ContractError(f"{len(wires)} wires for {g.num_vertices} vertices")
    gates = [h(wires[v]) for v in range(g.num_vertices)]
    gates += [cz(wires[a], wires[b]) for a, b in g.edges]
    return gates


def cluster_unitary_inverse(g: GraphSpec, wires: Sequence[int] | None = None) -> list[Gate]:
    return [gate.inverse() for gate in reversed(cluster_unitary(g, wires))]


# ---------------------------------------------------------------------------
# distillation gadgets

def build_W(g: GraphSpec, clean: int, register: Sequence[int]) -> list[Gate]:
    """Gate sequence flipping `clean` exactly on the graph-state component
    of `register`: un-prepare the graph state, fire an all-zero-polarity
    multi-controlled X at the clean qubit, re-prepare."""
    register = [int(q) for q in register]
    if len(register) != g.num_vertices:
        raise ContractError(f"{len(register)} register qubits for {g.num_vertices} vertices")
    if clean in register:
        raise ContractError("clean qubit cannot sit inside the register")
    gates = cluster_unitary_inverse(g, register)
    gates.append(mcx(register, (0,) * len(register), clean))
    gates += cluster_unitary(g, register)
    return gates


def build_W_prime(
    g: GraphSpec, clean: int, ancilla: int, register: Sequence[int]
) -> list[Gate]:
    """Like build_W but the flip additionally requires `ancilla` in |0>,
    so postselecting the clean qubit on 1 pins the ancilla as well."""
    register = [int(q) for q in register]
    if len(register) != g.num_vertices:
        raise ContractError(f"{len(register)} register qubits for {g.num_vertices} vertices")
    if len({clean, ancilla} | set(register)) != 2 + len(register):
        raise ContractError("clean, ancilla and register qubits must be distinct")
    gates = cluster_unitary_inverse(g, register)
    gates.append(mcx([ancilla] + register, (0,) * (1 + len(register)), clean))
    gates += cluster_unitary(g, register)
    return gates


# ---------------------------------------------------------------------------
# controlled forms

def controlled_gates(g: Gate, control: int) -> list[Gate]:
    """Gates realizing g conditioned on `control` being |1>."""
    if control in g.wires:
        raise ContractError("control wire overlaps the gate")
    kind = g.kind
    if kind in ("H", "X", "Y", "Z", "S", "Sdg", "T", "Tdg", "RZ", "U1Q", "CZ"):
        small, wires = _small_matrix(g)
        return [cu(small, wires, (control,))]
    if kind == "CNOT":
        return [mcx((control,) + g.controls, (1, 1), g.qubits[0])]
    if kind == "MCX":
        return [mcx((control,) + g.controls, (1,) + g.polarities, g.qubits[0])]
    if kind == "CU":
        return [cu(g.matrix, g.qubits, (control,) + g.controls)]
    if kind == "GraphProjX":
        # Unfold the projector flip and control every gate of it, so the
        # unfolding acts under the control like any other controlled gate.
        register = list(g.controls)
        zeros = register + ([] if g.extra_zero is None else [g.extra_zero])
        flip = mcx(zeros, (0,) * len(zeros), g.qubits[0])
        unfolded = cluster_unitary_inverse(g.graph, register) + [flip]
        unfolded += cluster_unitary(g.graph, register)
        return [cv for v in unfolded for cv in controlled_gates(v, control)]
    raise ContractError(f"cannot control gate kind {kind!r}")


# ---------------------------------------------------------------------------
# trace-estimation circuit

def build_trace_circuit(u: Circuit, part: str = "real") -> Dqc1Circuit:
    """One-clean-qubit circuit whose clean-qubit statistics encode the
    normalized trace of `u`.

    The clean qubit (wire 0) gets an H, controls every gate of `u` shifted
    onto wires 1..n, then (for the imaginary part) picks up a -pi/2 phase,
    and gets a final H.  Pr(clean reads 0) = 1/2 + part(tr u)/2^{n+1}.
    """
    if part not in ("real", "imaginary"):
        raise ContractError(f"part must be 'real' or 'imaginary', got {part!r}")
    gates: list[Gate] = [h(0)]
    for g in u.gates:
        gates += controlled_gates(g.shifted(1), 0)
    if part == "imaginary":
        gates.append(sdg(0))
    gates.append(h(0))
    return Dqc1Circuit(
        Circuit(u.total_qubits + 1, gates), clean_qubits=(0,), measured=(0,)
    )


# ---------------------------------------------------------------------------
# measurement patterns and their compilers

@dataclass(frozen=True, eq=False)
class MbqcPattern:
    """Postselected measurement pattern on a graph state.

    Every non-output vertex carries a measurement angle theta; the basis is
    {|0> + e^{-i theta}|1>, |0> - e^{-i theta}|1>} (normalized), and the
    first vector is the branch the compilers postselect.
    """

    graph: GraphSpec
    angles: dict[int, float]
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", {int(v): float(a) for v, a in self.angles.items()})
        object.__setattr__(self, "outputs", tuple(int(v) for v in self.outputs))
        n = self.graph.num_vertices
        if not self.outputs:
            raise ContractError("pattern needs at least one output vertex")
        if len(set(self.outputs)) != len(self.outputs):
            raise ContractError("output vertices must be distinct")
        if any(not 0 <= v < n for v in self.outputs):
            raise ContractError(f"output vertices out of range: {self.outputs}")
        # Counted rather than listed: n comes from the document and may be huge.
        outputs = set(self.outputs)
        if len(self.angles) != n - len(outputs) or any(
            not 0 <= v < n or v in outputs for v in self.angles
        ):
            raise ContractError(
                f"angles must cover exactly the {n - len(outputs)} non-output vertices"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MbqcPattern):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.angles == other.angles
            and self.outputs == other.outputs
        )

    @property
    def non_outputs(self) -> tuple[int, ...]:
        return tuple(sorted(self.angles))


@dataclass(frozen=True, eq=False)
class CompiledReduction:
    """A compiled pattern: the circuit, its postselection, and where the
    pattern's output vertices ended up."""

    circuit: Dqc1Circuit
    postselect: dict[int, int]
    output_qubits: tuple[int, ...]
    target: MbqcPattern


def measurement_alignment(theta: float) -> np.ndarray:
    """Single-qubit unitary sending the postselected basis vector
    (|0> + e^{-i theta}|1>)/sqrt(2) to |1>, its complement to |0>."""
    phase = cmath.exp(1j * theta)
    return np.array(
        [[_INV_SQRT2, -_INV_SQRT2 * phase], [_INV_SQRT2, _INV_SQRT2 * phase]], dtype=complex
    )


def pattern_from_rotations(angles: Sequence[float]) -> MbqcPattern:
    """Linear-cluster pattern implementing a chain of H * diag(1, e^{i theta})
    rotations on input |+>, with the last vertex as output."""
    angles = [float(a) for a in angles]
    n = len(angles) + 1
    edges = tuple((j, j + 1) for j in range(n - 1))
    return MbqcPattern(GraphSpec(n, edges), dict(enumerate(angles)), (n - 1,))


def linear_pattern_target_probs(p: MbqcPattern) -> dict[str, float]:
    """Output distribution of a linear pattern's postselected branch,
    computed directly from 2x2 matrix products."""
    n = p.graph.num_vertices
    chain = tuple((j, j + 1) for j in range(n - 1))
    if p.graph.edges != chain or p.outputs != (n - 1,):
        raise ContractError("target semantics implemented for linear chains only")
    vec = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)
    had = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
    for v in range(n - 1):
        rot = np.array([[1.0, 0.0], [0.0, cmath.exp(1j * p.angles[v])]], dtype=complex)
        vec = had @ (rot @ vec)
    return {"0": float(abs(vec[0]) ** 2), "1": float(abs(vec[1]) ** 2)}


def compile_n_plus_1(p: MbqcPattern) -> CompiledReduction:
    """Compile a pattern into a circuit measuring the clean qubit plus the
    whole register.

    Wire layout: clean = 0, vertex v = qubit v + 1.  Postselect the clean
    qubit and every non-output register qubit on 1; conditioned on that,
    the output qubits carry the pattern's postselected-branch distribution.
    """
    n = p.graph.num_vertices
    register = list(range(1, n + 1))
    gates = build_W(p.graph, 0, register)
    for v in p.non_outputs:
        gates.append(u1q(measurement_alignment(p.angles[v]), register[v]))
    postselect = {0: 1}
    postselect.update({register[v]: 1 for v in p.non_outputs})
    dc = Dqc1Circuit(
        Circuit(n + 1, gates),
        clean_qubits=(0,),
        measured=tuple(range(n + 1)),
        postselect=postselect,
    )
    outputs = tuple(register[v] for v in p.outputs)
    return CompiledReduction(dc, postselect, outputs, p)


def compile_three(p: MbqcPattern) -> CompiledReduction:
    """Compile a single-output pattern into a circuit measuring exactly
    three qubits, two of them postselected.

    Wire layout: clean = 0, ancilla = 1, vertex v = qubit v + 2.  The
    ancilla-aware distillation gadget pins the ancilla to |0> on the
    postselected branch; an all-one-polarity multi-controlled X then folds
    every non-output readout into the ancilla, so postselecting clean = 1
    and ancilla = 1 reproduces the full postselection while only the
    clean qubit, the ancilla and the output qubit are ever measured.
    """
    if len(p.outputs) != 1:
        raise ContractError("the three-measurement compiler needs exactly one output vertex")
    n = p.graph.num_vertices
    register = list(range(2, n + 2))
    gates = build_W_prime(p.graph, 0, 1, register)
    for v in p.non_outputs:
        gates.append(u1q(measurement_alignment(p.angles[v]), register[v]))
    non_output_qubits = [register[v] for v in p.non_outputs]
    gates.append(mcx(non_output_qubits, (1,) * len(non_output_qubits), 1))
    output_qubit = register[p.outputs[0]]
    postselect = {0: 1, 1: 1}
    dc = Dqc1Circuit(
        Circuit(n + 2, gates),
        clean_qubits=(0,),
        measured=(0, 1, output_qubit),
        postselect=postselect,
    )
    return CompiledReduction(dc, postselect, (output_qubit,), p)


# ---------------------------------------------------------------------------
# pattern file format

def serialize_pattern(p: MbqcPattern) -> str:
    graph = {"n": p.graph.num_vertices, "edges": [list(e) for e in p.graph.edges]}
    angles = {str(v): a for v, a in sorted(p.angles.items())}
    return _json_text({"graph": graph, "angles": angles, "outputs": list(p.outputs)}) + "\n"


def parse_pattern(text: str) -> MbqcPattern:
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", "$")
    for field in ("graph", "angles", "outputs"):
        if field not in obj:
            raise ParseError(f"missing required field {field!r}", "$")
    graph = _graph_from_obj(obj["graph"], "$.graph")
    if not isinstance(obj["angles"], dict):
        raise ParseError("angles must map vertex indices to radians", "$.angles")
    angles = {}
    for key, val in obj["angles"].items():
        message = f"bad angle entry {key!r}"
        v = _index_field(key, message, "$.angles")
        if v in angles:
            raise ParseError(f"vertex {v} assigned twice", "$.angles")
        angles[v] = _number_field(val, message, "$.angles")
    if not isinstance(obj["outputs"], list) or not all(
        type(v) is int for v in obj["outputs"]
    ):
        raise ParseError("outputs must be an array of vertex indices", "$.outputs")
    try:
        return MbqcPattern(graph, angles, tuple(obj["outputs"]))
    except (ContractError, ValidationError) as err:
        raise ParseError(str(err), "$") from None
