"""Gate and circuit intermediate representation, the dense-matrix oracle,
and the JSON circuit file format.

Wire conventions: qubit 0 is the topmost wire and the most significant bit
of every basis index.  A gate's canonical wire order is controls first,
then targets; the projector register of GraphProjX counts as controls,
with the optional forced-zero qubit listed after the register.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .bits import scatter_bits
from .config import DENSITY_CAP, UNITARITY_TOL
from .errors import (
    ContractError,
    Dqc1Error,
    ParseError,
    ResourceError,
    UnitarityError,
    ValidationError,
    WiringError,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

FIXED_1Q: dict[str, np.ndarray] = {
    "H": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "Tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
}

_CZ4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

GATE_KINDS = frozenset(FIXED_1Q) | {"RZ", "U1Q", "CZ", "CNOT", "CU", "MCX", "GraphProjX"}


def rz_matrix(theta: float) -> np.ndarray:
    """Z rotation diag(e^{-i theta/2}, e^{i theta/2})."""
    return np.array(
        [[cmath.exp(-0.5j * theta), 0.0], [0.0, cmath.exp(0.5j * theta)]], dtype=complex
    )


def check_unitary(mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise UnitarityError(f"matrix of shape {mat.shape} is not square")
    with np.errstate(all="ignore"):  # non-finite entries give a NaN residual
        resid = abs(mat @ mat.conj().T - np.eye(len(mat))).max()
    if not resid <= UNITARITY_TOL:
        raise UnitarityError(f"unitarity residual {resid:.3e} exceeds {UNITARITY_TOL:.1e}")


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 0..num_vertices-1.

    Edges are stored with endpoints sorted; self loops and duplicates are
    rejected.  state_vector() gives the amplitudes of the graph state built
    by one H per vertex followed by one CZ per edge.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.num_vertices, int) or self.num_vertices < 1:
            raise ValidationError(f"graph needs at least one vertex, got {self.num_vertices}")
        canon = []
        seen = set()
        for edge in self.edges:
            try:
                a, b = int(edge[0]), int(edge[1])
            except (TypeError, ValueError, IndexError):
                raise ValidationError(f"malformed edge {edge!r}") from None
            if a == b:
                raise ValidationError(f"self loop at vertex {a}")
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise ValidationError(f"edge {edge!r} leaves vertex range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(canon))

    def state_vector(self) -> np.ndarray:
        # Closed form: amplitude(x) = 2^{-n/2} (-1)^{#edges with both endpoints set}.
        n = self.num_vertices
        x = np.arange(1 << n, dtype=np.int64)
        sign = np.ones(1 << n)
        for a, b in self.edges:
            both = ((x >> (n - 1 - a)) & 1) & ((x >> (n - 1 - b)) & 1)
            sign[both == 1] *= -1.0
        return sign.astype(complex) / math.sqrt(1 << n)


# Required target count per kind; CU is the one kind with a flexible count.
_TARGETS = {kind: 1 for kind in FIXED_1Q}
_TARGETS.update({"RZ": 1, "U1Q": 1, "CZ": 2, "CNOT": 1, "MCX": 1, "GraphProjX": 1})


@dataclass(frozen=True, eq=False, init=False)
class Gate:
    """One gate with its wiring.

    qubits are the targets.  controls carries the control lines of CNOT,
    CU and MCX, and the projector register of GraphProjX.  polarities gives
    the firing bit per MCX control.  matrix holds the explicit unitary of
    U1Q and CU; theta the RZ angle.  extra_zero is the optional qubit that
    GraphProjX additionally requires to be |0> inside its projector.
    wires lists the controls, extra_zero and the targets, in that order.
    """

    kind: str
    qubits: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    theta: float | None = None
    matrix: np.ndarray | None = None
    graph: GraphSpec | None = None
    extra_zero: int | None = None
    wires: tuple[int, ...] = field(init=False, repr=False)

    def __init__(self, kind, qubits, controls=(), polarities=(), theta=None, matrix=None,
                 graph=None, extra_zero=None):
        # Normalised, set in one dict update and checked in one pass.
        if kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {kind!r}")
        qubits, controls = tuple(map(int, qubits)), tuple(map(int, controls))
        extra = () if extra_zero is None else (int(extra_zero),)
        wires = controls + extra + qubits
        vars(self).update(
            kind=kind, qubits=qubits, controls=controls, polarities=tuple(map(int, polarities)),
            theta=theta, matrix=None if matrix is None else np.asarray(matrix, dtype=complex),
            graph=graph, extra_zero=extra[0] if extra else None, wires=wires,
        )
        self._check_shape()
        if min(wires) < 0:  # _check_shape saw at least one target
            raise WiringError(f"{kind}: negative qubit index in {wires}")
        if len(set(wires)) != len(wires):
            raise WiringError(f"{kind}: overlapping qubit references {wires}")

    def _check_shape(self):
        kind = self.kind
        if kind == "CU":
            if not self.qubits:
                raise ValidationError("CU needs at least one target")
            if not self.controls:
                raise ValidationError("CU needs at least one control")
        else:
            if len(self.qubits) != _TARGETS[kind]:
                raise ValidationError(
                    f"{kind} takes {_TARGETS[kind]} target(s), got {len(self.qubits)}"
                )
            # MCX takes any number of controls, zero included.
            expected_controls = {"CNOT": 1, "MCX": len(self.controls)}.get(kind, 0)
            if kind == "GraphProjX":
                if self.graph is None:
                    raise ValidationError("GraphProjX needs a graph")
                expected_controls = self.graph.num_vertices
            if len(self.controls) != expected_controls:
                raise ValidationError(
                    f"{kind} takes {expected_controls} control(s), got {len(self.controls)}"
                )
        if kind == "MCX":
            if len(self.polarities) != len(self.controls):
                raise ValidationError("MCX polarity list must match its control list")
            if set(self.polarities) - {0, 1}:
                raise ValidationError("MCX polarities must be 0 or 1")
        elif self.polarities:
            raise ValidationError(f"{kind} takes no polarities")
        if kind == "RZ":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValidationError("RZ needs a finite angle")
        elif self.theta is not None:
            raise ValidationError(f"{kind} takes no angle")
        if kind in ("U1Q", "CU"):
            if self.matrix is None:
                raise ValidationError(f"{kind} needs an explicit matrix")
            dim = 1 << len(self.qubits)
            if self.matrix.shape != (dim, dim):
                raise ValidationError(
                    f"{kind} matrix shape {self.matrix.shape} does not fit {len(self.qubits)} target(s)"
                )
        elif self.matrix is not None:
            raise ValidationError(f"{kind} takes no matrix")
        if kind != "GraphProjX":
            if self.graph is not None:
                raise ValidationError(f"{kind} takes no graph")
            if self.extra_zero is not None:
                raise ValidationError(f"{kind} takes no extra_zero qubit")

    def remapped(self, mapping: Mapping[int, int] | Callable[[int], int]) -> "Gate":
        f = mapping if callable(mapping) else {int(k): int(v) for k, v in mapping.items()}.__getitem__
        return replace(
            self,
            qubits=tuple(f(q) for q in self.qubits),
            controls=tuple(f(q) for q in self.controls),
            extra_zero=None if self.extra_zero is None else f(self.extra_zero),
        )

    def shifted(self, offset: int) -> "Gate":
        return self.remapped(lambda q: q + offset)

    def inverse(self) -> "Gate":
        dagger = {"S": "Sdg", "Sdg": "S", "T": "Tdg", "Tdg": "T"}.get(self.kind)
        if dagger:
            return replace(self, kind=dagger)
        if self.kind == "RZ":
            return replace(self, theta=-self.theta)
        if self.kind in ("U1Q", "CU"):
            return replace(self, matrix=self.matrix.conj().T)
        # H, X, Y, Z, CZ, CNOT, MCX and GraphProjX are involutions.
        return self

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        fields = ("kind", "qubits", "controls", "polarities", "theta", "graph", "extra_zero")
        if any(getattr(self, f) != getattr(other, f) for f in fields):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)


# ---------------------------------------------------------------------------
# gate factories

def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def sdg(q: int) -> Gate:
    return Gate("Sdg", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def tdg(q: int) -> Gate:
    return Gate("Tdg", (q,))


def rz(theta: float, q: int) -> Gate:
    return Gate("RZ", (q,), theta=float(theta))


def u1q(matrix: np.ndarray, q: int) -> Gate:
    return Gate("U1Q", (q,), matrix=matrix)


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (target,), controls=(control,))


def cu(matrix: np.ndarray, targets: Sequence[int], controls: Sequence[int]) -> Gate:
    return Gate("CU", tuple(targets), controls=tuple(controls), matrix=matrix)


def mcx(controls: Sequence[int], polarities: Sequence[int], target: int) -> Gate:
    return Gate("MCX", (target,), controls=tuple(controls), polarities=tuple(polarities))


def graph_proj_x(
    graph: GraphSpec, register: Sequence[int], target: int, extra_zero: int | None = None
) -> Gate:
    return Gate(
        "GraphProjX", (target,), controls=tuple(register), graph=graph, extra_zero=extra_zero
    )


# ---------------------------------------------------------------------------
# circuits

def _raise_problems(problems: list[Dqc1Error]) -> None:
    if problems:
        raise ValidationError("; ".join(str(p) for p in problems), problems=problems)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list on a fixed number of wires.

    Checked once, when built: the width is at least one, every gate wire
    lies inside it and every explicit matrix is unitary, each distinct
    matrix object checked once.  Otherwise a ValidationError carries each
    violation in `problems`.
    """

    total_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.total_qubits
        if n < 1:
            _raise_problems([ValidationError(f"total_qubits must be positive, got {n}")])
        problems: list[Dqc1Error] = []
        checked: set[int] = set()  # ids of the matrices checked so far
        for i, g in enumerate(self.gates):
            if max(g.wires) >= n:  # a Gate has no negative wires
                bad = [w for w in g.wires if w >= n]
                problems.append(
                    WiringError(f"gate {i} ({g.kind}) references out-of-range qubits {bad}")
                )
            # Gates may share a matrix, as a graph projector's unfolding does.
            if g.matrix is not None and id(g.matrix) not in checked:
                checked.add(id(g.matrix))
                try:
                    check_unitary(g.matrix)
                except UnitarityError as err:
                    problems.append(UnitarityError(f"gate {i} ({g.kind}): {err}"))
        _raise_problems(problems)

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.total_qubits == other.total_qubits and self.gates == other.gates


@dataclass(frozen=True, eq=False)
class Dqc1Circuit:
    """A circuit plus the one-clean-qubit run context.

    clean_qubits start in |0>, every other qubit starts maximally mixed.
    measured lists the terminally measured qubits in readout order.
    postselect optionally fixes some measured qubits to required bits.
    Checked once, when built, like the circuit itself: both lists are
    non-empty, distinct and in range, and postselection fixes measured
    qubits to 0 or 1.
    """

    circuit: Circuit
    clean_qubits: tuple[int, ...]
    measured: tuple[int, ...]
    postselect: dict[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "clean_qubits", tuple(int(q) for q in self.clean_qubits))
        object.__setattr__(self, "measured", tuple(int(q) for q in self.measured))
        if self.postselect is not None:
            object.__setattr__(
                self, "postselect", {int(q): int(b) for q, b in self.postselect.items()}
            )
        n = self.total_qubits
        problems: list[Dqc1Error] = []
        for name, qubits in (("clean", self.clean_qubits), ("measured", self.measured)):
            if not qubits:
                problems.append(ContractError(f"{name} list is empty"))
            if len(set(qubits)) != len(qubits):
                problems.append(ContractError(f"{name} list has duplicates: {qubits}"))
            bad = [q for q in qubits if not 0 <= q < n]
            if bad:
                problems.append(ContractError(f"{name} qubits out of range: {bad}"))
        for q, b in (self.postselect or {}).items():
            if q not in self.measured:
                problems.append(ContractError(f"postselect on non-measured qubit {q}"))
            if b not in (0, 1):
                problems.append(ContractError(f"postselect bit for qubit {q} must be 0 or 1"))
        _raise_problems(problems)

    @property
    def total_qubits(self) -> int:
        return self.circuit.total_qubits

    @property
    def gates(self) -> tuple[Gate, ...]:
        return self.circuit.gates

    @property
    def mixed_qubits(self) -> tuple[int, ...]:
        clean = set(self.clean_qubits)
        return tuple(q for q in range(self.total_qubits) if q not in clean)

    def __eq__(self, other):
        if not isinstance(other, Dqc1Circuit):
            return NotImplemented
        mine = (self.circuit, self.clean_qubits, self.measured, self.postselect)
        return mine == (other.circuit, other.clean_qubits, other.measured, other.postselect)


# ---------------------------------------------------------------------------
# dense-matrix oracle

def _embed(small: np.ndarray, wires: Sequence[int], num_qubits: int) -> np.ndarray:
    """Place a 2^k x 2^k operator on the listed wires of a num_qubits space.

    wires[0] is the most significant bit of the operator's own index.
    Works for any matrix, not only unitaries, so projectors embed too.
    """
    m = num_qubits
    rest = [q for q in range(m) if q not in wires]
    base = scatter_bits(np.arange(1 << len(rest)), rest, m)
    offs = scatter_bits(np.arange(1 << len(wires)), wires, m)
    full = np.zeros((1 << m, 1 << m), dtype=complex)
    full[(base[:, None] + offs)[:, :, None], (base[:, None] + offs)[:, None, :]] = small
    return full


def _small_matrix(g: Gate) -> tuple[np.ndarray, tuple[int, ...]]:
    """The defining matrix of a non-composite gate and its wire order."""
    if g.kind in FIXED_1Q:
        return FIXED_1Q[g.kind], g.qubits
    if g.kind == "RZ":
        return rz_matrix(g.theta), g.qubits
    if g.kind == "U1Q":
        return g.matrix, g.qubits
    if g.kind == "CZ":
        return _CZ4, g.qubits
    if g.kind == "CNOT":
        return _CNOT4, g.controls + g.qubits
    if g.kind == "CU":
        nt = len(g.qubits)
        dim = 1 << (len(g.controls) + nt)
        small = np.eye(dim, dtype=complex)
        small[-(1 << nt):, -(1 << nt):] = g.matrix
        return small, g.controls + g.qubits
    raise ContractError(f"{g.kind} has no single defining matrix")


def _dense_dim(m: int) -> int:
    """The dimension 2^m of a dense matrix over m qubits; more than
    DENSITY_CAP qubits raise ResourceError before anything is allocated."""
    if m > DENSITY_CAP:
        raise ResourceError(f"{m} qubits exceed the density cap of {DENSITY_CAP}")
    return 1 << m


def gate_matrix(g: Gate, context_qubits: int) -> np.ndarray:
    """Full 2^m x 2^m unitary realizing the gate inside an m-qubit context.

    This is the dense oracle path: it never routes through the state-vector
    kernels.  The defining matrix is checked for unitarity first.
    """
    m = context_qubits
    if m < 1:
        raise ContractError("context needs at least one qubit")
    dim = _dense_dim(m)
    bad = [w for w in g.wires if not 0 <= w < m]
    if bad:
        raise WiringError(f"{g.kind} references qubits {bad} outside a {m}-qubit context")

    if g.kind == "MCX":
        j = np.arange(dim, dtype=np.int64)
        match = np.ones(dim, dtype=bool)
        for c, p in zip(g.controls, g.polarities):
            match &= ((j >> (m - 1 - c)) & 1) == p
        flipped = j ^ (1 << (m - 1 - g.qubits[0]))
        rows = np.where(match, flipped, j)
        full = np.zeros((dim, dim), dtype=complex)
        full[rows, j] = 1.0
        return full

    if g.kind == "GraphProjX":
        vec = g.graph.state_vector()
        proj_wires = g.controls
        if g.extra_zero is not None:
            vec = np.kron(vec, np.array([1.0, 0.0], dtype=complex))
            proj_wires = g.controls + (g.extra_zero,)
        proj = np.outer(vec, vec.conj())
        flip = np.kron(FIXED_1Q["X"], proj)
        full = _embed(flip, g.qubits + proj_wires, m)
        full += np.eye(dim, dtype=complex) - _embed(proj, proj_wires, m)
        return full

    small, wires = _small_matrix(g)
    check_unitary(small)
    return _embed(small, wires, m)


def circuit_matrix(c: Circuit) -> np.ndarray:
    """Product of the circuit's gate matrices, first gate applied first."""
    full = np.eye(_dense_dim(c.total_qubits), dtype=complex)
    for g in c.gates:
        full = gate_matrix(g, c.total_qubits) @ full
    return full


# ---------------------------------------------------------------------------
# file format

def _matrix_from_obj(obj: Any, loc: str) -> np.ndarray:
    """A square matrix of [re, im] pairs, each part a finite JSON number."""
    n = len(obj) if isinstance(obj, list) else 0
    square = n > 0 and all(isinstance(row, list) and len(row) == n for row in obj)
    if not square or not all(isinstance(z, list) and len(z) == 2 for row in obj for z in row):
        raise ParseError("matrix must be a square array of [re, im] pairs", loc)
    # One pass checks every part; the per-entry loop only names a bad one.
    parts = [v for row in obj for z in row for v in z]
    if not _finite_numbers(parts):
        for i, j in np.ndindex(n, n):
            for v in obj[i][j]:
                _number_field(v, "matrix entry must be a finite number", f"{loc}[{i}][{j}]")
    return np.array(parts, dtype=float).view(complex).reshape(n, n)


def _index_field(text: str, message: str, loc: str) -> int:
    """The qubit or vertex index spelled by `text`, or a ParseError.

    Only ASCII digits count: str.isdigit() also passes "²", which int()
    rejects, and int() also reads other scripts' digits such as "٣".
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message, loc)


def _finite_numbers(values) -> bool:
    """Whether every value is a finite JSON number, checked in one pass."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


def _number_field(val: Any, message: str, loc: str) -> float:
    """A JSON number as a finite float, or a ParseError.

    json accepts NaN and Infinity, and integers too large for a float;
    true and false are not numbers, though bool subclasses int."""
    if type(val) in (int, float):
        try:
            f = float(val)
        except OverflowError:
            raise ParseError(message, loc) from None
        if math.isfinite(f):
            return f
    raise ParseError(message, loc)


def _int_list(obj: Any, loc: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(type(v) is int for v in obj):
        raise ParseError("expected an array of integers", loc)
    return tuple(obj)


def _graph_from_obj(obj: Any, loc: str) -> GraphSpec:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParseError('graph must be an object with "n" and "edges"', loc)
    if type(obj["n"]) is not int:
        raise ParseError("graph vertex count must be an integer", loc + ".n")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("graph edges must be an array", loc + ".edges")
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(type(v) is int for v in e):
            message = "graph edge must be an array of two vertex indices"
            raise ParseError(message, f"{loc}.edges[{i}]")
    try:
        return GraphSpec(obj["n"], tuple(tuple(e) for e in edges))
    except Dqc1Error as err:
        raise ParseError(str(err), loc) from None


def _gate_from_obj(obj: Any, loc: str) -> Gate:
    if not isinstance(obj, dict):
        raise ParseError("gate must be an object", loc)
    kind = obj.get("g")
    if not isinstance(kind, str) or kind not in GATE_KINDS:
        raise ParseError(f"unknown gate kind {kind!r}", loc + ".g")
    kwargs: dict[str, Any] = {}
    kwargs["qubits"] = _int_list(obj.get("q", []), loc + ".q")
    if "c" in obj:
        kwargs["controls"] = _int_list(obj["c"], loc + ".c")
    if "pol" in obj:
        kwargs["polarities"] = _int_list(obj["pol"], loc + ".pol")
    if "theta" in obj:
        theta_loc = loc + ".theta"
        kwargs["theta"] = _number_field(obj["theta"], "theta must be a finite number", theta_loc)
    if "u" in obj:
        kwargs["matrix"] = _matrix_from_obj(obj["u"], loc + ".u")
    if "graph" in obj:
        kwargs["graph"] = _graph_from_obj(obj["graph"], loc + ".graph")
    if "extra_zero" in obj:
        if type(obj["extra_zero"]) is not int:
            raise ParseError("extra_zero must be an integer", loc + ".extra_zero")
        kwargs["extra_zero"] = obj["extra_zero"]
    try:
        return Gate(kind, **kwargs)
    except Dqc1Error as err:
        raise ParseError(str(err), loc) from None


def _gates_from_obj(obj: Any, loc: str) -> tuple[Gate, ...]:
    if not isinstance(obj, list):
        raise ParseError("gates must be an array", loc)
    return tuple(_gate_from_obj(g, f"{loc}[{i}]") for i, g in enumerate(obj))


def _layout(items: Sequence[str], pad: str, brackets: str = "[]") -> str:
    """Rendered items as one JSON array, or object with brackets "{}",
    opened on a line indented by `pad`: the bytes json.dumps(indent=2)
    writes there."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _json_text(obj: Any, pad: str = "") -> str:
    """obj opened on a line indented by `pad`, byte for byte as
    json.dumps(obj, indent=2, sort_keys=True) writes it there, for dicts
    with string keys, lists, tuples, str, int, float, bool and None."""
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, dict):
        inner, key = pad + "  ", json.encoder.encode_basestring_ascii
        return _layout([f"{key(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)], pad, "{}")
    if isinstance(obj, (list, tuple)):
        return _layout([_json_text(v, pad + "  ") for v in obj], pad)
    return json.dumps(obj)  # a scalar: the same bytes with or without indent


def _ints(values: Sequence[int], pad: str) -> str:
    return _layout(list(map(str, values)), pad)


def _gate_text(g: Gate, pad: str) -> str:
    """One gate object opened on a line indented by `pad`, as
    json.dumps(indent=2, sort_keys=True) writes it: keys in sorted order,
    floats as float.__repr__, the kind as encode_basestring_ascii."""
    p = pad + "  "
    items = []
    if g.controls:
        items.append('"c": ' + _ints(g.controls, p))
    if g.extra_zero is not None:
        items.append(f'"extra_zero": {g.extra_zero}')
    items.append('"g": ' + json.encoder.encode_basestring_ascii(g.kind))
    if g.graph is not None:
        graph = {"edges": [list(e) for e in g.graph.edges], "n": g.graph.num_vertices}
        items.append('"graph": ' + _json_text(graph, p))
    if g.polarities:
        items.append('"pol": ' + _ints(g.polarities, p))
    items.append('"q": ' + _ints(g.qubits, p))
    if g.theta is not None:
        items.append('"theta": ' + repr(float(g.theta)))
    if g.matrix is not None:
        pair = "[\n{0}  {{!r}},\n{0}  {{!r}}\n{0}]".format(p + "    ")
        rows = zip(g.matrix.real.tolist(), g.matrix.imag.tolist())
        rows = [_layout([pair.format(*z) for z in zip(*row)], p + "  ") for row in rows]
        items.append('"u": ' + _layout(rows, p))
    return _layout(items, pad, "{}")


def _gates_text(gates: Sequence[Gate]) -> str:
    return _layout([_gate_text(g, "    ") for g in gates], "  ")


def serialize_circuit(dc: Dqc1Circuit) -> str:
    """The circuit document, byte for byte json.dumps(indent=2,
    sort_keys=True) plus one newline."""
    items = [
        '"clean_qubits": ' + _ints(dc.clean_qubits, "  "),
        '"gates": ' + _gates_text(dc.gates),
        '"measure": ' + _ints(dc.measured, "  "),
    ]
    if dc.postselect:
        items.append('"postselect": ' + _json_text({str(q): b for q, b in dc.postselect.items()}, "  "))
    items.append(f'"total_qubits": {dc.total_qubits}')
    return _layout(items, "", "{}") + "\n"


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, f"line {err.lineno} column {err.colno}") from None
    except (ValueError, RecursionError) as err:  # over-long integers, deep nesting
        raise ParseError(str(err), "$") from None


def _width_field(obj: dict) -> int:
    if type(obj["total_qubits"]) is not int or obj["total_qubits"] < 1:
        raise ParseError("total_qubits must be a positive integer", "$.total_qubits")
    return obj["total_qubits"]


def parse_circuit(text: str) -> Dqc1Circuit:
    """Parse a circuit document into a checked Dqc1Circuit; see
    serialize_circuit for the shape."""
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", "$")
    for field in ("total_qubits", "clean_qubits", "gates", "measure"):
        if field not in obj:
            raise ParseError(f"missing required field {field!r}", "$")
    total = _width_field(obj)
    gates = _gates_from_obj(obj["gates"], "$.gates")
    clean = _int_list(obj["clean_qubits"], "$.clean_qubits")
    measured = _int_list(obj["measure"], "$.measure")
    postselect = None
    if "postselect" in obj and obj["postselect"] is not None:
        raw = obj["postselect"]
        if not isinstance(raw, dict):
            raise ParseError("postselect must be an object", "$.postselect")
        postselect = {}
        for key, bit in raw.items():
            q = _index_field(key, f"postselect key {key!r} is not a qubit index", "$.postselect")
            if type(bit) is not int or bit not in (0, 1):
                raise ParseError(f"postselect bit for qubit {key} must be 0 or 1", "$.postselect")
            if q in postselect:
                raise ParseError(f"qubit {q} assigned twice", "$.postselect")
            postselect[q] = bit
    return Dqc1Circuit(Circuit(total, gates), clean, measured, postselect)


def parse_unitary(text: str) -> Circuit:
    """Parse a bare circuit document: total_qubits plus gates, nothing else used."""
    obj = _loads(text)
    if not isinstance(obj, dict) or "total_qubits" not in obj or "gates" not in obj:
        raise ParseError('expected an object with "total_qubits" and "gates"', "$")
    return Circuit(_width_field(obj), _gates_from_obj(obj["gates"], "$.gates"))


def serialize_unitary(c: Circuit) -> str:
    """The bare circuit document, laid out like serialize_circuit's."""
    items = ['"gates": ' + _gates_text(c.gates), f'"total_qubits": {c.total_qubits}']
    return _layout(items, "", "{}") + "\n"
