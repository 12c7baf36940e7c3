"""The writers against json.dumps(indent=2, sort_keys=True).

serialize_circuit and serialize_unitary lay their documents out by hand,
and _json_text writes every other document the package emits.
Their bytes must be those of json.dumps on the document object, for every
gate kind and for floats json writes in unusual ways (-0.0, subnormals,
1e300-scale parts).  A writer sees only the fields of what it writes, so
circuits here are also built unchecked: no unitary holds a 1e300 entry.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqc1sim.circuits import (
    FIXED_1Q,
    GATE_KINDS,
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
    _json_text,
    serialize_circuit,
    serialize_unitary,
)
from dqc1sim.randcirc import random_circuit, random_dqc1

SPECIAL_PARTS = (-0.0, 0.0, 5e-324, 2.2e-308 / 3, 1e300, -3.7e300, 1.0 / 3.0)


def _gate_obj(g: Gate) -> dict:
    """The document object of one gate: the shape the writer lays out."""
    obj = {"g": g.kind, "q": list(g.qubits)}
    if g.controls:
        obj["c"] = list(g.controls)
    if g.polarities:
        obj["pol"] = list(g.polarities)
    if g.theta is not None:
        obj["theta"] = float(g.theta)
    if g.matrix is not None:
        obj["u"] = [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix]
    if g.graph is not None:
        obj["graph"] = {"n": g.graph.num_vertices, "edges": [list(e) for e in g.graph.edges]}
    if g.extra_zero is not None:
        obj["extra_zero"] = g.extra_zero
    return obj


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _circuit_doc(dc: Dqc1Circuit) -> str:
    obj = {
        "total_qubits": dc.total_qubits,
        "clean_qubits": list(dc.clean_qubits),
        "gates": [_gate_obj(g) for g in dc.gates],
        "measure": list(dc.measured),
    }
    if dc.postselect:
        obj["postselect"] = {str(q): b for q, b in dc.postselect.items()}
    return _dumps(obj)


def _unitary_doc(c: Circuit) -> str:
    return _dumps({"total_qubits": c.total_qubits, "gates": [_gate_obj(g) for g in c.gates]})


def _unchecked(cls, **fields):
    """An instance holding `fields` as given, without its unitarity and
    range checks."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


parts = st.one_of(
    st.sampled_from(SPECIAL_PARTS), st.floats(allow_nan=False, allow_infinity=False)
)


def matrices(dim: int):
    return st.lists(parts, min_size=2 * dim * dim, max_size=2 * dim * dim).map(
        lambda xs: np.array(xs, dtype=float).view(complex).reshape(dim, dim)
    )


@st.composite
def gates(draw, n: int) -> Gate:
    """A gate of any kind on some of n >= 3 wires."""
    w = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(sorted(GATE_KINDS)))
    if kind in FIXED_1Q:
        return Gate(kind, (w[0],))
    if kind == "RZ":
        theta = draw(st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False)))
        return Gate("RZ", (w[0],), theta=theta)
    if kind == "U1Q":
        return Gate("U1Q", (w[0],), matrix=draw(matrices(2)))
    if kind == "CZ":
        return Gate("CZ", (w[0], w[1]))
    if kind == "CNOT":
        return Gate("CNOT", (w[1],), controls=(w[0],))
    if kind == "CU":
        t = draw(st.integers(1, 2))
        c = draw(st.integers(1, n - t))
        return Gate("CU", w[:t], controls=w[t : t + c], matrix=draw(matrices(1 << t)))
    if kind == "MCX":
        c = draw(st.integers(0, n - 1))
        pol = draw(st.lists(st.integers(0, 1), min_size=c, max_size=c))
        return Gate("MCX", (w[c],), controls=w[:c], polarities=pol)
    r = draw(st.integers(1, n - 1))
    pairs = list(itertools.combinations(range(r), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    extra = draw(st.sampled_from([None, w[r + 1]])) if r + 1 < n else None
    graph = GraphSpec(r, tuple(edges))
    return Gate("GraphProjX", (w[r],), controls=w[:r], graph=graph, extra_zero=extra)


@st.composite
def documents(draw) -> Dqc1Circuit:
    n = draw(st.integers(3, 7))
    gate_list = tuple(draw(st.lists(gates(n), max_size=6)))
    circuit = _unchecked(Circuit, total_qubits=n, gates=gate_list)
    clean = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    measured = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    chosen = draw(st.lists(st.sampled_from(measured), unique=True))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(chosen), max_size=len(chosen)))
    postselect = draw(st.sampled_from([None, dict(zip(chosen, bits))]))
    return _unchecked(
        Dqc1Circuit, circuit=circuit, clean_qubits=clean, measured=measured, postselect=postselect
    )


# Every special case in one document: each gate kind, an edgeless graph and
# one with an extra_zero wire, RZ at -0.0, matrix parts at -0.0, subnormal
# and 1e300 scale, and a postselection on a ten-or-more qubit key.
_EVERY_CASE = _unchecked(
    Dqc1Circuit,
    circuit=_unchecked(
        Circuit,
        total_qubits=12,
        gates=tuple(Gate(kind, (0,)) for kind in sorted(FIXED_1Q))
        + (
            Gate("RZ", (1,), theta=-0.0),
            Gate("U1Q", (2,), matrix=np.array([[-0.0, 5e-324j], [1e300, -3.7e300 + 1e-310j]])),
            Gate("CU", (3, 4), controls=(11,), matrix=np.eye(4) * (1 - 0.0j)),
            Gate("CZ", (5, 6)),
            Gate("CNOT", (7,), controls=(10,)),
            Gate("MCX", (8,), controls=(0, 1), polarities=(0, 1)),
            Gate("MCX", (9,)),
            Gate("GraphProjX", (4,), controls=(0, 1), graph=GraphSpec(2, ((0, 1),)), extra_zero=3),
            Gate("GraphProjX", (6,), controls=(2, 5), graph=GraphSpec(2)),
        ),
    ),
    clean_qubits=(0,),
    measured=(0, 2, 10, 11),
    postselect={10: 1, 2: 0, 11: 1},
)


@given(documents())
@example(_EVERY_CASE)
@example(Dqc1Circuit(Circuit(1, ()), (0,), (0,)))  # an empty gate list
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(dc):
    assert serialize_circuit(dc) == _circuit_doc(dc)
    assert serialize_unitary(dc.circuit) == _unitary_doc(dc.circuit)


def test_writer_matches_json_dumps_on_checked_circuits():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dc = random_dqc1(rng, 5, 20, clean_count=2, measured_count=3)
        assert serialize_circuit(dc) == _circuit_doc(dc)
        c = random_circuit(rng, 4, 14)
        assert serialize_unitary(c) == _unitary_doc(c)


# ---------------------------------------------------------------------------
# _json_text on any document

_STRINGS = st.text(max_size=5) | st.sampled_from(["10", "2", "é", '"', "\\", "\n", "\u2028", "\ud800"])
_DOC_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([10**30, -(10**40)]),
    st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308 / 3, float("inf"), float("-inf")]),
    _STRINGS,
)
_DOCS = st.recursive(
    _DOC_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=24,
)


@given(_DOCS)
@example({"10": -0.0, "2": [float("nan"), float("inf"), -float("inf"), 5e-324], "": {}})
@example({"é": '"\\\n\u2028\ud800', "a": [10**30, True, False, None, []]})
@example([])
@settings(max_examples=400, deadline=None)
def test_json_text_matches_json_dumps(doc):
    assert _json_text(doc, "") == json.dumps(doc, indent=2, sort_keys=True)
