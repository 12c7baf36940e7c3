import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim.circuits import (
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
    check_unitary,
    circuit_matrix,
    cnot,
    cu,
    cz,
    gate_matrix,
    graph_proj_x,
    h,
    mcx,
    parse_circuit,
    parse_unitary,
    rz,
    s,
    serialize_circuit,
    serialize_unitary,
    t,
    u1q,
    x,
    z,
)
from dqc1sim.errors import (
    ContractError,
    ParseError,
    ResourceError,
    UnitarityError,
    ValidationError,
    WiringError,
)
from dqc1sim.randcirc import random_circuit, random_dqc1, random_unitary

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# GraphSpec

def test_graph_canonicalizes_edges():
    g = GraphSpec(3, ((2, 0), (1, 2)))
    assert g.edges == ((0, 2), (1, 2))


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 0),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range_vertex():
    with pytest.raises(ValidationError):
        GraphSpec(2, ((0, 2),))


def test_graph_state_vector_single_vertex():
    g = GraphSpec(1, ())
    assert np.allclose(g.state_vector(), [INV_SQRT2, INV_SQRT2])


def test_graph_state_vector_edge_signs():
    # two-vertex graph with one edge: minus sign only on |11>
    g = GraphSpec(2, ((0, 1),))
    assert np.allclose(g.state_vector(), [0.5, 0.5, 0.5, -0.5])


def test_graph_state_vector_triangle_sign_counts():
    # sign is (-1)^(number of edges whose endpoints both read 1)
    g = GraphSpec(3, ((0, 1), (1, 2), (0, 2)))
    vec = g.state_vector()
    amp = 2.0 ** (-1.5)
    assert vec[0b111] == pytest.approx(-amp)  # 3 edges inside, odd
    assert vec[0b110] == pytest.approx(-amp)  # 1 edge inside
    assert vec[0b100] == pytest.approx(amp)


# ---------------------------------------------------------------------------
# Gate construction and validation

def test_gate_factories_well_formed():
    for g in (h(0), x(1), s(2), t(0), rz(0.3, 1), cz(0, 1), cnot(1, 0)):
        assert isinstance(g, Gate)


def test_gate_rejects_wrong_arity():
    with pytest.raises(ValidationError):
        Gate(kind="H", qubits=(0, 1))


def test_gate_rejects_overlapping_wires():
    with pytest.raises(WiringError):
        cnot(1, 1)
    with pytest.raises(WiringError):
        mcx([0, 1], (1, 1), 1)


def test_gate_rejects_negative_wire():
    with pytest.raises(WiringError):
        h(-1)


def test_mcx_polarity_validation():
    with pytest.raises(ValidationError):
        mcx([0, 1], (1,), 2)
    with pytest.raises(ValidationError):
        mcx([0], (2,), 1)


def test_rz_needs_finite_angle():
    with pytest.raises(ValidationError):
        rz(float("nan"), 0)


def test_u1q_shape_check():
    with pytest.raises(ValidationError):
        u1q(np.eye(4), 0)


def test_graph_proj_x_arity_follows_graph():
    g = GraphSpec(2, ((0, 1),))
    gate = graph_proj_x(g, [1, 2], 0)
    assert gate.wires == (1, 2, 0)
    with pytest.raises(ValidationError):
        graph_proj_x(g, [1], 0)


def test_gate_inverse_pairs():
    st_gate = s(0)
    assert st_gate.inverse().kind == "Sdg"
    assert t(0).inverse().kind == "Tdg"
    assert rz(0.7, 0).inverse().theta == pytest.approx(-0.7)
    m = random_unitary(np.random.default_rng(0), 2)
    gi = u1q(m, 0).inverse()
    assert np.allclose(gi.matrix, m.conj().T)
    assert h(0).inverse() == h(0)


def test_gate_remap_and_shift():
    g = cnot(0, 2)
    assert g.shifted(3).wires == (3, 5)
    assert g.remapped({0: 4, 2: 1}).wires == (4, 1)


# ---------------------------------------------------------------------------
# gate_matrix and circuit_matrix

def test_fixed_gate_matrices():
    assert np.allclose(gate_matrix(x(0), 1), [[0, 1], [1, 0]])
    assert np.allclose(gate_matrix(z(0), 1), [[1, 0], [0, -1]])
    assert np.allclose(
        gate_matrix(h(0), 1), [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]
    )


def test_embedding_respects_wire_order():
    # X on qubit 0 of two flips the most significant bit
    m = gate_matrix(x(0), 2)
    vec = np.zeros(4)
    vec[0b00] = 1.0
    assert np.argmax(np.abs(m @ vec)) == 0b10


def test_cnot_matrix_directions():
    m = gate_matrix(cnot(0, 1), 2)
    # control qubit 0 high: |10> -> |11>
    assert m[0b11, 0b10] == 1.0
    assert m[0b00, 0b00] == 1.0


def test_mcx_zero_polarity_fires_on_zero():
    m = gate_matrix(mcx([0], (0,), 1), 2)
    assert m[0b01, 0b00] == 1.0
    assert m[0b10, 0b10] == 1.0


def test_mcx_is_permutation():
    rng = np.random.default_rng(3)
    g = mcx([0, 2, 3], (1, 0, 1), 1)
    m = gate_matrix(g, 4)
    assert np.array_equal(np.abs(m) > 0.5, np.abs(m) > 0.5)
    assert np.allclose(m @ m, np.eye(16))  # polarity-matched X is an involution
    col_sums = np.abs(m).sum(axis=0)
    assert np.allclose(col_sums, 1.0)


def test_graph_proj_x_unitary_and_action():
    g = GraphSpec(2, ((0, 1),))
    gate = graph_proj_x(g, [1, 2], 0)
    m = gate_matrix(gate, 3)
    check_unitary(m)
    gvec = g.state_vector()
    inp = np.kron([1.0, 0.0], gvec)
    out = m @ inp
    assert np.allclose(out, np.kron([0.0, 1.0], gvec))


def test_graph_proj_x_extra_zero_blocks_one_component():
    g = GraphSpec(1, ())
    gate = graph_proj_x(g, [2], 0, extra_zero=1)
    m = gate_matrix(gate, 3)
    check_unitary(m)
    plus = g.state_vector()
    flips = m @ np.kron([1.0, 0.0], np.kron([1.0, 0.0], plus))
    assert np.allclose(flips, np.kron([0.0, 1.0], np.kron([1.0, 0.0], plus)))
    stays = m @ np.kron([1.0, 0.0], np.kron([0.0, 1.0], plus))
    assert np.allclose(stays, np.kron([1.0, 0.0], np.kron([0.0, 1.0], plus)))


def test_gate_matrix_resource_cap(monkeypatch):
    with pytest.raises(ResourceError):
        gate_matrix(h(0), 13)
    monkeypatch.setattr("dqc1sim.circuits.DENSITY_CAP", 13)
    gate_matrix(h(0), 13)


def test_gate_matrix_rejects_out_of_range_wire():
    with pytest.raises(WiringError):
        gate_matrix(h(5), 3)


def test_circuit_matrix_order():
    # gates apply left to right: X then Z on |0> gives -|1>
    c = Circuit(1, (x(0), z(0)))
    m = circuit_matrix(c)
    assert np.allclose(m @ [1.0, 0.0], [0.0, -1.0])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_random_gate_matrices_unitary(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    c = random_circuit(rng, m, 6)
    check_unitary(circuit_matrix(c))


# ---------------------------------------------------------------------------
# circuits check themselves when built

def _problems(build):
    """The problems listed by the ValidationError that build() raises."""
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == "; ".join(str(p) for p in exc.value.problems)
    return [(type(p), str(p)) for p in exc.value.problems]


def test_validate_collects_problems():
    c = Circuit(2, (h(0),))
    assert _problems(lambda: Dqc1Circuit(c, (0, 0), (5,))) == [
        (ContractError, "clean list has duplicates: (0, 0)"),
        (ContractError, "measured qubits out of range: [5]"),
    ]
    bad = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    gates = (cz(0, 2), u1q(bad, 0), cnot(3, 0))
    problems = _problems(lambda: Circuit(2, gates))
    assert [kind for kind, _ in problems] == [WiringError, UnitarityError, WiringError]
    assert problems[0][1] == "gate 0 (CZ) references out-of-range qubits [2]"
    assert problems[1][1].startswith("gate 1 (U1Q): unitarity residual")
    assert problems[2][1] == "gate 2 (CNOT) references out-of-range qubits [3]"


def test_validate_rejects_unmeasured_postselect():
    c = Circuit(2, ())
    assert _problems(lambda: Dqc1Circuit(c, (0,), (0,), postselect={1: 1})) == [
        (ContractError, "postselect on non-measured qubit 1")
    ]
    assert _problems(lambda: Dqc1Circuit(c, (0,), (0,), postselect={0: 2})) == [
        (ContractError, "postselect bit for qubit 0 must be 0 or 1")
    ]


def test_validate_rejects_gate_beyond_register():
    assert _problems(lambda: Circuit(1, (cz(0, 1),))) == [
        (WiringError, "gate 0 (CZ) references out-of-range qubits [1]")
    ]


def test_validate_flags_non_unitary_embedded_matrix():
    bad = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    g = Gate(kind="U1Q", qubits=(0,), matrix=bad)
    [(kind, message)] = _problems(lambda: Circuit(1, (g,)))
    assert kind is UnitarityError
    assert message.startswith("gate 0 (U1Q): unitarity residual")


def test_shared_matrix_is_checked_once(monkeypatch):
    # One matrix object under three gates is checked once, at the first of
    # them; an equal copy is an object of its own.
    import dqc1sim.circuits

    bad = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    gates = (h(1), u1q(bad, 0), cu(bad, (1,), (0,)), u1q(bad.copy(), 1), u1q(bad, 1))
    calls = []
    check = dqc1sim.circuits.check_unitary
    monkeypatch.setattr(dqc1sim.circuits, "check_unitary", lambda m: calls.append(1) or check(m))
    problems = _problems(lambda: Circuit(2, gates))
    assert len(calls) == 2
    assert [message.split(":")[0] for _, message in problems] == ["gate 1 (U1Q)", "gate 3 (U1Q)"]


def test_clean_and_measured_must_be_nonempty():
    c = Circuit(1, ())
    assert _problems(lambda: Dqc1Circuit(c, (), (0,))) == [(ContractError, "clean list is empty")]
    assert _problems(lambda: Dqc1Circuit(c, (0,), ())) == [
        (ContractError, "measured list is empty")
    ]


@pytest.mark.parametrize("n", [0, -1])
def test_circuit_needs_a_positive_width(n):
    assert _problems(lambda: Circuit(n, ())) == [
        (ValidationError, f"total_qubits must be positive, got {n}")
    ]


# ---------------------------------------------------------------------------
# serialization

def _random_dqc1_with_postselect(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    dc = random_dqc1(rng, m, int(rng.integers(0, 8)))
    if len(dc.measured) > 1 and rng.random() < 0.5:
        q = dc.measured[0]
        dc = Dqc1Circuit(
            dc.circuit, dc.clean_qubits, dc.measured, postselect={q: int(rng.integers(2))}
        )
    return dc


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=120)
def test_serialize_parse_roundtrip(seed):
    dc = _random_dqc1_with_postselect(seed)
    text = serialize_circuit(dc)
    back = parse_circuit(text)
    assert back == dc
    assert serialize_circuit(back) == text


def test_serialized_document_is_plain_json():
    dc = _random_dqc1_with_postselect(7)
    doc = json.loads(serialize_circuit(dc))
    assert set(doc) >= {"total_qubits", "clean_qubits", "gates", "measure"}


def test_unitary_document_roundtrip():
    rng = np.random.default_rng(5)
    c = random_circuit(rng, 3, 6)
    back = parse_unitary(serialize_unitary(c))
    assert back == c


def test_parse_rejects_missing_field():
    with pytest.raises(ParseError):
        parse_circuit(json.dumps({"total_qubits": 1, "gates": []}))


def test_parse_rejects_unknown_gate_kind():
    doc = {
        "total_qubits": 1,
        "clean_qubits": [0],
        "measure": [0],
        "gates": [{"g": "FOO", "q": [0]}],
    }
    with pytest.raises(ParseError) as exc:
        parse_circuit(json.dumps(doc))
    assert "gates[0]" in str(exc.value)


def test_parse_rejects_bad_matrix_entry():
    doc = {
        "total_qubits": 1,
        "clean_qubits": [0],
        "measure": [0],
        "gates": [{"g": "U1Q", "q": [0], "u": [[[1, 0], [0, 0]], [[0, 0]]]}],
    }
    with pytest.raises(ParseError):
        parse_circuit(json.dumps(doc))


def test_parse_validates_whole_circuit():
    doc = {
        "total_qubits": 1,
        "clean_qubits": [0],
        "measure": [0],
        "gates": [{"g": "CZ", "q": [0, 1]}],
    }
    with pytest.raises(ValidationError):
        parse_circuit(json.dumps(doc))


def test_parse_postselect_requires_measured_bit():
    doc = {
        "total_qubits": 2,
        "clean_qubits": [0],
        "measure": [0],
        "gates": [],
        "postselect": {"1": 1},
    }
    with pytest.raises(ValidationError):
        parse_circuit(json.dumps(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("size", [2, 4], ids=["U1Q", "CU"])
def test_check_unitary_rejects_non_finite_entries(bad, size):
    mat = np.eye(size, dtype=complex)
    mat[0, 0] = bad
    with pytest.raises(UnitarityError):
        check_unitary(mat)


def test_parse_postselect_rejects_one_qubit_spelled_twice():
    doc = {
        "total_qubits": 2,
        "clean_qubits": [0],
        "measure": [0, 1],
        "gates": [],
        "postselect": {"1": 0, "01": 1},
    }
    with pytest.raises(ParseError) as exc:
        parse_circuit(json.dumps(doc))
    assert "$.postselect" in str(exc.value) and "qubit 1 assigned twice" in str(exc.value)


def test_parse_postselect_rejects_non_ascii_digit_keys():
    doc = {
        "total_qubits": 3,
        "clean_qubits": [0],
        "measure": [0, 2],
        "gates": [],
        "postselect": {"²": 1},
    }
    with pytest.raises(ParseError) as exc:
        parse_circuit(json.dumps(doc))
    assert "$.postselect" in str(exc.value)
    doc["postselect"] = {"٢": 1}  # int() would read this as 2
    with pytest.raises(ParseError):
        parse_circuit(json.dumps(doc))


def test_parse_rejects_overlong_integer_and_deep_nesting():
    with pytest.raises(ParseError):
        parse_circuit('{"total_qubits": ' + "9" * 5000 + "}")
    with pytest.raises(ParseError):
        parse_circuit("[" * 100_000 + "]" * 100_000)
