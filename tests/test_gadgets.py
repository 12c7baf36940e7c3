import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim.circuits import Circuit, Dqc1Circuit, GraphSpec, circuit_matrix, gate_matrix, graph_proj_x, t
from dqc1sim.engine import conditional_distribution, exact_distribution
from dqc1sim.errors import ContractError, ParseError
from dqc1sim.gadgets import (
    MbqcPattern,
    build_trace_circuit,
    build_W,
    build_W_prime,
    cluster_unitary,
    cluster_unitary_inverse,
    compile_n_plus_1,
    compile_three,
    controlled_gates,
    linear_pattern_target_probs,
    measurement_alignment,
    parse_pattern,
    pattern_from_rotations,
    serialize_pattern,
)
from dqc1sim.qstate import compile_circuit, fuse_blocks
from dqc1sim.randcirc import random_circuit, random_graph
from dqc1sim.verify import _run, reduction_conditional_tv, w_branch_stats

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _chain(n):
    return GraphSpec(n, tuple((j, j + 1) for j in range(n - 1)))


def _basis(m, index):
    """The m-qubit basis state `index` as a batch of one."""
    return np.eye(1, 1 << m, index, dtype=complex)


# ---------------------------------------------------------------------------
# cluster preparation

def test_cluster_unitary_prepares_closed_form():
    for n in (1, 2, 3, 4):
        g = _chain(n)
        out = _run(cluster_unitary(g), n, _basis(n, 0))[0]
        assert np.max(np.abs(out - g.state_vector())) < 1e-12


def test_cluster_unitary_gate_count():
    g = GraphSpec(3, ((0, 1), (1, 2)))
    gates = cluster_unitary(g)
    assert len(gates) == 3 + 2  # one H per vertex, one CZ per edge


def test_cluster_inverse_undoes_preparation():
    g = random_graph(np.random.default_rng(2), 4)
    out = _run(cluster_unitary(g), 4, _basis(4, 0))
    back = _run(cluster_unitary_inverse(g), 4, out)[0]
    assert abs(back[0] - 1.0) < 1e-12


def test_cluster_unitary_custom_wires():
    g = _chain(2)
    gates = cluster_unitary(g, wires=[3, 1])
    touched = {w for gg in gates for w in gg.wires}
    assert touched == {1, 3}


# ---------------------------------------------------------------------------
# distillation gadgets

def test_w_gate_sequence_matches_projector_form():
    g = _chain(2)
    seq = circuit_matrix(Circuit(3, tuple(build_W(g, 0, [1, 2]))))
    vec = g.state_vector()
    proj = np.outer(vec, vec.conj())
    want = np.kron([[0, 1], [1, 0]], proj) + np.kron(np.eye(2), np.eye(4) - proj)
    assert np.max(np.abs(seq - want)) < 1e-12


def test_w_branch_probability_and_fidelity():
    for n in (2, 3, 4):
        prob, fid = w_branch_stats(_chain(n))
        assert prob == pytest.approx(0.5**n, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_w_rejects_mismatched_register():
    with pytest.raises(ContractError):
        build_W(_chain(2), 0, [1])
    with pytest.raises(ContractError):
        build_W(_chain(2), 1, [1, 2])


def test_w_prime_pins_ancilla():
    g = _chain(2)
    gates = build_W_prime(g, 0, 1, [2, 3])
    # start from a basis input with ancilla = 1: the flip branch must vanish
    out = _run(gates, 4, _basis(4, 0b0100))[0]
    assert np.max(np.abs(out[8:])) < 1e-12


def test_w_prime_postselected_state():
    g = _chain(1)
    dc = Dqc1Circuit(
        Circuit(3, tuple(build_W_prime(g, 0, 1, [2]))),
        (0,),
        (0, 1, 2),
        postselect={0: 1},
    )
    cond, _ = conditional_distribution(dc, {0: 1})
    # ancilla reads 0, graph qubit is |+>
    assert cond.prob("00") == pytest.approx(0.5)
    assert cond.prob("01") == pytest.approx(0.5)
    assert cond.prob("10") == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# controlled embedding

def test_controlled_gates_block_structure():
    # Every emitted gate lists the control, the graph projector's
    # unfolding included, and the whole is I (+) u.
    pair = GraphSpec(2, ((0, 1),))
    for u in (
        random_circuit(np.random.default_rng(4), 2, 6),
        Circuit(3, (graph_proj_x(pair, (0, 2), 1),)),
        Circuit(4, (graph_proj_x(pair, (2, 0), 3, extra_zero=1),)),
        Circuit(4, (graph_proj_x(GraphSpec(3, ((0, 1), (1, 2))), (1, 3, 0), 2),)),
    ):
        controlled = [
            cg for gate in u.gates for cg in controlled_gates(gate.shifted(1), 0)
        ]
        assert all(0 in cg.controls for cg in controlled)
        full = circuit_matrix(Circuit(u.total_qubits + 1, tuple(controlled)))
        d = 1 << u.total_qubits
        want = np.zeros((2 * d, 2 * d), dtype=complex)
        want[:d, :d] = np.eye(d)
        want[d:, d:] = circuit_matrix(u)
        assert np.max(np.abs(full - want)) < 1e-10


def test_trace_circuit_ops_act_under_the_clean_wire():
    # Each fused block but the two holding the clean wire's own H (and
    # Sdg) leaves the clean wire as a control, so it touches half of each
    # state; the graph projector's unfolding too.
    u = random_circuit(np.random.default_rng(119), 4, 14)
    assert any(g.kind == "GraphProjX" and g.extra_zero is not None for g in u.gates)
    for part in ("real", "imaginary"):
        dc = build_trace_circuit(u, part)
        blocks = fuse_blocks(dc.gates)
        ops = compile_circuit(dc.gates, dc.total_qubits)
        own = [i for i, b in enumerate(blocks) if any(0 in g.qubits for g in b)]
        assert own == [0, len(blocks) - 1]
        assert all(op.fire.get(0) == 1 for i, op in enumerate(ops) if i not in own)
        assert all(0 not in ops[i].fire for i in own)


# ---------------------------------------------------------------------------
# trace circuit

def test_trace_circuit_shape():
    u = Circuit(2, (t(0),))
    dc = build_trace_circuit(u, "real")
    assert dc.total_qubits == 3
    assert dc.clean_qubits == (0,)
    assert dc.measured == (0,)


def test_trace_circuit_t_gate_frozen_values():
    # tr(T) = 1 + e^{i pi/4}; Pr(0) = 1/2 + Re or Im of tr / 2^{n+1}
    u = Circuit(1, (t(0),))
    real = exact_distribution(build_trace_circuit(u, "real")).prob("0")
    assert real == pytest.approx(0.9267766952966369, abs=1e-12)
    imag = exact_distribution(build_trace_circuit(u, "imaginary")).prob("0")
    assert imag == pytest.approx(0.6767766952966369, abs=1e-12)


def test_trace_circuit_identity_is_certain():
    u = Circuit(2, ())
    d = exact_distribution(build_trace_circuit(u, "real"))
    assert d.prob("0") == pytest.approx(1.0, abs=1e-12)


def test_trace_circuit_rejects_unknown_part():
    with pytest.raises(ContractError):
        build_trace_circuit(Circuit(1, ()), "modulus")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_trace_circuit_contract_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    u = random_circuit(rng, n, int(rng.integers(1, 7)))
    tr = complex(np.trace(circuit_matrix(u)))
    for part, val in (("real", tr.real), ("imaginary", tr.imag)):
        p0 = exact_distribution(build_trace_circuit(u, part)).prob("0")
        assert p0 == pytest.approx(0.5 + val / 2 ** (n + 1), abs=1e-10)


# ---------------------------------------------------------------------------
# measurement alignment

def test_alignment_sends_branch_vector_to_one():
    for theta in (0.0, 0.5, -1.2, math.pi):
        v = measurement_alignment(theta)
        beta = np.array([1.0, cmath.exp(-1j * theta)]) * INV_SQRT2
        out = v @ beta
        assert abs(out[0]) < 1e-12
        assert abs(abs(out[1]) - 1.0) < 1e-12


def test_alignment_is_unitary():
    v = measurement_alignment(0.9)
    assert np.max(np.abs(v @ v.conj().T - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# patterns

def test_pattern_from_rotations_shape():
    p = pattern_from_rotations([0.3, -0.4])
    assert p.graph.num_vertices == 3
    assert p.graph.edges == ((0, 1), (1, 2))
    assert p.outputs == (2,)
    assert p.angles == {0: 0.3, 1: -0.4}
    assert p.non_outputs == (0, 1)


def test_pattern_angle_coverage_enforced():
    g = _chain(2)
    with pytest.raises(ContractError):
        MbqcPattern(g, {}, (1,))
    with pytest.raises(ContractError):
        MbqcPattern(g, {0: 0.1, 1: 0.2}, (1,))


def test_pattern_outputs_validated():
    g = _chain(2)
    with pytest.raises(ContractError):
        MbqcPattern(g, {0: 0.0}, (5,))
    with pytest.raises(ContractError):
        MbqcPattern(g, {0: 0.0, 1: 0.0}, ())


def test_pattern_serialization_roundtrip():
    p = pattern_from_rotations([0.25, -1.5, 2.0])
    back = parse_pattern(serialize_pattern(p))
    assert back == p


def test_pattern_parse_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_pattern("{}")
    doc = {"graph": {"n": 2, "edges": [[0, 1]]}, "angles": {"0": 0.1, "5": 0.2}, "outputs": [1]}
    with pytest.raises((ParseError, ContractError)):
        parse_pattern(json.dumps(doc))


# ---------------------------------------------------------------------------
# target oracle

def test_identity_rotation_gives_plus_measured_in_h_basis():
    # single J(0) = H on |+> lands on |0> with certainty
    probs = linear_pattern_target_probs(pattern_from_rotations([0.0]))
    assert probs["0"] == pytest.approx(1.0)


def test_empty_pattern_output_is_unbiased():
    probs = linear_pattern_target_probs(pattern_from_rotations([]))
    assert probs["0"] == pytest.approx(0.5)
    assert probs["1"] == pytest.approx(0.5)


def test_target_probs_match_direct_projection():
    # independent route: project the cluster state vertex by vertex;
    # contracting in ascending vertex order keeps the next vertex at axis 0
    angles = [0.8, -0.5, 1.9]
    p = pattern_from_rotations(angles)
    n = p.graph.num_vertices
    vec = p.graph.state_vector().reshape((2,) * n)
    for v in sorted(p.angles):
        beta = np.array([1.0, cmath.exp(-1j * p.angles[v])]) * INV_SQRT2
        vec = np.tensordot(beta.conj(), vec, axes=([0], [0]))
    out = np.asarray(vec).reshape(2)
    norm = float(np.sum(np.abs(out) ** 2))
    oracle = linear_pattern_target_probs(p)
    assert oracle["0"] == pytest.approx(abs(out[0]) ** 2 / norm, abs=1e-9)
    assert oracle["1"] == pytest.approx(abs(out[1]) ** 2 / norm, abs=1e-9)


def test_target_probs_reject_non_chain():
    g = GraphSpec(3, ((0, 1), (0, 2)))
    p = MbqcPattern(g, {0: 0.0, 1: 0.0}, (2,))
    with pytest.raises(ContractError):
        linear_pattern_target_probs(p)


# ---------------------------------------------------------------------------
# compilers

def test_compile_n_plus_1_layout():
    red = compile_n_plus_1(pattern_from_rotations([0.3]))
    assert red.circuit.total_qubits == 3
    assert red.circuit.measured == (0, 1, 2)
    assert red.postselect == {0: 1, 1: 1}
    assert red.output_qubits == (2,)


def test_compile_three_layout():
    red = compile_three(pattern_from_rotations([0.3, 0.4]))
    assert red.circuit.total_qubits == 5
    assert len(red.circuit.measured) == 3
    assert len(red.postselect) == 2
    assert red.output_qubits == (4,)


def test_compile_three_rejects_multi_output():
    g = _chain(3)
    p = MbqcPattern(g, {0: 0.1}, (1, 2))
    with pytest.raises(ContractError):
        compile_three(p)


def test_empty_pattern_compiles_in_both_modes():
    p = pattern_from_rotations([])
    red1 = compile_n_plus_1(p)
    assert len(red1.circuit.measured) == 2
    assert reduction_conditional_tv(red1) < 1e-12
    red3 = compile_three(p)
    assert len(red3.circuit.measured) == 3
    assert reduction_conditional_tv(red3) < 1e-12


def test_spec_example_single_zero_rotation_three_mode():
    red = compile_three(pattern_from_rotations([0.0]))
    assert len(red.circuit.measured) == 3
    joint = exact_distribution(red.circuit)
    cond, event = joint.condition(red.postselect)
    out = cond.marginal(red.output_qubits)
    assert out.prob("0") == pytest.approx(1.0, abs=1e-10)
    # event probability: 2^-(n+1) branch times 2^-(n-1) aligned readouts
    assert event == pytest.approx(2.0**-3 * 2.0**-1, abs=1e-12)


@given(st.lists(st.floats(min_value=-3.1, max_value=3.1), min_size=0, max_size=3))
@settings(max_examples=25)
def test_compilers_agree_with_target(angles):
    p = pattern_from_rotations(list(angles))
    assert reduction_conditional_tv(compile_n_plus_1(p)) < 1e-9
    assert reduction_conditional_tv(compile_three(p)) < 1e-9


def test_pattern_parse_rejects_non_ascii_digit_angle_keys():
    doc = {"graph": {"n": 3, "edges": [[0, 1]]}, "angles": {"0": 0.1, "²": 0.2}, "outputs": [2]}
    with pytest.raises(ParseError) as exc:
        parse_pattern(json.dumps(doc))
    assert "$.angles" in str(exc.value)


def test_pattern_parse_rejects_one_vertex_spelled_twice():
    doc = {"graph": {"n": 3, "edges": [[0, 1]]}, "angles": {"0": 0.1, "1": 0.2, "01": 2.5}, "outputs": [2]}
    with pytest.raises(ParseError) as exc:
        parse_pattern(json.dumps(doc))
    assert "$.angles" in str(exc.value) and "vertex 1 assigned twice" in str(exc.value)


def test_pattern_parse_rejects_non_finite_angles():
    doc = {"graph": {"n": 2, "edges": [[0, 1]]}, "angles": {"0": math.nan}, "outputs": [1]}
    with pytest.raises(ParseError):
        parse_pattern(json.dumps(doc))
