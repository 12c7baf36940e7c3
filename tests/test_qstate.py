import ctypes
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqc1sim.engine
from dqc1sim import qstate
from dqc1sim.bits import fold
from dqc1sim.circuits import cnot, cu, cz, gate_matrix, graph_proj_x, h, mcx, rz, t, u1q, x
from dqc1sim.circuits import Circuit, Dqc1Circuit, Gate, GraphSpec, check_unitary
from dqc1sim.engine import (
    _check_density,
    conditional_distribution,
    density_distribution,
    exact_distribution,
)
from dqc1sim.errors import ContractError, ResourceError
from dqc1sim.gadgets import build_trace_circuit, compile_n_plus_1, compile_three, pattern_from_rotations
from dqc1sim.qstate import (
    FUSE_WIRES,
    compile_circuit,
    compile_gate,
    fuse_blocks,
)
from dqc1sim.randcirc import random_circuit, random_dqc1, random_graph, random_unitary
from dqc1sim.verify import _run

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _random_states(seed, m):
    """A (2^m, 2^m) batch of orthonormal random states, one per row."""
    return random_unitary(np.random.default_rng(seed), 1 << m).T


def _basis(m, *indices):
    """A batch of m-qubit basis states, one row per index."""
    return np.eye(1 << m, dtype=complex)[list(indices)]


# ---------------------------------------------------------------------------
# density checks

def test_density_requires_hermitian():
    _check_density(np.eye(2, dtype=complex) / 2.0)
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ContractError, match="hermiticity residual 5.000e-01 exceeds 1.0e-10"):
        _check_density(bad)


def test_density_requires_unit_trace():
    with pytest.raises(ContractError, match=r"trace \(2\+0j\) is off unity beyond 1.0e-10"):
        _check_density(np.eye(2, dtype=complex))


@pytest.mark.parametrize(
    "entries",
    [
        [[np.nan, 0.0], [0.0, 0.5]],  # NaN trace and NaN hermiticity residual
        [[0.5, np.nan], [np.nan, 0.5]],  # unit trace, NaN hermiticity residual
    ],
)
def test_density_rejects_nan_entries(entries):
    with pytest.raises(ContractError):
        _check_density(np.array(entries, dtype=complex))


# ---------------------------------------------------------------------------
# gate application, on (B, 2^m) batches of amplitudes

def test_hadamard_on_msb():
    out = _run([h(0)], 2, _basis(2, 0))
    assert np.allclose(out, [[INV_SQRT2, 0.0, INV_SQRT2, 0.0]])


def test_x_on_chosen_wire():
    out = _run([x(2)], 3, _basis(3, 0))
    assert out[0, 0b001] == 1.0


def test_cnot_fires_only_when_control_high():
    out = _run([cnot(0, 1)], 2, _basis(2, 0b10, 0b00))
    assert out[0, 0b11] == 1.0
    assert out[1, 0b00] == 1.0


def test_cz_phase_only_on_double_one():
    out = _run([cz(0, 1)], 2, np.full((1, 4), 0.5, dtype=complex))
    assert np.allclose(out, [[0.5, 0.5, 0.5, -0.5]])


def test_mcx_polarities():
    out = _run([mcx([0, 1], (1, 0), 2)], 3, _basis(3, 0b100, 0b110))
    assert out[0, 0b101] == 1.0
    assert out[1, 0b110] == 1.0


def test_mcx_no_controls_is_x():
    out = _run([mcx([], (), 0)], 1, _basis(1, 0))
    assert out[0, 1] == 1.0


def test_rz_phases():
    theta = 0.7
    out = _run([rz(theta, 0)], 1, _basis(1, 1))
    assert out[0, 1] == pytest.approx(np.exp(1j * theta / 2))


def test_cu_controlled_two_target():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 4)
    g = cu(u, (1, 2), (0,))
    states = _random_states(11, 3)
    assert np.allclose(_run([g], 3, states), states @ gate_matrix(g, 3).T)


def test_graph_proj_x_kernel_matches_dense():
    g = GraphSpec(2, ((0, 1),))
    gate = graph_proj_x(g, [0, 2], 1)
    states = _random_states(13, 3)
    assert np.allclose(_run([gate], 3, states), states @ gate_matrix(gate, 3).T)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_kernel_agrees_with_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    states = random_unitary(rng, 1 << m)[:, :3].T
    for g in random_circuit(rng, m, 8).gates:
        out = _run([g], m, states)
        ref = states @ gate_matrix(g, m).T
        assert np.max(np.abs(out - ref)) < 1e-10
        states = out


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_norm_preserved(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    states = random_unitary(rng, 1 << m)[:, :3].T
    out = _run(random_circuit(rng, m, 10).gates, m, states)
    assert np.max(np.abs(np.sum(np.abs(out) ** 2, axis=1) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# density evolution

def test_evolve_density_matches_pure_conjugation():
    # With every qubit clean the input is the pure |0...0><0...0|, so the
    # density route's diagonal is the squared amplitudes of one pure run.
    u = random_circuit(np.random.default_rng(17), 3, 10)
    dc = Dqc1Circuit(u, (0, 1, 2), (0, 1, 2))
    psi = _run(u.gates, 3, _basis(3, 0))[0]
    assert np.allclose(density_distribution(dc).pmf, np.abs(psi) ** 2)


def test_evolve_density_cap(monkeypatch):
    # Each conjugating gate matrix is capped too, not only the input.
    dc = Dqc1Circuit(Circuit(4, (h(0),)), (0,), (0,))
    monkeypatch.setattr(dqc1sim.engine, "build_input", lambda dc: np.eye(16, dtype=complex) / 16.0)
    monkeypatch.setattr("dqc1sim.circuits.DENSITY_CAP", 3)
    with pytest.raises(ResourceError):
        density_distribution(dc)


# ---------------------------------------------------------------------------
# measurement

def test_measure_probs_subset_and_order():
    p = np.abs(_run([h(0)], 2, _basis(2, 0))) ** 2
    assert np.allclose(fold(p.T, 2, (0,)), [[0.5, 0.5]])
    assert np.allclose(fold(p.T, 2, (1,)), [[1.0, 0.0]])


def test_measure_probs_order_follows_listing():
    p = np.abs(_basis(2, 0b01, 0b10).T) ** 2  # each column folds as if alone
    assert np.array_equal(fold(p, 2, (0, 1)), [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert np.array_equal(fold(p, 2, (1, 0)), [[0, 0, 1, 0], [0, 1, 0, 0]])


_EVERY_KIND = [
    h(0), x(1), Gate("Y", (2,)), Gate("Z", (0,)), Gate("S", (1,)), Gate("Sdg", (2,)),
    t(0), Gate("Tdg", (1,)), rz(0.7, 2), u1q(random_unitary(np.random.default_rng(1), 2), 1),
    cz(0, 2), cnot(2, 1), cu(random_unitary(np.random.default_rng(2), 4), (0, 2), (1,)),
    mcx((0, 2), (0, 1), 1), graph_proj_x(GraphSpec(2, ((0, 1),)), (2, 0), 1),
]


@pytest.mark.parametrize("gate", _EVERY_KIND, ids=[g.kind for g in _EVERY_KIND])
def test_apply_gate_leaves_input_untouched(gate):
    # Every kind against gate_matrix.  The compiled ops write in place, so
    # the runner that verify's checks share must work on a copy: a check
    # that compared a run with its own overwritten input would always pass.
    states = _random_states(29, 3)
    before = states.copy()
    out = _run([gate], 3, states)
    assert np.array_equal(states, before)
    assert np.allclose(out, before @ gate_matrix(gate, 3).T)


# ---------------------------------------------------------------------------
# the batch axis last: few products per op, each state rounded as if alone

# 256 columns a state reach the products that OpenBLAS's Haswell kernel
# rounds by a column's place: over 192 columns, or 2^16 multiply-adds.
_COLUMNS, _STATES = [1, 2, 4, 8, 256], [1, 2, 3, 4, 5, 16]


@pytest.mark.parametrize("states", _STATES)
@pytest.mark.parametrize("columns", _COLUMNS)
def test_batched_product_keeps_each_lone_run(columns, states):
    # _product's rounding rule: a state of at least 4 columns shares small
    # products with the whole batch, a state of fewer runs alone, and
    # either way every state keeps its lone run's bytes wherever it sits.
    # Targets out of order and a control make the view a strided copy.
    rng = np.random.default_rng(10 * columns + states)
    for t, controls in ((1, 0), (2, 0), (2, 1), (3, 1), (5, 0)):
        m = t + controls + columns.bit_length() - 1
        wires = [int(q) for q in rng.permutation(m)]
        fire, targets = dict.fromkeys(wires[t : t + controls], 1), tuple(wires[:t])
        sel, fwd = qstate._layout(fire, targets, m, {})
        mat = random_unitary(rng, 1 << t)
        amps = rng.normal(size=(1 << m, states)) + 1j * rng.normal(size=(1 << m, states))
        lone = []
        for s in range(states):
            state = amps[:, s].copy().reshape((2,) * m + (1,))
            qstate._product(state, sel, fwd, mat)
            lone.append(state.tobytes())
        qstate._product(amps.reshape((2,) * m + (states,)), sel, fwd, mat)
        assert [amps[:, s].tobytes() for s in range(states)] == lone


@pytest.mark.parametrize("states", _STATES)
def test_graph_flip_keeps_each_lone_run(states):
    # A projector flip runs state by state on C-contiguous rows: on the
    # batch's strided columns, tensordot rounds otherwise.
    rng = np.random.default_rng(states)
    for n, m in ((1, 3), (2, 4), (3, 6)):
        wires = [int(q) for q in rng.permutation(m)]
        op = compile_gate(graph_proj_x(random_graph(rng, n), wires[:n], wires[n]), m)
        amps = rng.normal(size=(1 << m, states)) + 1j * rng.normal(size=(1 << m, states))
        lone = []
        for s in range(states):
            state = amps[:, s].copy()
            op(state.reshape((2,) * m + (1,)))
            lone.append(state.tobytes())
        op(amps.reshape((2,) * m + (states,)))
        assert [amps[:, s].tobytes() for s in range(states)] == lone


def _blas_core() -> str | None:
    """The OpenBLAS kernel numpy runs on, or None where that cannot be told:
    a BLAS other than OpenBLAS, or no /proc/self/maps to find it by."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)  # already loaded: this only finds its symbols
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


_CHILD = """
import itertools, sys
sys.path.insert(0, sys.argv[1])
import test_qstate as t
print(t._blas_core())
for columns, states in itertools.product(t._COLUMNS, t._STATES):
    t.test_batched_product_keeps_each_lone_run(columns, states)
for states in t._STATES:
    t.test_graph_flip_keeps_each_lone_run(states)
import test_engine as e
for kind, seed, rows, bit in itertools.product(e.SLICED_KINDS, range(10), (1, 3, 32), (0, 1)):
    e._sliced_runs_keep_every_byte(kind, seed, rows, bit)
"""


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_lone_run_bytes_hold_on_other_blas_kernels(core):
    # The two tests above, and the sliced runs of test_engine, rest on how
    # OpenBLAS's kernels round, so they run again under another kernel in
    # a child process, sliced runs on a fixed grid; the variable is set in
    # the child's environment only.  A child that cannot load the kernel
    # (another BLAS, or a CPU without its instructions) is a skip.
    here_core = _blas_core()
    if here_core is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose kernel can be chosen")
    here = Path(__file__).resolve().parent
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(here)],
        env=dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=str(here.parent / "src")),
        capture_output=True, text=True, timeout=300,
    )
    if child.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernel")
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-4000:]
    ran = child.stdout.split()[0]  # OpenBLAS names a forced Prescott "Katmai"
    if ran == here_core != core:
        pytest.skip(f"OPENBLAS_CORETYPE={core} left numpy's BLAS on {ran}")


# ---------------------------------------------------------------------------
# fusion into blocks of at most FUSE_WIRES wires

def _fusion_circuit(seed, m, postselect=False):
    """A seeded random DQC1 circuit on m qubits with the composite gates
    that fusion must handle spliced in at random places: an MCX wider than
    FUSE_WIRES (from m = 5), a CU with two targets and two controls (from
    m = 4) and GraphProjX gates without and (from m = 3) with a forced-zero
    qubit.  With `postselect`, the first measured qubit is postselected on
    its likelier bit."""
    rng = np.random.default_rng(seed)
    base = random_dqc1(rng, m, 16, clean_count=1 + m % 2, measured_count=min(m, 3))
    extra = [graph_proj_x(GraphSpec(1, ()), (m - 1,), 0)]
    if m >= 3:
        extra.append(graph_proj_x(GraphSpec(1, ()), (0,), 1, extra_zero=2))
    if m >= 4:
        extra.append(cu(random_unitary(rng, 4), (2, 3), (0, 1)))
    if m >= 5:
        wires = [int(q) for q in rng.permutation(m)[:FUSE_WIRES + 1]]
        extra.append(mcx(wires[:-1], (1, 0) * (FUSE_WIRES // 2), wires[-1]))
    gates = list(base.circuit.gates)
    for g in extra:
        gates.insert(int(rng.integers(len(gates) + 1)), g)
    dc = Dqc1Circuit(Circuit(m, tuple(gates)), base.clean_qubits, base.measured)
    if postselect:
        first = density_distribution(dc).marginal((dc.measured[0],))
        bit = int(first.pmf[1] >= 0.5)
        dc = Dqc1Circuit(dc.circuit, dc.clean_qubits, dc.measured, postselect={dc.measured[0]: bit})
    return dc


@given(st.integers(0, 10_000), st.integers(2, 9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fused_exact_matches_the_density_oracle(seed, m, postselect):
    dc = _fusion_circuit(seed, m, postselect)
    fused, dense = exact_distribution(dc), density_distribution(dc)
    assert np.max(np.abs(fused.pmf - dense.pmf)) <= 1e-12
    if postselect:
        fused, dense = conditional_distribution(dc, dc.postselect)[0], dense.condition(dc.postselect)[0]
        assert np.max(np.abs(fused.pmf - dense.pmf)) <= 1e-12


@given(st.integers(0, 10_000), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_fuse_blocks_keeps_wire_order_and_isolates_wide_gates(seed, m):
    gates = _fusion_circuit(seed, m).circuit.gates
    blocks = fuse_blocks(gates)
    index = {id(g): i for i, g in enumerate(gates)}
    order = [index[id(g)] for block in blocks for g in block]
    assert sorted(order) == list(range(len(gates)))
    for w in range(m):
        on_wire = [i for i in order if w in gates[i].wires]
        assert on_wire == sorted(on_wire)
    for block in blocks:
        span = {w for g in block for w in g.wires}
        assert len(span) <= FUSE_WIRES or len(block) == 1
    wide = [g for g in gates if len(g.wires) > FUSE_WIRES]
    assert [b for b in blocks if b[0] in wide] == [[g] for g in wide]


def test_fuse_blocks_moves_a_gate_back_past_other_wires():
    # h(5) shares no wire with the wide MCX, so it joins the first block;
    # the last h(0) must stay after the MCX.
    gates = [h(0), cnot(0, 1), mcx((0, 1, 2, 3), (1, 1, 1, 1), 4), h(5), h(0)]
    blocks = fuse_blocks(gates)
    assert [len(b) for b in blocks] == [3, 1, 1]
    assert blocks[0][2] is gates[3] and blocks[1] == [gates[2]]


def _per_gate_ops(gates, m):
    return [compile_gate(g, m) for g in gates]


@pytest.mark.parametrize("seed", range(12))
def test_small_circuit_is_one_op_with_per_gate_bytes(seed, monkeypatch):
    rng = np.random.default_rng(300 + seed)
    m = 1 + seed % FUSE_WIRES
    dc = random_dqc1(rng, m, 10, measured_count=m)
    assert len(compile_circuit(dc.gates, m)) == 1
    fused = exact_distribution(dc).pmf.tobytes()
    monkeypatch.setattr(dqc1sim.engine, "compile_circuit", _per_gate_ops)
    assert exact_distribution(dc).pmf.tobytes() == fused


def _fused_ops(gates, m):
    return [
        op for op, block in zip(compile_circuit(gates, m), fuse_blocks(gates)) if len(block) > 1
    ]


@pytest.mark.parametrize("seed", range(6))
def test_fused_matrices_are_unitary(seed):
    rng = np.random.default_rng(400 + seed)
    circuits = [
        _fusion_circuit(400 + seed, 3 + seed),
        build_trace_circuit(random_circuit(rng, 3 + seed % 3, 20)),
        compile_three(pattern_from_rotations(list(rng.uniform(-3, 3, size=2 + seed % 3)))).circuit,
    ]
    for dc in circuits:
        ops = _fused_ops(dc.gates, dc.total_qubits)
        assert ops
        for op in ops:
            check_unitary(op.mat)


def test_block_peels_a_shared_control():
    u = random_unitary(np.random.default_rng(5), 4)
    (op,) = compile_circuit([cnot(1, 2), cu(u, (2, 3), (1,))], 5)
    assert op.fire == {1: 1} and op.targets == (2, 3)
    assert op.mat.shape == (4, 4)
    assert np.array_equal(op.mat, u @ np.kron(gate_matrix(x(0), 1), np.eye(2)))
    # A triangular (not unitary) first gate keeps either the rows or the
    # columns where wire 0 reads 0 those of the identity, but moves
    # amplitude between 0 and 1 on that wire: it is no control.
    for leak in (np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([[1.0, 0.5], [0.0, 1.0]])):
        (op,) = compile_circuit([Gate("U1Q", (0,), matrix=leak), cu(u, (1, 2), (0,))], 3)
        assert op.fire == {} and op.targets == (0, 1, 2) and op.mat.shape == (8, 8)


@pytest.mark.parametrize("seed", range(4))
def test_trace_circuit_peels_the_clean_wire(seed):
    u = random_circuit(np.random.default_rng(500 + seed), 6, 40)
    dc = build_trace_circuit(u)
    blocks = fuse_blocks(dc.gates)
    ops = compile_circuit(dc.gates, dc.total_qubits)
    # A fused block whose gates all fire on the clean wire 0 runs only on
    # the half of each state where that wire reads 1.
    controlled = [
        op for op, block in zip(ops, blocks)
        if len(block) > 1 and all(0 in g.controls for g in block)
    ]
    assert controlled
    for op in controlled:
        assert op.fire.get(0) == 1 and 0 not in op.targets
        assert len(op.mat) <= 1 << (FUSE_WIRES - 1)


# ---------------------------------------------------------------------------
# block compilation straight onto local wires

def test_compile_circuit_builds_no_gate(monkeypatch):
    # The golden circuits and the reductions, whole and cut: the blocks'
    # gates are compiled onto their local wires, never remapped.
    rng = np.random.default_rng(600)
    circuits = [
        random_dqc1(np.random.default_rng(101), 5, 24, clean_count=2, measured_count=3),
        Dqc1Circuit(random_circuit(np.random.default_rng(103), 4, 20), (0, 1), (0, 1, 3)),
        build_trace_circuit(random_circuit(np.random.default_rng(107), 3, 14)),
    ]
    for angles in ([0.4, -1.2, 2.1], [0.3, -0.9, 1.7], list(rng.uniform(-3, 3, size=7))):
        pattern = pattern_from_rotations(angles)
        circuits += [compile_three(pattern).circuit, compile_n_plus_1(pattern).circuit]
    gate_lists = [dc.gates for dc in circuits] + [dqc1sim.engine._cut(dc) for dc in circuits]
    built = []
    init = Gate.__init__

    def counted(g, kind, *args, **kwargs):
        built.append(kind)
        init(g, kind, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counted)
    for dc, gates in zip(circuits * 2, gate_lists):
        ops = compile_circuit(gates, dc.total_qubits)
        assert len(ops) < len(gates)
    assert built == []


_ONE_WIRE = ("H", "X", "T", "RZ", "U1Q")
_MULTI_WIRE = ("CZ", "CNOT", "MCX", "CU", "GraphProjX")


def _block_gate(rng, kind, wires):
    """A random gate of `kind` on some of `wires` (at least two of them for
    the kinds in _MULTI_WIRE)."""
    w = [int(q) for q in rng.permutation(wires)]
    if kind == "RZ":
        return rz(float(rng.uniform(-np.pi, np.pi)), w[0])
    if kind == "U1Q":
        return u1q(random_unitary(rng, 2), w[0])
    if kind in _ONE_WIRE:
        return Gate(kind, (w[0],))
    if kind == "CZ":
        return cz(w[0], w[1])
    if kind == "CNOT":
        return cnot(w[0], w[1])
    if kind == "MCX":
        c = int(rng.integers(0, len(w)))
        return mcx(w[:c], tuple(int(b) for b in rng.integers(0, 2, size=c)), w[c])
    if kind == "CU":
        t = int(rng.integers(1, len(w)))
        c = int(rng.integers(1, len(w) - t + 1))
        return cu(random_unitary(rng, 1 << t), w[:t], w[t : t + c])
    n = int(rng.integers(1, len(w)))
    extra = w[n + 1] if n + 1 < len(w) and rng.random() < 0.5 else None
    return graph_proj_x(random_graph(rng, n), w[:n], w[n], extra)


def _compile_remapped(g, m, wire=None):
    """compile_gate as it was: remap the gate onto its wires, then compile."""
    return compile_gate(g if wire is None else g.remapped(wire), m)


_PARTS = qstate._parts


def _parts_remapped(g, at):
    """_parts the same way: remap the gate onto its wires first."""
    return _PARTS(g.remapped(lambda q: at((q,))[0]), tuple)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, FUSE_WIRES),
    st.lists(st.sampled_from(_ONE_WIRE + _MULTI_WIRE), min_size=2, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_block_op_matches_remapped_gates(seed, m, k, kinds):
    rng = np.random.default_rng(seed)
    k = min(k, m)
    wires = [int(q) for q in rng.permutation(m)[:k]]
    if k == 1:
        kinds = [kind for kind in kinds if kind in _ONE_WIRE] or ["H", "T"]
    block = [_block_gate(rng, kind, wires) for kind in kinds]
    op = qstate._block_op(block, m, {})
    with mock.patch.object(qstate, "compile_gate", _compile_remapped), mock.patch.object(
        qstate, "_parts", _parts_remapped
    ):
        ref = qstate._block_op(block, m, {})
    assert op.sel == ref.sel and op.fwd == ref.fwd
    assert op.mat.dtype == ref.mat.dtype and op.mat.shape == ref.mat.shape
    assert op.mat.tobytes() == ref.mat.tobytes()
