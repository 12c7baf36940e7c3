import math
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dqc1sim.circuits
import dqc1sim.engine
import dqc1sim.qstate
from dqc1sim.bits import fold
from dqc1sim.circuits import (
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
    cnot,
    cu,
    cz,
    graph_proj_x,
    h,
    mcx,
    rz,
    serialize_circuit,
    x,
)
from dqc1sim.cli import main
from dqc1sim.engine import (
    _cut,
    _passing,
    _shot_counts,
    _starts,
    _summed_weights,
    all_zeros_probability,
    build_input,
    conditional_distribution,
    density_distribution,
    exact_distribution,
    sample,
)
from dqc1sim.distributions import selector
from dqc1sim.errors import (
    ContractError,
    PostselectionImpossibleError,
    ResourceError,
    ValidationError,
)
from dqc1sim.gadgets import (
    build_trace_circuit,
    compile_n_plus_1,
    compile_three,
    controlled_gates,
    pattern_from_rotations,
)
from dqc1sim.qstate import compile_circuit
from dqc1sim.randcirc import random_circuit, random_dqc1, random_unitary


def _plain(total, gates, clean=(0,), measured=None):
    measured = tuple(range(total)) if measured is None else measured
    return Dqc1Circuit(Circuit(total, tuple(gates)), clean, measured)


# ---------------------------------------------------------------------------
# input construction

def test_build_input_density_shape():
    dc = _plain(3, ())
    rho = build_input(dc)
    assert rho.shape == (8, 8)
    diag = np.real(np.diag(rho))
    # clean qubit 0 pinned to 0: only indices with MSB 0 are populated
    assert np.allclose(diag[:4], 0.25)
    assert np.allclose(diag[4:], 0.0)


def test_build_input_validates():
    # The run context checks itself when built, so no engine call sees it.
    with pytest.raises(ValidationError):
        Dqc1Circuit(Circuit(2, ()), (0, 0), (0,))


def test_build_input_density_cap():
    dc = _plain(13, ())
    with pytest.raises(ResourceError):
        build_input(dc)


# ---------------------------------------------------------------------------
# exact distributions

def test_no_gate_clean_measurement_is_deterministic():
    assert exact_distribution(_plain(1, ())).probs == pytest.approx({"0": 1.0, "1": 0.0})


def test_no_gate_mixed_measurement_is_uniform():
    dc = Dqc1Circuit(Circuit(2, ()), (0,), (1,))
    assert exact_distribution(dc).probs == pytest.approx({"0": 0.5, "1": 0.5})


def test_methods_agree_on_fixed_circuit():
    dc = _plain(3, (h(0), cnot(0, 1), x(2)))
    d_density = density_distribution(dc)
    d_mixture = exact_distribution(dc)
    assert d_density.total_variation(d_mixture) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_methods_agree_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(1, 7))
    dc = random_dqc1(rng, total, int(rng.integers(0, 10)))
    d_density = density_distribution(dc)
    d_mixture = exact_distribution(dc)
    assert d_density.total_variation(d_mixture) < 1e-10


def test_density_method_respects_cap():
    dc = _plain(13, (), measured=(0,))
    with pytest.raises(ResourceError):
        density_distribution(dc)
    # the mixture route is not bounded by the density cap
    d = exact_distribution(dc)
    assert d.prob("0") == pytest.approx(1.0)


def test_exact_cap_is_hard():
    dc = _plain(17, (), measured=(0,))
    with pytest.raises(ResourceError):
        exact_distribution(dc)


def test_exact_cap_is_configurable(monkeypatch):
    monkeypatch.setattr("dqc1sim.engine.EXACT_CAP", 6)
    big = _plain(7, (), measured=(0,))
    with pytest.raises(ResourceError):
        exact_distribution(big)
    ok = _plain(6, (), measured=(0,))
    assert exact_distribution(ok).prob("0") == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# conditioning and marginals

def test_conditional_distribution_drops_postselected_qubit():
    # both qubits clean so the CNOT correlates them perfectly
    dc = _plain(2, (h(0), cnot(0, 1)), clean=(0, 1))
    cond, event = conditional_distribution(dc, {0: 1})
    assert event == pytest.approx(0.5)
    assert cond.measured_qubits == (1,)
    assert cond.prob("1") == pytest.approx(1.0)


def test_conditional_impossible_event_raises():
    dc = _plain(2, ())
    with pytest.raises(PostselectionImpossibleError):
        conditional_distribution(dc, {0: 1})


def test_postselection_spec_equivalent_to_mapping():
    # Any mapping of qubit to bit will do, numpy integers included.
    dc = _plain(2, (h(0), cnot(0, 1)))
    via_spec, _ = conditional_distribution(dc, MappingProxyType({np.int64(0): np.int64(0)}))
    via_map, _ = conditional_distribution(dc, {0: 0})
    assert via_spec.probs == via_map.probs


def test_marginal_helper():
    dc = _plain(2, (h(0),), clean=(0, 1))
    d = exact_distribution(dc)
    assert d.marginal((1,)).prob("0") == pytest.approx(1.0)
    assert d.marginal((0,)).prob("1") == pytest.approx(0.5)


def test_all_zeros_probability_requires_clean_measurement():
    dc = Dqc1Circuit(Circuit(2, ()), (0,), (1,))
    with pytest.raises(ContractError):
        all_zeros_probability(dc)


def test_all_zeros_probability_identity_circuit():
    dc = Dqc1Circuit(Circuit(2, ()), (0,), (0,))
    assert all_zeros_probability(dc) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# sampling

def test_sample_deterministic_given_seed():
    dc = _plain(3, (h(0), cnot(0, 1)))
    a = sample(dc, 500, seed=9)
    b = sample(dc, 500, seed=9)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert a.counts() == b.counts()


def test_sample_differs_across_seeds():
    dc = Dqc1Circuit(Circuit(1, (h(0),)), (0,), (0,))
    a = sample(dc, 200, seed=1)
    b = sample(dc, 200, seed=2)
    assert not np.array_equal(a.outcomes, b.outcomes)


def test_sample_counts_sum_to_shots():
    dc = _plain(2, (h(0),))
    rec = sample(dc, 333, seed=5)
    assert sum(rec.counts().values()) == 333
    assert all(len(k) == 2 for k in rec.counts())


def test_sample_prefix_stability():
    # counter-based streams: the first shots of a longer run equal a shorter run
    dc = _plain(2, (h(0), cnot(0, 1)))
    short = sample(dc, 100, seed=77)
    long = sample(dc, 1000, seed=77)
    assert np.array_equal(long.outcomes[:100], short.outcomes)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([2, 3, 4096]),
    postselect=st.booleans(),
    shots=st.integers(1, 9000),
)
def test_shot_chunks_keep_every_shot(seed, chunk, postselect, shots):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    dc = random_dqc1(rng, m, 12, measured_count=int(rng.integers(1, m + 1)))
    if postselect:
        ps = {dc.measured[0]: int(rng.integers(2))}
        dc = Dqc1Circuit(dc.circuit, dc.clean_qubits, dc.measured, postselect=ps)
    try:
        whole = sample(dc, shots, seed=seed)
    except PostselectionImpossibleError:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dqc1sim.engine, "SHOT_CHUNK", chunk)
        chunked = sample(dc, shots, seed=seed)
        counts = _shot_counts(dc, shots, seed=seed)
    assert chunked.outcomes.tobytes() == whole.outcomes.tobytes()
    assert chunked.counts() == whole.counts()
    assert counts.tolist() == np.bincount(whole.outcomes, minlength=len(counts)).tolist()


def test_grouped_and_table_draws_agree_on_a_prefix(monkeypatch):
    # k = 3 on 8 mixed wires: a table of 256 rows of 8 entries outweighs
    # grouping 100 shots, not 4096, so the two runs take the two paths.
    u = random_circuit(np.random.default_rng(8), 9, 40)
    dc = Dqc1Circuit(u, (0,), (0, 4, 8))
    grouped = []
    group = dqc1sim.engine._grouped_outcomes
    monkeypatch.setattr(
        dqc1sim.engine, "_grouped_outcomes", lambda *a: grouped.append(1) or group(*a)
    )
    short = sample(dc, 100, seed=6).outcomes
    assert grouped == [1]
    long = sample(dc, 4096, seed=6).outcomes
    assert grouped == [1]
    assert np.array_equal(long[:100], short)


def test_each_drawn_start_runs_once_over_many_chunks(monkeypatch):
    # 100 chunks over 4 starts: later chunks draw no new start, so they
    # neither compile nor run a pure state.
    monkeypatch.setattr(dqc1sim.engine, "SHOT_CHUNK", 10)
    compiled = []
    monkeypatch.setattr(
        dqc1sim.engine, "compile_circuit", lambda *a: compiled.append(1) or compile_circuit(*a)
    )
    rows = _pure_run_count(monkeypatch)
    dc = _plain(3, (h(0), cnot(0, 1), h(2)), measured=(0,))
    sample(dc, 1000, seed=2)
    assert compiled == [1]
    assert sum(rows) == 4


def test_sample_peak_memory_is_its_record():
    # 8 bytes a shot for the outcomes, one chunk's arrays on top.
    dc = build_trace_circuit(random_circuit(np.random.default_rng(4), 9, 30), "real")
    shots = 1 << 20
    sample(dc, 1000, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample(dc, shots, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * shots + (2 << 20)


def test_sample_binomial_concentration():
    dc = Dqc1Circuit(Circuit(2, ()), (0,), (1,))
    shots = 100_000
    rec = sample(dc, shots, seed=3)
    frac = rec.counts().get("0", 0) / shots
    assert abs(frac - 0.5) < 5 * 0.5 / math.sqrt(shots)


def test_sample_postselected_circuit():
    dc = Dqc1Circuit(
        Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1), postselect={0: 1}
    )
    rec = sample(dc, 400, seed=11)
    assert rec.counts() == {"11": 400}


def test_sample_postselected_mixed_register():
    # with the second qubit mixed the postselected branch stays uniform on it
    dc = Dqc1Circuit(
        Circuit(2, (h(0), cnot(0, 1))), (0,), (0, 1), postselect={0: 1}
    )
    rec = sample(dc, 4000, seed=11)
    counts = rec.counts()
    assert set(counts) == {"10", "11"}
    assert abs(counts["11"] / 4000 - 0.5) < 0.05


def test_postselected_draw_keeps_the_forced_bits(monkeypatch):
    # The conditional cdf ends at 1 - 2^-53 here; a uniform just below 1
    # falls past it and must still draw an outcome with qubit 0 reading 0.
    u = random_circuit(np.random.default_rng(3), 4, 20)
    dc = Dqc1Circuit(u, (0, 1), (0, 1, 3), postselect={0: 0})
    top = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(dqc1sim.engine, "_shot_uniforms", lambda seed, shots: np.full((shots, 2), top))
    assert {key[0] for key in sample(dc, 8, seed=0).bitstrings()} == {"0"}


def _clean_wire_last(seed, clean, postselect):
    """A random circuit on wires 1-3 with wire 0 clean, untouched and
    measured last: every outcome whose last bit reads 1 has probability 0."""
    u = random_circuit(np.random.default_rng(seed), 3, 20)
    gates = tuple(g.remapped(lambda q: q + 1) for g in u.gates)
    return Dqc1Circuit(Circuit(4, gates), clean, (1, 2, 3, 0), postselect)


# Postselected, wire 1 is clean too, so the conditional pmf is not uniform.
@pytest.mark.parametrize(
    "clean, postselect", [((0,), None), ((0, 1), {2: 0})], ids=["plain", "postselected"]
)
def test_rounding_gap_never_draws_an_outcome_of_weight_zero(monkeypatch, clean, postselect):
    # A row total (or conditional cdf) of 1 - 2^-53 leaves a gap below 1;
    # a uniform in it must land on the last outcome with weight, not on
    # the last outcome, which reads the clean wire 0 as 1.
    top = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(dqc1sim.engine, "_shot_uniforms", lambda seed, shots: np.full((shots, 2), top))
    for seed in range(40):
        dc = _clean_wire_last(seed, clean, postselect)
        assert {key[-1] for key in sample(dc, 4, seed=0).bitstrings()} == {"0"}


def test_full_postselection_is_rejected_before_any_run(monkeypatch):
    dc = Dqc1Circuit(Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1), postselect={0: 1, 1: 1})
    monkeypatch.setattr(dqc1sim.engine, "_mixture_outcome_weights", _raise)
    with pytest.raises(ContractError, match="postselection leaves no measured qubits"):
        conditional_distribution(dc, dc.postselect)


def test_sample_impossible_postselection():
    dc = Dqc1Circuit(Circuit(1, ()), (0,), (0,), postselect={0: 1})
    with pytest.raises(PostselectionImpossibleError):
        sample(dc, 10, seed=1)


def test_sample_bitstrings_match_outcomes():
    dc = _plain(2, (h(0),))
    rec = sample(dc, 50, seed=21)
    strings = list(rec.bitstrings())
    assert len(strings) == 50
    assert strings[0] == format(int(rec.outcomes[0]), "02b")


# ---------------------------------------------------------------------------
# compile once per job

def test_graph_state_vector_built_once_per_job(monkeypatch):
    calls = []
    original = GraphSpec.state_vector

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GraphSpec, "state_vector", counted)
    # One GraphProjX; 2^4 mixed-register basis states, all of them drawn.
    gadget = graph_proj_x(GraphSpec(2, ((0, 1),)), (1, 2), 0, extra_zero=3)
    dc = _plain(5, (h(1), gadget, h(4)), measured=(0, 4))
    exact_distribution(dc)
    assert len(calls) == 1
    sample(dc, 2000, seed=5)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# routes and blocks

def _route_circuit(seed, m, postselect=False, clean=None):
    """A seeded random circuit on m qubits followed by one MCX, one CU and
    GraphProjX gates without and (from m = 4) with a forced-zero qubit."""
    rng = np.random.default_rng(seed)
    clean = 1 + m % 2 if clean is None else clean
    base = random_dqc1(rng, m, 12, clean_count=clean, measured_count=min(m, 3))
    extra = [
        mcx((0,), (0,), m - 1),
        cu(random_unitary(rng, 2), (0,), (m - 1,)),
        graph_proj_x(GraphSpec(1, ()), (m - 1,), 0),
    ]
    if m >= 3:
        pair = GraphSpec(2, ((0, 1),))
        extra.append(graph_proj_x(pair, (1, 2), 0, extra_zero=None if m == 3 else 3))
    if m >= 4:
        extra.append(graph_proj_x(GraphSpec(1, ()), (m - 1,), 1, extra_zero=2))
    circuit = Circuit(m, base.circuit.gates + tuple(extra))
    dc = Dqc1Circuit(circuit, base.clean_qubits, base.measured)
    if postselect:
        first = exact_distribution(dc).marginal((dc.measured[0],))
        bit = int(first.pmf[1] >= 0.5)  # the likelier bit, so the event is possible
        dc = Dqc1Circuit(circuit, dc.clean_qubits, dc.measured, postselect={dc.measured[0]: bit})
    return dc


def _raise(*args, **kwargs):
    raise AssertionError("this route must not call me")


def test_qstate_imports_nothing_of_the_dense_oracle():
    for name in ("gate_matrix", "circuit_matrix", "check_unitary"):
        assert not hasattr(dqc1sim.qstate, name)


def test_auto_never_calls_the_dense_oracle(monkeypatch):
    dc = _route_circuit(5, 5, postselect=True)
    monkeypatch.setattr(dqc1sim.engine, "gate_matrix", _raise)
    monkeypatch.setattr(dqc1sim.circuits, "gate_matrix", _raise)
    exact_distribution(dc)
    conditional_distribution(dc, dc.postselect)
    sample(dc, 100, seed=1)


def test_density_never_runs_the_pure_kernels(monkeypatch):
    # Nor anything else of qstate's: the oracle shares no step with it.
    dc = _route_circuit(6, 5)
    monkeypatch.setattr(dqc1sim.engine, "_apply_gate_kernel", _raise)
    monkeypatch.setattr(dqc1sim.engine, "_mixture_outcome_weights", _raise)
    for module in (dqc1sim.qstate, dqc1sim.engine):
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) == "dqc1sim.qstate":
                monkeypatch.setattr(module, name, _raise)
    density_distribution(dc)


def test_density_route_validates_once(monkeypatch):
    # The final matrix only; not once more per gate.
    dc = _route_circuit(7, 5)
    calls = []
    check = dqc1sim.engine._check_density
    monkeypatch.setattr(dqc1sim.engine, "_check_density", lambda rho: calls.append(1) or check(rho))
    density_distribution(dc)
    assert len(dc.gates) > 2 and len(calls) == 1


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("postselect", [False, True])
def test_auto_is_the_mixture_route_and_matches_the_oracle(m, postselect):
    dc = _route_circuit(100 + m, m, postselect)
    got, want = exact_distribution(dc), density_distribution(dc)
    assert np.max(np.abs(got.pmf - want.pmf)) <= 1e-12
    if postselect:
        got, event = conditional_distribution(dc, dc.postselect)
        want, want_event = want.condition(dc.postselect)
        assert np.max(np.abs(got.pmf - want.pmf)) <= 1e-12
        assert abs(event - want_event) <= 1e-12


@pytest.mark.parametrize(
    "m, seed", [(m, seed) for m in range(2, 9) for seed in range(3)] + [(m, 0) for m in (9, 10, 11)]
)
def test_blocks_match_one_basis_state_per_block(m, seed, monkeypatch):
    # Small states matter most: there a state of fewer than 4 columns runs
    # alone, with a lone state's strides.  From m = 9 on, 3-state blocks
    # give products of over 192 columns, which go in smaller products.
    dc = _route_circuit(200 + 10 * seed + m, m, clean=1)
    rows = 3  # from m = 3 on: several blocks, the last one partial
    assert (1 << len(dc.mixed_qubits)) % rows != 0
    monkeypatch.setattr(dqc1sim.engine, "BLOCK_AMPLITUDES", 1)
    lone = exact_distribution(dc).pmf.tobytes(), sample(dc, 2000, seed=m).outcomes.tobytes()
    monkeypatch.setattr(dqc1sim.engine, "BLOCK_AMPLITUDES", rows << m)
    blocked = exact_distribution(dc).pmf.tobytes(), sample(dc, 2000, seed=m).outcomes.tobytes()
    assert blocked == lone


def _every_op_run(dc, plan, starts, buf):
    """_mixture_outcome_weights with every planned op run whole, on every
    start: none skipped, none on a slice."""
    m = dc.total_qubits
    amps = (np.arange(1 << m)[:, None] == starts).astype(complex)  # one start per column
    psi = amps.reshape((2,) * m + (len(starts),))
    for op, *_ in plan:
        op(psi)
    return fold(np.abs(amps) ** 2, m, dc.measured)


def _sliced_circuit(kind, seed):
    """A 6-qubit circuit whose first op, on both the sampled and the cut
    route, is of the given kind, with starts that fire it and starts that
    do not; the clean wire is the head's first target.  In "control", the
    mixed wire w[0] is only ever a control, of an MCX and of a CU."""
    rng = np.random.default_rng(seed)
    w = [int(q) for q in rng.permutation(6)]
    tail = list(random_circuit(rng, 6, 8).gates)
    if kind == "peeled":
        # Every gate under the mixed wire w[0], as in a trace circuit, so
        # each fused block peels w[0] off as a control.  The head is a
        # controlled H on the clean wire w[1]: H is not diagonal, so w[1]
        # cannot be peeled before w[0] (a symmetric controlled phase, such
        # as controlled Sdg then Tdg, would let the lower wire go first).
        u = (g.remapped(lambda q: w[1 + q]) for g in random_circuit(rng, 5, 10).gates)
        gates = [cg for g in (h(w[1]), *u) for cg in controlled_gates(g, w[0])]
        clean = w[1]
    elif kind == "mcx0":
        # Five wires: wider than a fused block, so it stays a lone MCX.
        gates, clean = [mcx(w[:4], (0,) * 4, w[4])] + tail, w[4]
    elif kind == "graph":
        # Five wires too: the first op stays a projector flip.
        graph = GraphSpec(3, ((0, 1), (1, 2)))
        gates, clean = [graph_proj_x(graph, w[:3], w[3], w[4])] + tail, w[3]
    elif kind == "control":
        polarities = tuple(int(b) for b in rng.integers(0, 2, size=4))
        body = [g.remapped(lambda q: w[1 + q]) for g in random_circuit(rng, 5, 8).gates]
        head = [h(w[1]), mcx(w[:4], polarities, w[5]), cu(random_unitary(rng, 2), (w[1],), (w[0],))]
        gates, clean = head + body, w[1]
    else:
        gates, clean = tail, w[0]
    measured = tuple(sorted({clean, w[5], w[2]}))
    return Dqc1Circuit(Circuit(6, tuple(gates)), (clean,), measured)


def _route_bytes(dc, bit):
    ps = {dc.measured[-1]: bit}
    try:
        cond, event = conditional_distribution(dc, ps)
        cond = (cond.pmf.tobytes(), float(event).hex())
    except PostselectionImpossibleError:
        cond = "impossible"
    baked = Dqc1Circuit(dc.circuit, dc.clean_qubits, dc.measured, postselect=ps)
    try:
        baked_shots = sample(baked, 300, seed=5).outcomes.tobytes()
    except PostselectionImpossibleError:
        baked_shots = "impossible"
    shots = sample(dc, 3000, seed=4).outcomes.tobytes()
    return exact_distribution(dc).pmf.tobytes(), cond, shots, baked_shots


SLICED_KINDS = ("peeled", "mcx0", "graph", "control", "random")


def _sliced_runs_keep_every_byte(kind, seed, rows, bit):
    # rows starts per block: one, a partial last block of 32 mixed starts,
    # or all of them in one.
    dc = _sliced_circuit(kind, seed)
    engine = dqc1sim.engine
    first = [compile_circuit(gates, 6)[0] for gates in (dc.gates, _cut(dc)) if gates]
    if kind == "peeled":
        control = dc.gates[0].controls[0]
        assert all(op.fire.get(control) == 1 for op in first)
    elif kind == "mcx0":
        assert all(op.fire == dict.fromkeys(dc.gates[0].controls, 0) for op in first)
    elif kind == "graph":
        assert all(type(op).__name__ == "_GraphFlip" for op in first)
    elif kind == "control":
        lone = dc.gates[1]  # the MCX, a lone op with w[0] among its controls
        ops = [compile_circuit(gates, 6) for gates in (dc.gates, _cut(dc))]
        assert all(o[1].fire == dict(zip(lone.controls, lone.polarities)) for o in ops)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "BLOCK_AMPLITUDES", rows << 6)
        sliced = _route_bytes(dc, bit)
        mp.setattr(engine, "_mixture_outcome_weights", _every_op_run)
        whole = _route_bytes(dc, bit)
    assert sliced == whole


@settings(max_examples=40)
@given(
    kind=st.sampled_from(SLICED_KINDS),
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([1, 3, 32]),
    bit=st.integers(0, 1),
)
# Without the controlled H head, this circuit opens with controlled Sdg
# then Tdg on wire 1 under control 4, a symmetric phase, and the block
# peeled wire 1 instead of the control.
@example(kind="peeled", seed=39647, rows=1, bit=0)
# Slices that leave a state fewer than 4 columns round this one otherwise.
@example(kind="peeled", seed=5, rows=1, bit=0)
def test_sliced_runs_keep_every_byte(kind, seed, rows, bit):
    _sliced_runs_keep_every_byte(kind, seed, rows, bit)


def test_an_op_runs_only_for_the_starts_that_fire_it(monkeypatch):
    # One start per block, so every wire stays classical until an op
    # targets it: H on the clean wire runs for every start, the lone MCX
    # for those that read its polarities on wires 1 to 4, and the CU for
    # those that read 1 on wire 5.
    u = random_unitary(np.random.default_rng(3), 2)
    gates = (h(0), mcx((1, 2, 3, 4), (0, 1, 1, 0), 0), cu(u, (0,), (5,)))
    dc = Dqc1Circuit(Circuit(6, gates), (0,), (0,))
    engine = dqc1sim.engine
    run, kernel = engine._mixture_outcome_weights, engine._apply_gate_kernel
    ran, block = [], []

    def each_block(dc, plan, starts, buf):
        block[:] = [[id(entry[0]) for entry in plan], int(starts[0])]
        return run(dc, plan, starts, buf)

    def each_op(op, *args):
        ops, start = block
        ran.append((ops.index(id(op)), start))
        return kernel(op, *args)

    monkeypatch.setattr(engine, "BLOCK_AMPLITUDES", 1 << 6)
    monkeypatch.setattr(engine, "_mixture_outcome_weights", each_block)
    monkeypatch.setattr(engine, "_apply_gate_kernel", each_op)
    exact_distribution(dc)
    starts = _starts(dc).tolist()
    fires = ([True] * 32, [s >> 1 & 0b1111 == 0b0110 for s in starts], [s & 1 == 1 for s in starts])
    assert sorted(ran) == [(i, s) for i, f in enumerate(fires) for s, on in zip(starts, f) if on]
    assert len(ran) == 32 + 2 + 16


# ---------------------------------------------------------------------------
# the conditional route: cut, then only the starts that can pass

_CLASSICAL_KINDS = ("X", "CNOT", "MCX", "Z", "S", "Sdg", "T", "Tdg", "RZ", "CZ")


def _classical_gate(rng, m):
    """A random bit flip or diagonal gate on m >= 2 wires."""
    kind = _CLASSICAL_KINDS[int(rng.integers(len(_CLASSICAL_KINDS)))]
    wires = [int(q) for q in rng.permutation(m)]
    if kind == "CNOT":
        return cnot(wires[0], wires[1])
    if kind == "CZ":
        return cz(wires[0], wires[1])
    if kind == "MCX":
        k = int(rng.integers(0, min(3, m - 1) + 1))
        return mcx(wires[1 : k + 1], tuple(int(b) for b in rng.integers(0, 2, size=k)), wires[0])
    if kind == "RZ":
        return rz(float(rng.uniform(-np.pi, np.pi)), wires[0])
    return Gate(kind, (wires[0],))


def _prefixed_circuit(seed, m, body_gates=6):
    """A seeded postselected circuit on m >= 2 qubits: flips and diagonal
    gates, a random body on some of the wires, then more flips and
    diagonal gates.  The postselection fixes some measured qubits to their
    bits in the likeliest outcome of the cut circuit, so it can pass."""
    rng = np.random.default_rng(seed)
    clean = tuple(sorted(int(q) for q in rng.choice(m, int(rng.integers(1, 3)), replace=False)))
    body_wires = [int(q) for q in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)]
    body = random_circuit(rng, len(body_wires), body_gates).gates
    gates = [_classical_gate(rng, m) for _ in range(int(rng.integers(2, 8)))]
    gates += [g.remapped(dict(enumerate(body_wires))) for g in body]
    gates += [_classical_gate(rng, m) for _ in range(int(rng.integers(0, 4)))]
    measured = tuple(int(q) for q in rng.permutation(m)[: int(rng.integers(2, min(m, 4) + 1))])
    dc = Dqc1Circuit(Circuit(m, gates), clean, measured)
    likeliest = int(np.argmax(exact_distribution(_cut_circuit(dc)).pmf))
    k = len(measured)
    fixed = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
    ps = {measured[i]: (likeliest >> (k - 1 - i)) & 1 for i in sorted(int(i) for i in fixed)}
    return Dqc1Circuit(dc.circuit, clean, measured, postselect=ps)


def _cut_circuit(dc):
    return Dqc1Circuit(Circuit(dc.total_qubits, _cut(dc)), dc.clean_qubits, dc.measured)


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=80, deadline=None)
def test_pruned_conditional_is_the_cut_run_over_every_start(seed, m):
    dc = _prefixed_circuit(seed, m)
    want, want_event = exact_distribution(_cut_circuit(dc)).condition(dc.postselect)
    got, event = conditional_distribution(dc, dc.postselect)
    assert got.measured_qubits == want.measured_qubits
    assert got.pmf.tobytes() == want.pmf.tobytes()
    assert event == want_event


@pytest.mark.parametrize("m", range(2, 11))
def test_pruned_conditional_matches_the_oracle(m):
    dc = _prefixed_circuit(300 + m, m, body_gates=4 if m > 8 else 8)
    got, event = conditional_distribution(dc, dc.postselect)
    want, want_event = density_distribution(dc).condition(dc.postselect)
    assert np.max(np.abs(got.pmf - want.pmf)) <= 1e-12
    assert abs(event - want_event) <= 1e-12


@pytest.mark.parametrize("compiler", [compile_three, compile_n_plus_1])
@pytest.mark.parametrize("vertices", [2, 4, 6])
def test_pruned_reductions_match_the_oracle(compiler, vertices):
    red = compiler(pattern_from_rotations([0.7 - 0.4 * i for i in range(vertices - 1)]))
    got, event = conditional_distribution(red.circuit, red.postselect)
    want, want_event = density_distribution(red.circuit).condition(red.postselect)
    assert np.max(np.abs(got.pmf - want.pmf)) <= 1e-12
    assert abs(event - want_event) <= 1e-12


def test_rule_a_drops_gates_before_any_clean_wire():
    # h(1) and cnot(1, 2) act on I/4 before wire 1 meets the clean wire;
    # h(3) acts on wire 3 alone, which no clean wire ever reaches.
    early = [h(1), cnot(1, 2)]
    late = [h(0), cnot(0, 1), h(3), cnot(1, 2)]
    dc = Dqc1Circuit(Circuit(4, early + late), (0,), (0, 1, 2, 3))
    assert _cut(dc) == [late[0], late[1], late[3]]
    mixture, density = exact_distribution(dc), density_distribution(dc)
    assert np.max(np.abs(mixture.pmf - density.pmf)) <= 1e-12
    ps = {0: 1, 2: 0}
    got, _ = conditional_distribution(dc, ps)
    want, _ = density.condition(ps)
    assert np.max(np.abs(got.pmf - want.pmf)) <= 1e-12


def _pure_run_count(monkeypatch):
    rows = []
    run = dqc1sim.engine._mixture_outcome_weights
    monkeypatch.setattr(
        dqc1sim.engine,
        "_mixture_outcome_weights",
        lambda dc, plan, starts, buf: rows.append(len(starts)) or run(dc, plan, starts, buf),
    )
    return rows


@pytest.mark.parametrize("vertices", [3, 5, 7])
def test_one_start_survives_a_compile_three_chain(vertices, monkeypatch):
    # The clean wire is set by one all-zero MCX from the ancilla and the
    # register, then never touched: only the all-zero start can flip it.
    dc = compile_three(pattern_from_rotations([0.3] * (vertices - 1))).circuit
    starts, gates = _starts(dc), _cut(dc)
    passing = _passing(starts, gates, dc.total_qubits, dc.postselect)
    assert len(starts) == 1 << (vertices + 1)
    assert starts[passing].tolist() == [0]
    rows = _pure_run_count(monkeypatch)
    _, event = conditional_distribution(dc, dc.postselect)
    assert rows == [1]
    assert abs(event * 2.0 ** (2 * vertices) - 1.0) <= 1e-12


def test_no_surviving_start_is_impossible(tmp_path, capsys, monkeypatch):
    # Wire 0 reads bit 1 xor bit 1 = 0 on every start.
    dc = Dqc1Circuit(Circuit(3, (cnot(1, 0), h(2), cnot(1, 0))), (0,), (0, 2))
    starts = _starts(dc)
    assert not _passing(starts, _cut(dc), 3, {0: 1}).any()
    rows = _pure_run_count(monkeypatch)
    with pytest.raises(PostselectionImpossibleError):
        conditional_distribution(dc, {0: 1})
    assert rows == []
    path = tmp_path / "never.json"
    path.write_text(serialize_circuit(dc))
    assert main(["exact", "--circuit", str(path), "--postselect", "0=1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


def test_the_filter_needs_the_cut():
    # Run the one passing start through the uncut gates instead: the
    # graph-state un-preparation spreads it over the 2^4 register states,
    # so the event comes out 16 times too small.
    dc = compile_three(pattern_from_rotations([0.4, -1.2, 2.1])).circuit
    starts = _starts(dc)
    passing = starts[_passing(starts, _cut(dc), dc.total_qubits, dc.postselect)]
    _, wrong = selector(dc.measured, dc.postselect)[1](_summed_weights(dc, dc.gates, passing))
    _, event = conditional_distribution(dc, dc.postselect)
    _, oracle = density_distribution(dc).condition(dc.postselect)
    assert abs(event - oracle) <= 1e-12
    assert abs(wrong * 16 - oracle) <= 1e-12
