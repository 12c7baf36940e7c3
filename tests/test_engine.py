import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqc1sim.circuits
import dqc1sim.engine
import dqc1sim.qstate
from dqc1sim.circuits import Circuit, Dqc1Circuit, GraphSpec, cnot, cu, graph_proj_x, h, mcx, x
from dqc1sim.engine import (
    all_zeros_probability,
    build_input,
    conditional_distribution,
    exact_distribution,
    sample,
)
from dqc1sim.errors import (
    ContractError,
    PostselectionImpossibleError,
    ResourceError,
    ValidationError,
)
from dqc1sim.randcirc import random_dqc1, random_unitary


def _plain(total, gates, clean=(0,), measured=None):
    measured = tuple(range(total)) if measured is None else measured
    return Dqc1Circuit(Circuit(total, tuple(gates)), clean, measured)


# ---------------------------------------------------------------------------
# input construction

def test_build_input_density_shape():
    dc = _plain(3, ())
    rho = build_input(dc)
    assert rho.entries.shape == (8, 8)
    diag = np.real(np.diag(rho.entries))
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
    d_density = exact_distribution(dc, "density")
    d_mixture = exact_distribution(dc, "mixture")
    assert d_density.total_variation(d_mixture) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_methods_agree_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(1, 7))
    dc = random_dqc1(rng, total, int(rng.integers(0, 10)))
    d_density = exact_distribution(dc, "density")
    d_mixture = exact_distribution(dc, "mixture")
    assert d_density.total_variation(d_mixture) < 1e-10


def test_density_method_respects_cap():
    dc = _plain(13, (), measured=(0,))
    with pytest.raises(ResourceError):
        exact_distribution(dc, "density")
    # the default mixture route is not bounded by the density cap
    d = exact_distribution(dc, "mixture")
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


def test_unknown_method_rejected():
    for method in ("exactly", "auto"):
        with pytest.raises(ContractError):
            exact_distribution(_plain(1, ()), method)


# ---------------------------------------------------------------------------
# conditioning and marginals

def test_conditional_distribution_drops_postselected_qubit():
    # both qubits clean so the CNOT correlates them perfectly
    dc = _plain(2, (h(0), cnot(0, 1)), clean=(0, 1))
    cond = conditional_distribution(dc, {0: 1})
    assert cond.measured_qubits == (1,)
    assert cond.prob("1") == pytest.approx(1.0)


def test_conditional_impossible_event_raises():
    dc = _plain(2, ())
    with pytest.raises(PostselectionImpossibleError):
        conditional_distribution(dc, {0: 1})


def test_postselection_spec_equivalent_to_mapping():
    # Any mapping of qubit to bit will do, numpy integers included.
    dc = _plain(2, (h(0), cnot(0, 1)))
    via_spec = conditional_distribution(dc, MappingProxyType({np.int64(0): np.int64(0)}))
    via_map = conditional_distribution(dc, {0: 0})
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
    exact_distribution(dc, "mixture")
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


def test_auto_never_calls_the_dense_oracle(monkeypatch):
    dc = _route_circuit(5, 5, postselect=True)
    monkeypatch.setattr(dqc1sim.engine, "evolve_density", _raise)
    monkeypatch.setattr(dqc1sim.qstate, "gate_matrix", _raise)
    monkeypatch.setattr(dqc1sim.circuits, "gate_matrix", _raise)
    exact_distribution(dc)
    conditional_distribution(dc, dc.postselect)
    sample(dc, 100, seed=1)


def test_density_never_runs_the_pure_kernels(monkeypatch):
    dc = _route_circuit(6, 5)
    monkeypatch.setattr(dqc1sim.engine, "_apply_gate_kernel", _raise)
    exact_distribution(dc, "density")


def test_density_route_validates_once(monkeypatch):
    # The input and the final matrix; not once more per gate.
    dc = _route_circuit(7, 5)
    calls = []
    check = dqc1sim.qstate.DensityMatrix.__post_init__
    monkeypatch.setattr(
        dqc1sim.qstate.DensityMatrix, "__post_init__", lambda rho: calls.append(1) or check(rho)
    )
    exact_distribution(dc, "density")
    assert len(dc.gates) > 2 and len(calls) == 2


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("postselect", [False, True])
def test_auto_is_the_mixture_route_and_matches_the_oracle(m, postselect):
    dc = _route_circuit(100 + m, m, postselect)
    routes = [exact_distribution]
    if postselect:
        routes.append(lambda dc, *method: conditional_distribution(dc, dc.postselect, *method))
    for route in routes:
        default, mixture, density = route(dc), route(dc, "mixture"), route(dc, "density")
        assert default.pmf.tobytes() == mixture.pmf.tobytes()
        assert np.max(np.abs(default.pmf - density.pmf)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", range(2, 9))
def test_blocks_match_one_basis_state_per_block(m, seed, monkeypatch):
    # Small states matter most: there numpy picks its product loop by the
    # strides of each reshaped view, which a batch must not change.
    dc = _route_circuit(200 + 10 * seed + m, m, clean=1)
    rows = 3  # from m = 3 on: several blocks, the last one partial
    assert (1 << len(dc.mixed_qubits)) % rows != 0
    monkeypatch.setattr(dqc1sim.engine, "BLOCK_AMPLITUDES", 1)
    lone = exact_distribution(dc).pmf.tobytes(), sample(dc, 2000, seed=m).outcomes.tobytes()
    monkeypatch.setattr(dqc1sim.engine, "BLOCK_AMPLITUDES", rows << m)
    blocked = exact_distribution(dc).pmf.tobytes(), sample(dc, 2000, seed=m).outcomes.tobytes()
    assert blocked == lone
