import dataclasses

import pytest

import dqc1sim.qstate
from dqc1sim.circuits import GraphSpec
from dqc1sim.errors import ContractError
from dqc1sim.gadgets import (
    MbqcPattern,
    build_W,
    compile_n_plus_1,
    compile_three,
)
from dqc1sim.verify import (
    SUITES,
    CheckResult,
    check_kernel_matches_matrix,
    reduction_conditional_tv,
    reduction_event_probability,
    run_suite,
    w_branch_stats,
)


def test_all_suites_pass():
    results = run_suite("all")
    assert len(results) == sum(len(v) for v in SUITES.values())
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.residual <= r.tolerance


def test_individual_suites_cover_everything():
    names = set()
    for suite in SUITES:
        for r in run_suite(suite):
            assert r.passed, f"{r.name}: {r.detail}"
            names.add(r.name)
    assert len(names) == sum(len(v) for v in SUITES.values())


def test_unknown_suite_rejected():
    with pytest.raises(ContractError):
        run_suite("nonsense")


def test_check_result_shape():
    r = run_suite("qstate")[0]
    assert isinstance(r, CheckResult)
    assert dataclasses.is_dataclass(r)
    assert isinstance(r.name, str) and r.name
    assert r.tolerance > 0


# ---------------------------------------------------------------------------
# mutation sensitivity: a broken gadget must move the measurable hooks

def _chain(n):
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)))


def test_kernel_check_catches_a_broken_fused_block(monkeypatch):
    assert check_kernel_matches_matrix().passed
    block_op = dqc1sim.qstate._block_op

    def reversed_columns(block, m, layouts):
        op = block_op(block, m, layouts)
        return dataclasses.replace(op, mat=op.mat[:, ::-1])

    monkeypatch.setattr(dqc1sim.qstate, "_block_op", reversed_columns)
    assert not check_kernel_matches_matrix().passed


def test_w_branch_stats_healthy():
    prob, fid = w_branch_stats(_chain(3))
    assert prob == pytest.approx(0.125, abs=1e-12)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_w_polarity_mutation_is_caught():
    g = _chain(3)
    gates = list(build_W(g, 0, [1, 2, 3]))
    idx, hit = next((i, gt) for i, gt in enumerate(gates) if gt.kind == "MCX")
    bad_pol = (1,) + hit.polarities[1:]
    gates[idx] = dataclasses.replace(hit, polarities=bad_pol)
    prob, fid = w_branch_stats(g, gates=tuple(gates))
    # success probability looks unchanged, only fidelity exposes the bug
    assert prob == pytest.approx(0.125, abs=1e-10)
    assert fid < 0.5


def test_reduction_postselect_mutation_is_caught():
    pattern = MbqcPattern(_chain(3), {0: 0.3, 1: -0.7}, (2,))
    red = compile_n_plus_1(pattern)
    assert reduction_conditional_tv(red) <= 1e-9

    flipped = {q: 1 - b for q, b in red.postselect.items()}
    bad = dataclasses.replace(red, postselect=flipped)
    assert reduction_conditional_tv(bad) > 1e-3


def test_reduction_alignment_mutation_is_caught():
    pattern = MbqcPattern(_chain(3), {0: 0.4, 1: 1.1}, (2,))
    red = compile_three(pattern)
    assert reduction_conditional_tv(red) <= 1e-9

    # drop the first measurement-alignment rotation
    inner = red.circuit.circuit
    gates = list(inner.gates)
    idx = next(i for i, g in enumerate(gates) if g.kind == "U1Q")
    del gates[idx]
    bad_dc = dataclasses.replace(
        red.circuit, circuit=dataclasses.replace(inner, gates=tuple(gates))
    )
    bad = dataclasses.replace(red, circuit=bad_dc)
    assert reduction_conditional_tv(bad) > 1e-3


def test_reduction_event_probability_closed_form():
    pattern = MbqcPattern(_chain(4), {0: 0.2, 1: 0.5, 2: -0.9}, (3,))
    n = 4
    assert reduction_event_probability(compile_n_plus_1(pattern)) == pytest.approx(
        2.0 ** -n * 2.0 ** -(n - 1), abs=1e-12
    )
    assert reduction_event_probability(compile_three(pattern)) == pytest.approx(
        2.0 ** -(n + 1) * 2.0 ** -(n - 1), abs=1e-12
    )
