import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim.analysis import (
    INCOMPARABLE,
    REPORT_CHUNK,
    MultiplicativeErrorReport,
    check_conditional_bounds,
    classify_acceptance,
    estimate_trace,
    frobenius_block_norm,
    minimal_multiplicative_error,
    multiplicative_error_report,
    parse_distribution,
    serialize_distribution,
)
import dqc1sim.analysis
from dqc1sim.circuits import Circuit, Dqc1Circuit, h, t, x
from dqc1sim.config import REPORT_CAP, ZERO_PROB_TOL
from dqc1sim.distributions import OutcomeDistribution
from dqc1sim.engine import all_zeros_probability
from dqc1sim.errors import ContractError, ParseError, PostselectionImpossibleError
from dqc1sim.randcirc import random_circuit


def dist(qubits, probs):
    return OutcomeDistribution(tuple(qubits), dict(probs))


# ---------------------------------------------------------------------------
# trace estimation

def test_estimate_trace_identity_exact():
    est = estimate_trace(Circuit(2, ()), "real", shots=500, seed=3)
    assert est.normalized_trace_part == 1.0
    assert est.stderr == 0.0


def test_estimate_trace_pauli_x_near_zero():
    est = estimate_trace(Circuit(1, (x(0),)), "real", shots=100_000, seed=5)
    assert abs(est.normalized_trace_part) <= 5 * est.stderr + 1e-12


def test_estimate_trace_t_gate():
    est = estimate_trace(Circuit(1, (t(0),)), "real", shots=100_000, seed=7)
    want = (1.0 + math.cos(math.pi / 4)) / 2.0
    assert abs(est.normalized_trace_part - want) <= 5 * est.stderr
    est_i = estimate_trace(Circuit(1, (t(0),)), "imaginary", shots=100_000, seed=7)
    want_i = math.sin(math.pi / 4) / 2.0
    assert abs(est_i.normalized_trace_part - want_i) <= 5 * est_i.stderr


def test_estimate_trace_deterministic():
    a = estimate_trace(Circuit(1, (h(0),)), "real", shots=2000, seed=11)
    b = estimate_trace(Circuit(1, (h(0),)), "real", shots=2000, seed=11)
    assert a.normalized_trace_part == b.normalized_trace_part


def test_estimate_trace_stderr_formula():
    shots = 4000
    est = estimate_trace(Circuit(1, (h(0),)), "real", shots=shots, seed=13)
    p_hat = (est.normalized_trace_part + 1.0) / 2.0
    want = 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / shots)
    assert est.stderr == pytest.approx(want, rel=1e-12)


def test_estimate_trace_peak_memory_does_not_grow_with_shots():
    # Shots are drawn and counted a chunk at a time, so the peak at 2^22
    # shots holds one chunk's arrays, not 32 bytes a shot (128 MiB).
    u = random_circuit(np.random.default_rng(5), 9, 30)
    estimate_trace(u, shots=1000, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        estimate_trace(u, shots=1 << 22, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# ---------------------------------------------------------------------------
# block norm identity

def test_frobenius_block_norm_identity_circuit():
    # identity: top-left block is the identity on the mixed register
    c = Circuit(3, ())
    assert frobenius_block_norm(c, 1) == pytest.approx(1.0)
    assert frobenius_block_norm(c, 2) == pytest.approx(1.0)


def test_frobenius_block_norm_hadamard():
    # A = top-left block of H (x) I = I/sqrt(2)
    assert frobenius_block_norm(Circuit(2, (h(0),)), 1) == pytest.approx(0.5)


def test_frobenius_block_norm_bounds_check():
    c = Circuit(2, ())
    with pytest.raises(ContractError):
        frobenius_block_norm(c, 0)
    with pytest.raises(ContractError):
        frobenius_block_norm(c, 2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_shor_jordan_identity_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    n = int(rng.integers(1, 5))
    c = random_circuit(rng, k + n, int(rng.integers(1, 9)))
    dc = Dqc1Circuit(c, tuple(range(k)), tuple(range(k)))
    assert all_zeros_probability(dc) == pytest.approx(
        frobenius_block_norm(c, k), abs=1e-9
    )


# ---------------------------------------------------------------------------
# multiplicative error

def test_minimal_error_self_is_exactly_one():
    p = dist((0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    assert minimal_multiplicative_error(p, p) == 1.0


def test_minimal_error_frozen_two_point():
    p = dist((0,), {"0": 0.5, "1": 0.5})
    q = dist((0,), {"0": 0.6, "1": 0.4})
    assert minimal_multiplicative_error(p, q) == 1.25


def test_minimal_error_symmetric():
    p = dist((0,), {"0": 0.3, "1": 0.7})
    q = dist((0,), {"0": 0.4, "1": 0.6})
    assert minimal_multiplicative_error(p, q) == minimal_multiplicative_error(q, p)


def test_minimal_error_incomparable_on_support_mismatch():
    p = dist((0,), {"0": 1.0, "1": 0.0})
    q = dist((0,), {"0": 0.5, "1": 0.5})
    assert minimal_multiplicative_error(p, q) is INCOMPARABLE


def test_minimal_error_shared_zeros_are_fine():
    p = dist((0, 1), {"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0})
    q = dist((0, 1), {"00": 0.25, "01": 0.75, "10": 0.0, "11": 0.0})
    assert minimal_multiplicative_error(p, q) == pytest.approx(2.0)


def test_minimal_error_requires_same_qubits():
    p = dist((0,), {"0": 0.5, "1": 0.5})
    q = dist((1,), {"0": 0.5, "1": 0.5})
    with pytest.raises(ContractError):
        minimal_multiplicative_error(p, q)


def test_minimal_error_aligns_qubit_order():
    p = dist((0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    q = p.marginal((1, 0))
    assert minimal_multiplicative_error(p, q) == pytest.approx(1.0)


def test_report_covers_all_subsets():
    p = dist((0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    q = dist((0, 1), {"00": 0.15, "01": 0.15, "10": 0.35, "11": 0.35})
    report = multiplicative_error_report(p, q)
    assert set(report.per_marginal_c) == {(0,), (1,), (0, 1)}
    assert report.worst_c == max(report.per_marginal_c.values())
    assert report.worst_c == report.per_marginal_c[(0, 1)]


def test_report_incomparable_sentinel():
    p = dist((0,), {"0": 1.0, "1": 0.0})
    q = dist((0,), {"0": 0.5, "1": 0.5})
    assert multiplicative_error_report(p, q) is INCOMPARABLE
    assert repr(INCOMPARABLE) == "INCOMPARABLE"


@st.composite
def _comparable_pair(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    size = 1 << k
    raw_p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
    factors = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=size, max_size=size)))
    raw_q = raw_p * np.exp(factors)
    keys = [format(i, f"0{k}b") for i in range(size)]
    p = dict(zip(keys, (float(v) for v in raw_p / raw_p.sum())))
    q = dict(zip(keys, (float(v) for v in raw_q / raw_q.sum())))
    qubits = tuple(range(k))
    return dist(qubits, p), dist(qubits, q)


@given(_comparable_pair())
@settings(max_examples=60)
def test_marginal_c_never_exceeds_joint(pair):
    p, q = pair
    report = multiplicative_error_report(p, q)
    assert report is not INCOMPARABLE
    joint_c = report.per_marginal_c[p.measured_qubits]
    for c in report.per_marginal_c.values():
        assert c <= joint_c * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the report against one pair of marginal distributions per subset

def _reference_pair_c(p, q):
    p_zero = p <= ZERO_PROB_TOL
    q_zero = q <= ZERO_PROB_TOL
    if np.any(p_zero != q_zero):
        return INCOMPARABLE
    live = ~p_zero
    pv, qv = p[live], q[live]
    return max(1.0, float(np.max(pv / qv)), float(np.max(qv / pv)))


def _reference_report(p, q):
    """The report built one subset at a time from two marginal distributions."""
    per = {}
    worst = 1.0
    qubits = p.measured_qubits
    for r in range(1, len(qubits) + 1):
        for subset in itertools.combinations(qubits, r):
            c = _reference_pair_c(p.marginal(subset).pmf, q.marginal(subset).pmf)
            if c is INCOMPARABLE:
                return INCOMPARABLE
            per[subset] = c
            worst = max(worst, c)
    return MultiplicativeErrorReport(per, worst)


def _assert_same_report(p, q):
    got, want = multiplicative_error_report(p, q), _reference_report(p, q)
    if want is INCOMPARABLE:
        assert got is INCOMPARABLE
        return
    assert got is not INCOMPARABLE
    assert list(got.per_marginal_c) == list(want.per_marginal_c)
    assert all(type(c) is float for c in got.per_marginal_c.values())
    assert [c.hex() for c in got.per_marginal_c.values()] == [
        c.hex() for c in want.per_marginal_c.values()
    ]
    assert type(got.worst_c) is float and got.worst_c.hex() == want.worst_c.hex()


def _random_pair(rng, k, zeros=0.0, mismatches=0, shuffle=False):
    """p and a q within a random factor of it over qubits 3..k+2, zero
    where p is zero; `mismatches` outcomes of q are then zeroed alone, and
    q lists its qubits in a shuffled order when asked."""
    size = 1 << k
    p = rng.uniform(0.5, 1.5, size)
    p[rng.random(size) < zeros] = 0.0
    p[rng.integers(size)] += 1.0
    q = p * rng.uniform(0.25, 4.0, size)
    q[rng.integers(size, size=mismatches)] = 0.0
    if not q.any():
        q[rng.integers(size)] = 1.0
    qubits = tuple(range(3, 3 + k))
    p = OutcomeDistribution(qubits, p / p.sum())
    q = OutcomeDistribution(qubits, q / q.sum())
    if shuffle:
        q = q.marginal(tuple(rng.permutation(qubits).tolist()))
    return p, q


@given(
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.1, 0.5]),
    mismatches=st.sampled_from([0, 0, 1]),
    shuffle=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_report_matches_one_marginal_pair_per_subset(k, seed, zeros, mismatches, shuffle):
    rng = np.random.default_rng(seed)
    _assert_same_report(*_random_pair(rng, k, zeros, mismatches, shuffle))


@pytest.mark.parametrize("shuffle", [False, True])
def test_report_matches_reference_where_chunks_split_a_subset_size(shuffle):
    # At k = 11 a subset of size r < 11 gathers 2^10 + 2^r entries, so a
    # chunk holds 8 to 15 of them and each size from 2 to 10 takes several.
    assert REPORT_CHUNK >> 11 == 8
    p, q = _random_pair(np.random.default_rng(11), 11, zeros=0.1, shuffle=shuffle)
    _assert_same_report(p, q)


@pytest.mark.parametrize("zeros", [0.0, 0.2])
@pytest.mark.parametrize("extra", [0, 1])
def test_report_at_a_chunk_of_one_joint(monkeypatch, zeros, extra):
    # At k = REPORT_CAP the chunk is exactly one joint, room = 2^k, and a
    # subset gathers more than half of it, so each pass holds one subset; a
    # small k with REPORT_CHUNK at 2^k (and at 2^(k+1): two or three
    # subsets per pass) runs the same edge.
    assert max(REPORT_CHUNK, 1 << REPORT_CAP) == 1 << REPORT_CAP
    k = 6
    monkeypatch.setattr(dqc1sim.analysis, "REPORT_CHUNK", 1 << (k + extra))
    p, q = _random_pair(np.random.default_rng(14 + extra), k, zeros=zeros, shuffle=True)
    _assert_same_report(p, q)


def test_report_incomparable_in_a_marginal_only():
    # The joint zeros agree, but outcome 0 of qubit 0 sums two "zero"
    # entries of p past the zero tolerance and stays below it in q.
    tiny = 0.8 * ZERO_PROB_TOL
    p = dist((0, 1), {"00": tiny, "01": tiny, "10": 0.5, "11": 0.5 - 2 * tiny})
    q = dist((0, 1), {"00": tiny / 8, "01": tiny / 8, "10": 0.5, "11": 0.5 - tiny / 4})
    assert minimal_multiplicative_error(p, q) is not INCOMPARABLE
    assert multiplicative_error_report(p, q) is INCOMPARABLE
    _assert_same_report(p, q)


def test_report_incomparable_in_the_joint_only():
    p = dist((0, 1), {"00": 0.5, "11": 0.5})
    q = dist((1, 0), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    for subset in ((0,), (1,)):
        assert minimal_multiplicative_error(p.marginal(subset), q.marginal(subset)) == 1.0
    assert multiplicative_error_report(p, q) is INCOMPARABLE
    _assert_same_report(p, q)


@pytest.mark.parametrize("shuffle", [True, False])
def test_report_peak_memory_at_k10(shuffle):
    # The peak holds the kept marginals of two subset sizes and the complex
    # gather buffer: 809 KiB with q's qubits shuffled, 907 KiB in p's order.
    p, q = _random_pair(np.random.default_rng(3), 10, shuffle=shuffle)
    multiplicative_error_report(p, q)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        multiplicative_error_report(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# conditional bounds

def test_conditional_bounds_within_c_squared():
    p = dist((0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    q = dist((0, 1), {"00": 0.12, "01": 0.18, "10": 0.33, "11": 0.37})
    c = minimal_multiplicative_error(p, q)
    report = check_conditional_bounds(p, q, {0: 1}, c)
    assert report.passed
    assert report.comparable_at_c
    assert report.max_ratio <= c * c * (1 + 1e-12)
    assert report.min_ratio >= 1.0 / (c * c) * (1 - 1e-12)


def test_conditional_bounds_uniform_vs_skewed():
    # conditioned on the first bit reading 0: p gives (0.5, 0.5),
    # q gives (0.6, 0.4), ratios 1.2 and 0.8 within [1/1.5625, 1.5625]
    p = dist((0, 1), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    q = dist((0, 1), {"00": 0.3, "01": 0.2, "10": 0.2, "11": 0.3})
    report = check_conditional_bounds(p, q, {0: 0}, 1.25)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.2)
    assert report.min_ratio == pytest.approx(0.8)
    report_bad = check_conditional_bounds(p, q, {0: 0}, 1.01)
    assert not report_bad.passed
    assert report_bad.binding_high == "0"


def test_conditional_bounds_identity_is_tight():
    p = dist((0, 1), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    report = check_conditional_bounds(p, p, {0: 0}, 1.0)
    assert report.passed
    assert report.tight
    assert report.max_ratio == 1.0


def test_conditional_bounds_near_tight_case_detected():
    # q/p hits c on one event outcome while the event probabilities are
    # skewed by almost exactly c the other way, driving the conditional
    # ratio to within 1e-10 of c^2
    c = 2.0
    eps = 1e-11
    p00, p01 = 0.5, 0.5 * eps
    q00, q01 = p00 / c, c * p01
    p_rest = 1.0 - p00 - p01
    q_rest = 1.0 - q00 - q01
    p = dist((0, 1), {"00": p00, "01": p01, "10": p_rest / 2, "11": p_rest / 2})
    q = dist((0, 1), {"00": q00, "01": q01, "10": q_rest / 2, "11": q_rest / 2})
    c_joint = minimal_multiplicative_error(p, q)
    assert c_joint == pytest.approx(c, rel=1e-9)
    report = check_conditional_bounds(p, q, {0: 0}, c_joint)
    assert report.passed
    assert report.tight
    assert report.binding_high == "1"


def test_conditional_bounds_interior_case_not_tight():
    p = dist((0, 1), {"00": 0.2, "01": 0.3, "10": 0.3, "11": 0.2})
    q = dist((0, 1), {"00": 0.22, "01": 0.28, "10": 0.31, "11": 0.19})
    report = check_conditional_bounds(p, q, {0: 0}, 2.0)
    assert report.passed
    assert not report.tight


def test_conditional_bounds_fail_when_c_too_small():
    p = dist((0, 1), {"00": 0.1, "01": 0.4, "10": 0.25, "11": 0.25})
    q = dist((0, 1), {"00": 0.4, "01": 0.1, "10": 0.25, "11": 0.25})
    report = check_conditional_bounds(p, q, {0: 0}, 1.5)
    assert not report.passed
    assert not report.comparable_at_c


def test_conditional_bounds_rejects_c_below_one():
    p = dist((0, 1), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    with pytest.raises(ContractError):
        check_conditional_bounds(p, p, {0: 0}, 0.5)


def test_conditional_bounds_impossible_event():
    p = dist((0, 1), {"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0})
    with pytest.raises(PostselectionImpossibleError):
        check_conditional_bounds(p, p, {0: 1}, 1.0)


@given(_comparable_pair())
@settings(max_examples=80)
def test_conditional_bounds_hold_at_joint_c(pair):
    p, q = pair
    if len(p.measured_qubits) < 2:
        return
    c = minimal_multiplicative_error(p, q)
    report = check_conditional_bounds(p, q, {p.measured_qubits[0]: 0}, c)
    assert report.passed


# ---------------------------------------------------------------------------
# acceptance classification

def test_classify_acceptance_verdicts():
    # output qubit 1 reads 1 with certainty after X: clearly accepted
    dc = Dqc1Circuit(Circuit(2, (x(1),)), (0, 1), (0, 1))
    verdict = classify_acceptance(dc, {0: 0}, output=1, delta=0.25)
    assert verdict.verdict == "in-language"
    assert verdict.accept_probability == pytest.approx(1.0)

    dc0 = Dqc1Circuit(Circuit(2, ()), (0, 1), (0, 1))
    assert classify_acceptance(dc0, {0: 0}, output=1, delta=0.25).verdict == "out-of-language"

    dc_coin = Dqc1Circuit(Circuit(2, (h(1),)), (0, 1), (0, 1))
    assert classify_acceptance(dc_coin, {0: 0}, output=1, delta=0.25).verdict == "inconclusive"


def test_classify_acceptance_with_postselection():
    # conditioned on qubit 0 = 1, qubit 1 reads 1 (both clean, correlated)
    from dqc1sim.circuits import cnot

    dc = Dqc1Circuit(Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1))
    verdict = classify_acceptance(dc, {0: 1}, output=1, delta=0.25)
    assert verdict.verdict == "in-language"


def test_classify_acceptance_validates_arguments():
    dc = Dqc1Circuit(Circuit(2, ()), (0, 1), (0, 1))
    with pytest.raises(ContractError):
        classify_acceptance(dc, {0: 0}, output=1, delta=0.6)
    with pytest.raises(ContractError):
        classify_acceptance(dc, {1: 1}, output=1, delta=0.25)
    with pytest.raises(ContractError):
        classify_acceptance(dc, {0: 0}, output=5, delta=0.25)


def test_classify_acceptance_impossible_event():
    dc = Dqc1Circuit(Circuit(2, ()), (0, 1), (0, 1))
    with pytest.raises(PostselectionImpossibleError):
        classify_acceptance(dc, {0: 1}, output=1, delta=0.25)


# ---------------------------------------------------------------------------
# distribution documents

def test_distribution_document_roundtrip():
    p = dist((0, 2), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
    back = parse_distribution(serialize_distribution(p))
    assert back.measured_qubits == p.measured_qubits
    assert back.probs == p.probs


def test_distribution_document_shape():
    p = dist((1,), {"0": 0.5, "1": 0.5})
    doc = json.loads(serialize_distribution(p))
    assert doc["measured"] == [1]
    assert doc["probs"] == {"0": 0.5, "1": 0.5}


def test_parse_distribution_rejects_garbage():
    with pytest.raises(ParseError):
        parse_distribution("[]")
    with pytest.raises(ParseError):
        parse_distribution(json.dumps({"measured": [0]}))
    with pytest.raises(ParseError):
        parse_distribution(json.dumps({"measured": [0], "probs": {"0": 0.9, "1": 0.2}}))


@pytest.mark.parametrize(
    "bad",
    ["true", '"0.5"', "NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["bool", "string", "nan", "infinity", "minus-infinity", "huge-int"],
)
def test_parse_distribution_names_the_first_bad_probability(bad):
    # The one-pass check of every value falls back to the per-entry check,
    # which names the first bad entry; a later bad entry is not named.
    text = '{"measured": [0, 1], "probs": {"00": 0.5, "01": %s, "10": 0.5, "11": "x"}}' % bad
    with pytest.raises(ParseError) as exc:
        parse_distribution(text)
    assert str(exc.value) == "$.probs: probability of '01' must be a finite number"


def test_parse_distribution_takes_ints_and_floats_as_floats():
    text = '{"measured": [0, 1], "probs": {"00": 0, "01": 1, "10": 0.0, "11": 0e0}}'
    d = parse_distribution(text)
    assert d.pmf.dtype == float
    assert d.pmf.tolist() == [0.0, 1.0, 0.0, 0.0]
