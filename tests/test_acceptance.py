"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line outside pytest's capture so the
verdicts appear in any run log; the asserts then enforce the same bounds.
"""

import time

import numpy as np
import pytest

from dqc1sim.analysis import (
    check_conditional_bounds,
    minimal_multiplicative_error,
    frobenius_block_norm,
)
from dqc1sim.circuits import Circuit, Dqc1Circuit, GraphSpec, circuit_matrix
from dqc1sim.distributions import OutcomeDistribution
from dqc1sim.engine import all_zeros_probability, density_distribution, exact_distribution, sample
from dqc1sim.gadgets import (
    build_trace_circuit,
    build_W,
    compile_n_plus_1,
    compile_three,
    pattern_from_rotations,
)
from dqc1sim.randcirc import random_circuit
from dqc1sim.verify import reduction_conditional_tv, w_branch_stats


@pytest.fixture
def report(capsys):
    # capsys.disabled() suspends pytest's fd-level capture, so the verdict
    # line reaches the real stdout even without -s
    def _report(name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] {name}: {detail}", flush=True)

    return _report


def _chain(n: int) -> GraphSpec:
    return GraphSpec(n, tuple((i, i + 1) for i in range(n - 1)))


def test_criterion_1_trace_circuit_identity(report):
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        u = random_circuit(rng, n, int(rng.integers(2, 9)))
        tr = complex(np.trace(circuit_matrix(u)))
        for part, value in (("real", tr.real), ("imaginary", tr.imag)):
            p0 = exact_distribution(build_trace_circuit(u, part)).prob("0")
            worst = max(worst, abs(p0 - (0.5 + value / 2 ** (n + 1))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(
        "criterion 1 trace-circuit identity",
        ok,
        f"100 unitaries, both parts, max residual {worst:.3e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_distillation_branch(report):
    t0 = time.monotonic()
    worst_prob = 0.0
    worst_fid = 1.0
    for n in range(2, 9):
        prob, fid = w_branch_stats(_chain(n))
        worst_prob = max(worst_prob, abs(prob - 0.5**n))
        worst_fid = min(worst_fid, fid)
    elapsed = time.monotonic() - t0
    ok = worst_prob <= 1e-10 and worst_fid >= 1.0 - 1e-10 and elapsed < 30.0
    report(
        "criterion 2 distillation branch",
        ok,
        f"chains n=2..8, prob residual {worst_prob:.3e}, "
        f"min fidelity {worst_fid:.12f}, {elapsed:.1f}s",
    )
    assert worst_prob <= 1e-10
    assert worst_fid >= 1.0 - 1e-10
    assert elapsed < 30.0


def _rotation_lists(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [
        [float(a) for a in rng.uniform(-np.pi, np.pi, size=int(rng.integers(1, 5)))]
        for _ in range(count)
    ]


def test_criterion_3_full_measure_reduction(report):
    worst = 0.0
    for angles in _rotation_lists(103, 50):
        red = compile_n_plus_1(pattern_from_rotations(angles))
        worst = max(worst, reduction_conditional_tv(red))
    ok = worst <= 1e-9
    report(
        "criterion 3 full-measure reduction",
        ok,
        f"50 rotation lists, max TV {worst:.3e}",
    )
    assert worst <= 1e-9


def test_criterion_4_three_measure_reduction(report):
    worst = 0.0
    shapes_ok = True
    for angles in _rotation_lists(103, 50):
        red = compile_three(pattern_from_rotations(angles))
        shapes_ok = shapes_ok and len(red.circuit.measured) == 3
        shapes_ok = shapes_ok and len(red.postselect) == 2
        worst = max(worst, reduction_conditional_tv(red))
    ok = worst <= 1e-9 and shapes_ok
    report(
        "criterion 4 three-measure reduction",
        ok,
        f"50 rotation lists, 3 measured / 2 postselected, max TV {worst:.3e}",
    )
    assert shapes_ok
    assert worst <= 1e-9


def test_criterion_5_route_agreement_and_sampling(report):
    rng = np.random.default_rng(105)
    worst_tv = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        u = random_circuit(rng, m, int(rng.integers(2, 10)))
        k = int(rng.integers(1, m + 1))
        dc = Dqc1Circuit(u, tuple(range(k)), tuple(range(m)))
        d_density = density_distribution(dc)
        d_mixture = exact_distribution(dc)
        worst_tv = max(worst_tv, d_density.total_variation(d_mixture))

    shots = 10**5
    bands_ok = True
    worst_sigma = 0.0
    for i in range(5):
        m = int(rng.integers(2, 6))
        u = random_circuit(rng, m, int(rng.integers(2, 8)))
        dc = Dqc1Circuit(u, (0,), tuple(range(m)))
        exact = exact_distribution(dc)
        counts = sample(dc, shots, seed=900 + i).counts()
        for key, p in exact.probs.items():
            if p <= 0.0 or p >= 1.0:
                continue
            sigma = (p * (1.0 - p) / shots) ** 0.5
            pulls = abs(counts.get(key, 0) / shots - p) / sigma
            worst_sigma = max(worst_sigma, pulls)
            bands_ok = bands_ok and pulls <= 5.0
    ok = worst_tv <= 1e-10 and bands_ok
    report(
        "criterion 5 oracle agreement",
        ok,
        f"50 circuits, route TV {worst_tv:.3e}; "
        f"sampling worst pull {worst_sigma:.2f} sigma at {shots} shots",
    )
    assert worst_tv <= 1e-10
    assert bands_ok


def test_criterion_6_error_calculus(report):
    uniform = OutcomeDistribution((0,), {"0": 0.5, "1": 0.5})
    skew = OutcomeDistribution((0,), {"0": 0.6, "1": 0.4})
    self_c = minimal_multiplicative_error(uniform, uniform)
    frozen_c = minimal_multiplicative_error(uniform, skew)

    rng = np.random.default_rng(106)
    bounds_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        size = 1 << k
        raw_p = rng.uniform(0.05, 1.0, size=size)
        raw_q = raw_p * np.exp(rng.uniform(-0.6, 0.6, size=size))
        keys = [format(i, f"0{k}b") for i in range(size)]
        qubits = tuple(range(k))
        p = OutcomeDistribution(qubits, dict(zip(keys, raw_p / raw_p.sum())))
        q = OutcomeDistribution(qubits, dict(zip(keys, raw_q / raw_q.sum())))
        c = minimal_multiplicative_error(p, q)
        band = check_conditional_bounds(p, q, {0: int(rng.integers(0, 2))}, c)
        bounds_ok = bounds_ok and band.passed

    # equality-tight detection: exact at c = 1, engineered near-tight at c = 2,
    # and a slack interior pair that must not be flagged
    flat2 = OutcomeDistribution(
        (0, 1), {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
    )
    tight_exact = check_conditional_bounds(flat2, flat2, {0: 0}, 1.0).tight
    c, eps = 2.0, 1e-11
    p00, p01 = 0.5, 0.5 * eps
    q00, q01 = p00 / c, c * p01
    p_tight = OutcomeDistribution(
        (0, 1), {"00": p00, "01": p01, "10": (1 - p00 - p01) / 2, "11": (1 - p00 - p01) / 2}
    )
    q_tight = OutcomeDistribution(
        (0, 1), {"00": q00, "01": q01, "10": (1 - q00 - q01) / 2, "11": (1 - q00 - q01) / 2}
    )
    near = check_conditional_bounds(
        p_tight, q_tight, {0: 0}, minimal_multiplicative_error(p_tight, q_tight)
    )
    interior = check_conditional_bounds(
        OutcomeDistribution((0, 1), {"00": 0.2, "01": 0.3, "10": 0.3, "11": 0.2}),
        OutcomeDistribution((0, 1), {"00": 0.22, "01": 0.28, "10": 0.31, "11": 0.19}),
        {0: 0},
        2.0,
    )
    tight_ok = tight_exact and near.passed and near.tight and not interior.tight

    ok = self_c == 1.0 and frozen_c == 1.25 and bounds_ok and tight_ok
    report(
        "criterion 6 error calculus",
        ok,
        f"c(p,p)={self_c}, frozen c={frozen_c}, 1000 conditional pairs in band, "
        f"tight detection {'ok' if tight_ok else 'BROKEN'}",
    )
    assert self_c == 1.0
    assert frozen_c == 1.25
    assert bounds_ok
    assert tight_ok


def test_criterion_7_all_zeros_block_norm(report):
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 7))
        u = random_circuit(rng, k + n, int(rng.integers(2, 9)))
        dc = Dqc1Circuit(u, tuple(range(k)), tuple(range(k)))
        worst = max(
            worst, abs(all_zeros_probability(dc) - frobenius_block_norm(u, k))
        )
    ok = worst <= 1e-9
    report(
        "criterion 7 all-zeros block norm",
        ok,
        f"50 circuits, k in {{1,2}}, n up to 6, max residual {worst:.3e}",
    )
    assert worst <= 1e-9


def test_criterion_8_mutation_sensitivity(report):
    import dataclasses

    g = _chain(3)
    gates = list(build_W(g, 0, [1, 2, 3]))
    idx, hit = next((i, gt) for i, gt in enumerate(gates) if gt.kind == "MCX")
    gates[idx] = dataclasses.replace(hit, polarities=(1,) + hit.polarities[1:])
    _, fid_mutated = w_branch_stats(g, gates=tuple(gates))
    polarity_caught = fid_mutated < 1.0 - 1e-10  # criterion 2's bound now fails

    red = compile_n_plus_1(pattern_from_rotations([0.3, -0.7]))
    flipped = dict(red.postselect)
    first = next(iter(flipped))
    flipped[first] = 1 - flipped[first]
    tv_mutated = reduction_conditional_tv(dataclasses.replace(red, postselect=flipped))
    postselect_caught = tv_mutated > 1e-9  # criterion 3's bound now fails

    ok = polarity_caught and postselect_caught
    report(
        "criterion 8 mutation sensitivity",
        ok,
        f"polarity flip drives fidelity to {fid_mutated:.3f}, "
        f"postselect flip drives TV to {tv_mutated:.3f}",
    )
    assert polarity_caught
    assert postselect_caught
