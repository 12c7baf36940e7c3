"""Runnable invariant suites behind the `verify` command.

Every check returns a CheckResult with the worst residual it saw, so a
failure says how far off the build is, not just that it is off.  Checks
that exercise a construction accept the built gates or compiled reduction
as an argument, which lets the test suite feed them deliberately corrupted
builds and confirm the checks are actually sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import (
    INCOMPARABLE,
    check_conditional_bounds,
    frobenius_block_norm,
    minimal_multiplicative_error,
    multiplicative_error_report,
)
from .circuits import (
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
    circuit_matrix,
    gate_matrix,
    graph_proj_x,
)
from .distributions import OutcomeDistribution
from .engine import (
    _shot_counts,
    all_zeros_probability,
    conditional_distribution,
    density_distribution,
    exact_distribution,
)
from .errors import ContractError
from .gadgets import (
    CompiledReduction,
    build_trace_circuit,
    build_W,
    build_W_prime,
    cluster_unitary,
    compile_n_plus_1,
    compile_three,
    linear_pattern_target_probs,
    pattern_from_rotations,
)
from .qstate import compile_circuit
from .randcirc import random_circuit, random_dqc1, random_unitary


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, residual <= tol, float(residual), tol, detail)


def _all_graphs(num_vertices: int):
    pairs = [(a, b) for a in range(num_vertices) for b in range(a + 1, num_vertices)]
    for mask in range(1 << len(pairs)):
        yield GraphSpec(
            num_vertices, tuple(e for i, e in enumerate(pairs) if mask >> i & 1)
        )


# ---------------------------------------------------------------------------
# qstate suite

def check_gate_unitarity(seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in (2, 3, 4):
        for g in random_circuit(rng, m, 40).gates:
            full = gate_matrix(g, m)
            worst = max(worst, float(np.max(np.abs(full @ full.conj().T - np.eye(1 << m)))))
    return _result("gate-matrix-unitarity", worst, 1e-10)


def _run(gates: Sequence[Gate], m: int, states: np.ndarray) -> np.ndarray:
    """The gates compiled once by compile_circuit and run on a copy of each
    row of `states`, a (B, 2^m) batch that is itself left as it is."""
    out = np.array(states, dtype=complex, order="C")
    psi = out.reshape((len(out),) + (2,) * m)
    for op in compile_circuit(gates, m):
        op(psi)
    return out


def check_kernel_matches_matrix(seed: int = 11) -> CheckResult:
    # The fused ops against the dense oracle, on a batch of random states.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in (2, 3, 4, 5):
        states = random_unitary(rng, 1 << m)[:, :4].T
        u = random_circuit(rng, m, 25)
        diff = _run(u.gates, m, states) - states @ circuit_matrix(u).T
        worst = max(worst, float(np.max(np.abs(diff))))
    return _result("kernel-vs-dense-oracle", worst, 1e-10)


def check_inverse_roundtrip(seed: int = 13) -> CheckResult:
    # The gates, then their inverses in reverse order.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in (3, 4):
        states = random_unitary(rng, 1 << m)[:, :4].T
        gates = random_circuit(rng, m, 30).gates
        back = _run(gates + tuple(g.inverse() for g in reversed(gates)), m, states)
        worst = max(worst, float(np.max(np.abs(back - states))))
    return _result("apply-inverse-roundtrip", worst, 1e-10)


def check_density_mixture_agreement(seed: int = 17, trials: int = 12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 7))
        dc = random_dqc1(rng, m, int(rng.integers(3, 12)))
        tv = density_distribution(dc).total_variation(exact_distribution(dc))
        worst = max(worst, tv)
    return _result("density-vs-mixture-distribution", worst, 1e-10)


def check_mixed_register_uniformity(seed: int = 19, trials: int = 8) -> CheckResult:
    # Circuits that never touch the clean qubit leave the mixed register uniform.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(3, 6))
        sub = random_circuit(rng, m - 1, int(rng.integers(3, 10)))
        gates = tuple(g.shifted(1) for g in sub.gates)
        measured = tuple(range(1, m))
        dc = Dqc1Circuit(Circuit(m, gates), (0,), measured)
        dist = exact_distribution(dc)
        uniform = 1.0 / (1 << len(measured))
        worst = max(worst, float(np.max(np.abs(dist.pmf - uniform))))
    return _result("mixed-register-uniformity", worst, 1e-10)


def check_sampler_bands(seed: int = 23, shots: int = 20000, trials: int = 4) -> CheckResult:
    # Empirical frequencies inside 5-sigma binomial bands of exact probabilities.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        m = int(rng.integers(2, 6))
        dc = random_dqc1(rng, m, int(rng.integers(3, 10)), measured_count=min(m, 3))
        p = exact_distribution(dc).pmf
        counts = _shot_counts(dc, shots, seed=1000 + i)
        band = 5.0 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / shots) + 1e-9
        worst = max(worst, float(np.max(np.abs(counts / shots - p) / band)))
    return _result("sampler-binomial-bands", worst, 1.0, f"{shots} shots, 5 sigma")


# ---------------------------------------------------------------------------
# gadgets suite

def check_cluster_signs() -> CheckResult:
    # Prepared cluster amplitudes match the closed-form sign rule.
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        g = GraphSpec(n, tuple((j, j + 1) for j in range(n - 1)))
        state = _run(cluster_unitary(g), n, np.eye(1, 1 << n))[0]
        worst = max(worst, float(np.max(np.abs(state - g.state_vector()))))
    return _result("cluster-state-signs", worst, 1e-12)


def check_w_matrix_identity(max_vertices: int = 4) -> CheckResult:
    # Exhaustive over all graphs on up to max_vertices vertices: the gadget's
    # gate product equals flip-on-graph-component exactly, and equals the
    # single-gate projector form.
    worst = 0.0
    for n in range(1, max_vertices + 1):
        for g in _all_graphs(n):
            m = n + 1
            register = list(range(1, m))
            seq = Circuit(m, tuple(build_W(g, 0, register)))
            product = circuit_matrix(seq)
            vec = g.state_vector()
            proj = np.outer(vec, vec.conj())
            direct = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), proj)
            direct += np.kron(np.eye(2), np.eye(1 << n) - proj)
            worst = max(worst, float(np.max(np.abs(product - direct))))
            single = gate_matrix(graph_proj_x(g, register, 0), m)
            worst = max(worst, float(np.max(np.abs(single - direct))))
    return _result("distillation-matrix-identity", worst, 1e-10)


def _branch_stats(gates: Sequence[Gate], target: np.ndarray) -> tuple[float, float]:
    """Run the gates on every basis state of the register (qubits 1..) with
    qubit 0 in |0>; return the probability that qubit 0 then reads 1 and the
    fidelity of that branch's register state with `target`."""
    half = target.size
    amps = _run(gates, half.bit_length(), np.eye(half, 2 * half))  # row b starts in state b
    branches = amps[:, half:]
    total_p = float(np.sum(np.abs(branches) ** 2))
    total_overlap = float(np.sum(np.abs(branches @ target.conj()) ** 2))
    return total_p / half, total_overlap / (total_p if total_p > 0 else 1.0)


def w_branch_stats(
    graph: GraphSpec, gates: Sequence[Gate] | None = None
) -> tuple[float, float]:
    """Probability that the clean qubit reads 1 after the distillation
    gadget, and the fidelity of the postselected register state with the
    graph state.  `gates` overrides the gadget (clean = 0, register = 1..n)."""
    if gates is None:
        gates = build_W(graph, 0, list(range(1, graph.num_vertices + 1)))
    return _branch_stats(gates, graph.state_vector())


def check_w_branch(max_vertices: int = 6) -> CheckResult:
    worst = 0.0
    for n in range(2, max_vertices + 1):
        g = GraphSpec(n, tuple((j, j + 1) for j in range(n - 1)))
        prob, fid = w_branch_stats(g)
        worst = max(worst, abs(prob - 0.5**n), abs(1.0 - fid))
    return _result("distillation-branch", worst, 1e-10)


def check_w_prime_branch(max_vertices: int = 3) -> CheckResult:
    # Postselecting the clean qubit pins ancilla |0> alongside the graph state,
    # with branch probability 2^-(n+1).
    worst = 0.0
    for n in range(1, max_vertices + 1):
        g = GraphSpec(n, tuple((j, j + 1) for j in range(n - 1)))
        gates = build_W_prime(g, 0, 1, list(range(2, n + 2)))
        target = np.kron(np.array([1.0, 0.0], dtype=complex), g.state_vector())
        prob, fid = _branch_stats(gates, target)
        worst = max(worst, abs(prob - 0.5 ** (n + 1)), abs(1.0 - fid))
    return _result("ancilla-distillation-branch", worst, 1e-10)


def check_trace_contract(seed: int = 29, trials: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        u = random_circuit(rng, n, int(rng.integers(2, 8)))
        tr = complex(np.trace(circuit_matrix(u)))
        for part, value in (("real", tr.real), ("imaginary", tr.imag)):
            dc = build_trace_circuit(u, part)
            p0 = exact_distribution(dc).prob("0")
            worst = max(worst, abs(p0 - (0.5 + value / 2 ** (n + 1))))
    return _result("trace-circuit-contract", worst, 1e-10)


# ---------------------------------------------------------------------------
# reductions suite

def reduction_conditional_tv(red: CompiledReduction) -> float:
    """Total variation between the compiled circuit's postselected output
    distribution and the pattern's directly computed branch distribution."""
    conditioned, _ = conditional_distribution(red.circuit, red.postselect)
    out = conditioned.marginal(red.output_qubits)
    target = OutcomeDistribution(out.measured_qubits, linear_pattern_target_probs(red.target))
    return out.total_variation(target)


def reduction_event_probability(red: CompiledReduction) -> float:
    return conditional_distribution(red.circuit, red.postselect)[1]


def _random_angle_lists(rng: np.random.Generator, count: int, max_len: int):
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        yield [float(a) for a in rng.uniform(-np.pi, np.pi, size=length)]


def check_reduction_full_measure(seed: int = 31, trials: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for angles in _random_angle_lists(rng, trials, 4):
        worst = max(worst, reduction_conditional_tv(compile_n_plus_1(pattern_from_rotations(angles))))
    return _result("reduction-full-measure", worst, 1e-9)


def check_reduction_three_measure(seed: int = 37, trials: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for angles in _random_angle_lists(rng, trials, 4):
        red = compile_three(pattern_from_rotations(angles))
        if len(red.circuit.measured) != 3 or len(red.postselect) != 2:
            return _result("reduction-three-measure", 1.0, 1e-9, "wrong measured/postselect count")
        worst = max(worst, reduction_conditional_tv(red))
    return _result("reduction-three-measure", worst, 1e-9)


def check_compiler_agreement(seed: int = 41, trials: int = 8) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for angles in _random_angle_lists(rng, trials, 3):
        pattern = pattern_from_rotations(angles)
        outs = []
        for red in (compile_n_plus_1(pattern), compile_three(pattern)):
            conditioned, _ = conditional_distribution(red.circuit, red.postselect)
            outs.append(conditioned.marginal(red.output_qubits))
        # The compilers place the output on different wires, so compare by
        # outcome rather than by qubit label.
        relabelled = OutcomeDistribution(outs[0].measured_qubits, outs[1].pmf)
        worst = max(worst, outs[0].total_variation(relabelled))
    return _result("compiler-agreement", worst, 1e-10)


def check_reduction_event_probability(seed: int = 43, trials: int = 8) -> CheckResult:
    # For a linear chain every aligned readout lands 1 with probability
    # exactly 1/2 inside the postselected branch, so the event probability
    # has a closed form to pin down.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for angles in _random_angle_lists(rng, trials, 4):
        n = len(angles) + 1
        event = reduction_event_probability(compile_n_plus_1(pattern_from_rotations(angles)))
        if event <= 0.0:
            return _result("reduction-event-probability", 1.0, 1e-10, "vanishing event")
        worst = max(worst, abs(event - 0.5**n * 0.5 ** (n - 1)))
    return _result("reduction-event-probability", worst, 1e-10)


# ---------------------------------------------------------------------------
# analysis suite

def _random_joint(rng: np.random.Generator, qubits: tuple[int, ...]) -> OutcomeDistribution:
    k = len(qubits)
    raw = rng.random(1 << k) + 0.05
    raw /= raw.sum()
    return OutcomeDistribution(qubits, raw)


def _perturbed(rng: np.random.Generator, p: OutcomeDistribution) -> OutcomeDistribution:
    raw = p.pmf * np.exp(rng.uniform(-0.3, 0.3, size=p.pmf.size))
    raw /= raw.sum()
    return OutcomeDistribution(p.measured_qubits, raw)


def check_error_identity(seed: int = 47, trials: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_joint(rng, (0, 1))
        c = minimal_multiplicative_error(p, p)
        worst = max(worst, abs(c - 1.0))
    return _result("error-self-identity", worst, 0.0, "must be exactly 1")


def check_error_two_point() -> CheckResult:
    p = OutcomeDistribution((0,), {"0": 0.5, "1": 0.5})
    q = OutcomeDistribution((0,), {"0": 0.6, "1": 0.4})
    c = minimal_multiplicative_error(p, q)
    return _result("error-two-point", abs(c - 1.25), 0.0, "0.5/0.4 pins c at 1.25")


def check_marginal_monotonicity(seed: int = 53, trials: int = 25) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_joint(rng, (0, 1, 2))
        q = _perturbed(rng, p)
        report = multiplicative_error_report(p, q)
        if report is INCOMPARABLE:
            return _result("marginal-monotonicity", 1.0, 1e-12, "unexpected incomparability")
        joint_c = report.per_marginal_c[(0, 1, 2)]
        overshoot = max(c - joint_c for c in report.per_marginal_c.values())
        worst = max(worst, overshoot, report.worst_c - joint_c)
    return _result("marginal-monotonicity", worst, 1e-12)


def check_conditional_c2(seed: int = 59, trials: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = _random_joint(rng, (0, 1))
        q = _perturbed(rng, p)
        c = minimal_multiplicative_error(p, q)
        report = check_conditional_bounds(p, q, {0: int(rng.integers(2))}, c)
        if not report.passed:
            return _result("conditional-c2-bounds", 1.0, 1e-9, "bound violated")
        worst = max(
            worst, report.max_ratio / (c * c) - 1.0, (1.0 / (c * c)) / report.min_ratio - 1.0
        )
    return _result("conditional-c2-bounds", max(worst, 0.0), 1.0, "ratios inside the c^2 band")


def check_shor_jordan(seed: int = 61, trials: int = 12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        u = random_circuit(rng, k + n, int(rng.integers(3, 10)))
        dc = Dqc1Circuit(u, tuple(range(k)), tuple(range(k)))
        lhs = all_zeros_probability(dc)
        rhs = frobenius_block_norm(u, k)
        worst = max(worst, abs(lhs - rhs))
    return _result("all-zeros-block-norm", worst, 1e-9)


# ---------------------------------------------------------------------------
# suites

SUITES: dict[str, tuple] = {
    "qstate": (
        check_gate_unitarity,
        check_kernel_matches_matrix,
        check_inverse_roundtrip,
        check_density_mixture_agreement,
        check_mixed_register_uniformity,
        check_sampler_bands,
    ),
    "gadgets": (
        check_cluster_signs,
        check_w_matrix_identity,
        check_w_branch,
        check_w_prime_branch,
        check_trace_contract,
    ),
    "reductions": (
        check_reduction_full_measure,
        check_reduction_three_measure,
        check_compiler_agreement,
        check_reduction_event_probability,
    ),
    "analysis": (
        check_error_identity,
        check_error_two_point,
        check_marginal_monotonicity,
        check_conditional_c2,
        check_shor_jordan,
    ),
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [result for suite in SUITES for result in run_suite(suite)]
    if name not in SUITES:
        raise ContractError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return [check() for check in SUITES[name]]
