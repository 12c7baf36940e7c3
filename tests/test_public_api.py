"""The names dqc1sim exports, pinned: adding or removing one shows in the diff."""

import types

import dqc1sim

PUBLIC_NAMES = [
    "AcceptanceVerdict", "CheckResult", "Circuit", "CompiledReduction",
    "ConditionalBoundsReport", "ContractError", "DEFAULT_SEED", "DensityMatrix",
    "Dqc1Circuit", "Dqc1Error", "Gate", "GraphSpec", "INCOMPARABLE", "MbqcPattern",
    "MultiplicativeErrorReport", "OutcomeDistribution", "ParseError",
    "PostselectionImpossibleError", "PureState", "ResourceError", "SUITES", "ShotRecord",
    "TraceEstimate", "UnitarityError", "ValidationError", "WiringError",
    "all_zeros_probability", "apply_gate", "build_W", "build_W_prime", "build_input",
    "build_trace_circuit", "check_conditional_bounds", "circuit_matrix",
    "classify_acceptance", "cluster_unitary", "cnot", "compile_n_plus_1", "compile_three",
    "conditional_distribution", "controlled_gates", "cu", "cz", "estimate_trace",
    "evolve_density", "exact_distribution", "fidelity", "frobenius_block_norm",
    "gate_matrix", "graph_proj_x", "h", "linear_pattern_target_probs", "mcx",
    "measure_probs", "measurement_alignment", "minimal_multiplicative_error",
    "multiplicative_error_report", "parse_circuit", "parse_distribution", "parse_pattern",
    "parse_unitary", "pattern_from_rotations", "run_suite", "rz", "s", "sample", "sdg",
    "serialize_circuit", "serialize_distribution", "serialize_pattern",
    "serialize_unitary", "t", "tdg", "u1q", "x", "y", "z",
]


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(dqc1sim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
