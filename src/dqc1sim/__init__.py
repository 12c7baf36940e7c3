"""Simulator and analysis toolkit for one-clean-qubit circuits."""

from .analysis import (
    INCOMPARABLE,
    AcceptanceVerdict,
    ConditionalBoundsReport,
    MultiplicativeErrorReport,
    TraceEstimate,
    check_conditional_bounds,
    classify_acceptance,
    estimate_trace,
    frobenius_block_norm,
    minimal_multiplicative_error,
    multiplicative_error_report,
    parse_distribution,
    serialize_distribution,
)
from .circuits import (
    Circuit,
    Dqc1Circuit,
    Gate,
    GraphSpec,
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
    sdg,
    serialize_circuit,
    serialize_unitary,
    t,
    tdg,
    u1q,
    x,
    y,
    z,
)
from .config import DEFAULT_SEED
from .distributions import OutcomeDistribution
from .engine import (
    ShotRecord,
    all_zeros_probability,
    build_input,
    conditional_distribution,
    density_distribution,
    exact_distribution,
    sample,
)
from .errors import (
    ContractError,
    Dqc1Error,
    ParseError,
    PostselectionImpossibleError,
    ResourceError,
    UnitarityError,
    ValidationError,
    WiringError,
)
from .gadgets import (
    CompiledReduction,
    MbqcPattern,
    build_trace_circuit,
    build_W,
    build_W_prime,
    cluster_unitary,
    compile_n_plus_1,
    compile_three,
    controlled_gates,
    linear_pattern_target_probs,
    measurement_alignment,
    parse_pattern,
    pattern_from_rotations,
    serialize_pattern,
)
from .verify import SUITES, CheckResult, run_suite

__version__ = "0.1.0"
