"""The names dqc1sim exports and the modules its CLI imports, pinned: adding
or removing one shows in the diff."""

import os
import subprocess
import sys
import types
from pathlib import Path

import dqc1sim

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "AcceptanceVerdict", "CheckResult", "Circuit", "CompiledReduction",
    "ConditionalBoundsReport", "ContractError", "DEFAULT_SEED",
    "Dqc1Circuit", "Dqc1Error", "Gate", "GraphSpec", "INCOMPARABLE", "MbqcPattern",
    "MultiplicativeErrorReport", "OutcomeDistribution", "ParseError",
    "PostselectionImpossibleError", "ResourceError", "SUITES", "ShotRecord",
    "TraceEstimate", "UnitarityError", "ValidationError", "WiringError",
    "all_zeros_probability", "build_W", "build_W_prime", "build_input",
    "build_trace_circuit", "check_conditional_bounds", "circuit_matrix",
    "classify_acceptance", "cluster_unitary", "cnot", "compile_n_plus_1", "compile_three",
    "conditional_distribution", "controlled_gates", "cu", "cz", "density_distribution",
    "estimate_trace",
    "exact_distribution", "frobenius_block_norm",
    "gate_matrix", "graph_proj_x", "h", "linear_pattern_target_probs", "mcx",
    "measurement_alignment", "minimal_multiplicative_error",
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


# Top-level modules that importing the CLI loads on top of numpy.  Every
# CLI call of a fresh process pays for them, so a new one shows here.
CLI_IMPORTS = {
    "__future__", "_json", "argparse", "cmath", "copy", "dataclasses", "dqc1sim",
    "gettext", "json",
}


def test_cli_import_loads_no_new_module():
    code = (
        "import sys, numpy\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import dqc1sim.cli\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules} - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "dqc1sim" in loaded
    assert loaded <= CLI_IMPORTS, sorted(loaded - CLI_IMPORTS)
