"""Every size cap raises ResourceError before it allocates what it bounds."""

import json
import tracemalloc

import numpy as np
import pytest

from dqc1sim.analysis import multiplicative_error_report, parse_distribution
from dqc1sim.circuits import Circuit, Dqc1Circuit, circuit_matrix, gate_matrix, h
from dqc1sim.config import DENSITY_CAP, EXACT_CAP, REPORT_CAP, SHOTS_CAP
from dqc1sim.distributions import OutcomeDistribution
from dqc1sim.engine import build_input, exact_distribution, sample
from dqc1sim.errors import ResourceError


def _plain(total):
    return Dqc1Circuit(Circuit(total, ()), (0,), (0,))


# Built here, outside the measurement: the report's inputs are 2^k wide.
_WIDE = REPORT_CAP + 1
_UNIFORM = OutcomeDistribution(tuple(range(_WIDE)), np.full(1 << _WIDE, 2.0**-_WIDE))

_OVER_CAP = {
    "exact": lambda: exact_distribution(_plain(EXACT_CAP + 1)),
    "sample": lambda: sample(_plain(EXACT_CAP + 1), 10, 1),
    "sample-70-qubits": lambda: sample(_plain(70), 10, 1),
    "sample-shots": lambda: sample(_plain(2), SHOTS_CAP + 1, 1),
    "sample-shots-postselected": lambda: sample(
        Dqc1Circuit(Circuit(2, ()), (0,), (0,), postselect={0: 0}), SHOTS_CAP + 1, 1
    ),
    "build-input": lambda: build_input(_plain(DENSITY_CAP + 1)),
    "gate-matrix": lambda: gate_matrix(h(0), DENSITY_CAP + 1),
    "circuit-matrix": lambda: circuit_matrix(Circuit(DENSITY_CAP + 1, (h(0),))),
    "circuit-matrix-no-gates": lambda: circuit_matrix(Circuit(DENSITY_CAP + 1, ())),
    "distribution-document": lambda: parse_distribution(
        json.dumps({"measured": list(range(EXACT_CAP + 1)), "probs": {}})
    ),
    "error-report": lambda: multiplicative_error_report(_UNIFORM, _UNIFORM),
}


@pytest.mark.parametrize("case", sorted(_OVER_CAP))
def test_caps_raise_before_allocating(case):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(ResourceError):
            _OVER_CAP[case]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
