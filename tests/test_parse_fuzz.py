"""Mutation fuzz of the parse boundary.

Valid circuit, unitary, pattern and distribution documents and valid
--postselect strings are mutated at random: an entry anywhere in the
document is replaced by a random JSON value (NaN, infinities, huge
integers, non-ASCII digits included), deleted, or joined by a new key.
Every parser must then either succeed or raise a Dqc1Error subclass.
Only the parsers run, so no size read from a mutated document is ever
allocated.

Mutated documents also run through the whole CLI, with EXACT_CAP lowered
so that no mutated width runs long: circuits and --postselect strings
through `exact` and `run`, unitaries through `trace`, patterns through
`compile` and distributions through `check-error`.  Each call must
succeed or exit 2, 3 or 4 with at most one line on stderr, no traceback,
and output on stdout only when it succeeds.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim.analysis import parse_distribution, serialize_distribution
from dqc1sim.circuits import (
    Circuit,
    Dqc1Circuit,
    GraphSpec,
    cnot,
    cu,
    cz,
    graph_proj_x,
    h,
    mcx,
    parse_circuit,
    parse_unitary,
    rz,
    serialize_circuit,
    serialize_unitary,
    u1q,
)
import dqc1sim.engine
from dqc1sim.cli import _parse_postselect, main
from dqc1sim.distributions import OutcomeDistribution
from dqc1sim.errors import Dqc1Error
from dqc1sim.gadgets import parse_pattern, pattern_from_rotations, serialize_pattern

_SQRT_HALF = np.sqrt(0.5)
_GATES = (
    h(0),
    rz(0.4, 1),
    u1q(np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]), 2),
    cz(0, 1),
    cnot(1, 2),
    cu(np.eye(4), (2, 3), (0,)),
    mcx((0, 1), (1, 0), 3),
    graph_proj_x(GraphSpec(2, ((0, 1),)), (1, 2), 0, extra_zero=3),
)
_CIRCUIT = Dqc1Circuit(Circuit(4, _GATES), (0,), (0, 1, 3), {0: 1, 3: 0})

DOCUMENTS = {
    "circuit": (parse_circuit, serialize_circuit(_CIRCUIT)),
    "unitary": (parse_unitary, serialize_unitary(_CIRCUIT.circuit)),
    "pattern": (parse_pattern, serialize_pattern(pattern_from_rotations([0.3, -1.2]))),
    "distribution": (
        parse_distribution,
        serialize_distribution(OutcomeDistribution((2, 0), np.array([0.1, 0.2, 0.3, 0.4]))),
    ),
}

_TEXT = st.text(alphabet="0123 ²³٣१-=,.eagquHCU", max_size=6)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),  # NaN and the infinities included
    _TEXT,
    st.sampled_from(sorted({"H", "RZ", "U1Q", "CZ", "CNOT", "CU", "MCX", "GraphProjX"})),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw, text: str):
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        # Walk down a random path, then change one entry of the node reached.
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            break
        action = draw(st.sampled_from(["replace", "delete", "add"])) if keys else "add"
        if action == "replace":
            node[key] = draw(_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(_TEXT)] = draw(_VALUES)
        else:
            node.append(draw(_VALUES))
    return json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_package_errors(kind, data):
    parse, text = DOCUMENTS[kind]
    mutated = data.draw(_mutated(text))
    try:
        parse(mutated)
    except Dqc1Error:
        pass


_POSTSELECT_TOKENS = ["0", "1", "2", "17", "=", ",", " ", "²", "٣", "-", "x", "9" * 5000]


@given(st.lists(st.sampled_from(_POSTSELECT_TOKENS), max_size=10).map("".join))
@settings(max_examples=200, deadline=None)
def test_postselect_flag_raises_only_package_errors(text):
    try:
        _parse_postselect(text)
    except Dqc1Error:
        pass


def test_valid_documents_parse():
    for parse, text in DOCUMENTS.values():
        parse(text)
    assert _parse_postselect("0=1, 3=0") == {0: 1, 3: 0}


def test_huge_pattern_vertex_count_is_rejected_without_allocating():
    doc = {"graph": {"n": 10**12, "edges": [[0, 1]]}, "angles": {"0": 0.3}, "outputs": [1]}
    with pytest.raises(Dqc1Error):
        parse_pattern(json.dumps(doc))


@st.composite
def _mutated_postselect(draw, text: str = "0=1, 3=0"):
    """A valid --postselect string with tokens inserted, replaced or deleted."""
    pieces = list(text)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pieces)))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action != "insert" and at < len(pieces):
            del pieces[at]
        if action != "delete":
            pieces.insert(at, draw(st.sampled_from(_POSTSELECT_TOKENS[:-1])))
    return "".join(pieces)


def _assert_clean_exit(argv, files):
    """Write `files` into a fresh directory, run main(argv) with every
    argument that starts with "tmp/" moved into it, and check the exit."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dqc1sim.engine, "EXACT_CAP", 8)
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a[4:]) if a.startswith("tmp/") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (out.getvalue() != "")


def _document(kind):
    text = DOCUMENTS[kind][1]
    return st.just(text) | _mutated(text)


@given(
    circuit=_document("circuit"),
    command=st.sampled_from([["run", "--shots", "16"], ["exact"]])
    | _mutated_postselect().map(lambda text: ["exact", f"--postselect={text}"]),
)
@settings(max_examples=150, deadline=None)
def test_cli_exits_cleanly_on_mutated_input(circuit, command):
    argv = [command[0], "--circuit", "tmp/circuit.json"] + command[1:]
    _assert_clean_exit(argv, {"circuit.json": circuit})


@given(unitary=_document("unitary"), part=st.sampled_from(["real", "imaginary"]))
@settings(max_examples=100, deadline=None)
def test_trace_exits_cleanly_on_mutated_input(unitary, part):
    argv = ["trace", "--unitary", "tmp/unitary.json", "--part", part, "--shots", "64"]
    _assert_clean_exit(argv, {"unitary.json": unitary})


@given(pattern=_document("pattern"), mode=st.sampled_from(["three", "n1"]))
@settings(max_examples=100, deadline=None)
def test_compile_exits_cleanly_on_mutated_input(pattern, mode):
    argv = ["compile", "--pattern", "tmp/pattern.json", "--mode", mode, "--out", "tmp/out.json"]
    _assert_clean_exit(argv, {"pattern.json": pattern})


# Two valid distributions over the same qubits, listed in two orders.
_DISTRIBUTION_TEXTS = (
    DOCUMENTS["distribution"][1],
    serialize_distribution(OutcomeDistribution((0, 2), np.array([0.25, 0.15, 0.35, 0.25]))),
)
_DISTRIBUTIONS = st.sampled_from(_DISTRIBUTION_TEXTS)


@given(
    p=_DISTRIBUTIONS | _DISTRIBUTIONS.flatmap(_mutated),
    q=_DISTRIBUTIONS | _DISTRIBUTIONS.flatmap(_mutated),
)
@settings(max_examples=150, deadline=None)
def test_check_error_exits_cleanly_on_mutated_input(p, q):
    _assert_clean_exit(["check-error", "tmp/p.json", "tmp/q.json"], {"p.json": p, "q.json": q})
