import json

import pytest

from dqc1sim.circuits import Circuit, Dqc1Circuit, GraphSpec, h, serialize_circuit, parse_circuit, serialize_unitary, t, x
from dqc1sim.cli import main
from dqc1sim.config import EXACT_CAP, REPORT_CAP, SHOTS_CAP
from dqc1sim.distributions import OutcomeDistribution
from dqc1sim.analysis import parse_distribution, serialize_distribution
from dqc1sim.errors import ParseError
from dqc1sim.engine import exact_distribution
from dqc1sim.gadgets import (
    MbqcPattern,
    linear_pattern_target_probs,
    parse_pattern,
    serialize_pattern,
)


@pytest.fixture
def coin_file(tmp_path):
    dc = Dqc1Circuit(Circuit(1, (h(0),)), (0,), (0,))
    path = tmp_path / "coin.json"
    path.write_text(serialize_circuit(dc))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    from dqc1sim.circuits import cnot

    dc = Dqc1Circuit(Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1))
    path = tmp_path / "bell.json"
    path.write_text(serialize_circuit(dc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run

def test_run_counts_sum_to_shots(capsys, coin_file):
    code, out, _ = _run(capsys, ["run", "--circuit", coin_file, "--shots", "512", "--seed", "9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["shots"] == 512 and doc["seed"] == 9
    assert sum(doc["counts"].values()) == 512
    assert set(doc["counts"]) <= {"0", "1"}


def test_run_is_byte_deterministic(capsys, coin_file):
    argv = ["run", "--circuit", coin_file, "--shots", "256", "--seed", "4"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_run_missing_file_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, ["run", "--circuit", str(tmp_path / "nope.json")])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_run_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out, _ = _run(capsys, ["run", "--circuit", str(path)])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# exact

def test_exact_plain_distribution(capsys, coin_file):
    code, out, _ = _run(capsys, ["exact", "--circuit", coin_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["measured"] == [0]
    assert doc["probs"]["0"] == pytest.approx(0.5)
    assert "postselect" not in doc


def test_exact_postselect_flag(capsys, bell_file):
    code, out, _ = _run(capsys, ["exact", "--circuit", bell_file, "--postselect", "0=1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["postselect"] == {"0": 1}
    assert doc["postselection_probability"] == pytest.approx(0.5)
    assert doc["measured"] == [1]
    assert doc["probs"]["1"] == pytest.approx(1.0)


def test_exact_uses_baked_postselection(capsys, tmp_path):
    from dqc1sim.circuits import cnot

    dc = Dqc1Circuit(
        Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1), postselect={0: 1}
    )
    path = tmp_path / "baked.json"
    path.write_text(serialize_circuit(dc))
    code, out, _ = _run(capsys, ["exact", "--circuit", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["postselect"] == {"0": 1}
    assert doc["probs"]["1"] == pytest.approx(1.0)


def test_exact_flag_overrides_baked(capsys, tmp_path):
    from dqc1sim.circuits import cnot

    dc = Dqc1Circuit(
        Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1), postselect={0: 1}
    )
    path = tmp_path / "baked2.json"
    path.write_text(serialize_circuit(dc))
    code, out, _ = _run(capsys, ["exact", "--circuit", str(path), "--postselect", "0=0"])
    doc = json.loads(out)
    assert code == 0
    assert doc["postselect"] == {"0": 0}
    assert doc["probs"]["0"] == pytest.approx(1.0)


def test_exact_bad_postselect_syntax_exits_2(capsys, coin_file):
    for bad in ("0", "a=1", "0=2", "0=1,0=0", "0=1,00=0", ","):
        code, out, _ = _run(capsys, ["exact", "--circuit", coin_file, "--postselect", bad])
        assert code == 2, bad
        assert out == ""


def test_exact_impossible_postselection_exits_4(capsys, tmp_path):
    dc = Dqc1Circuit(Circuit(2, ()), (0, 1), (0, 1))
    path = tmp_path / "zeros.json"
    path.write_text(serialize_circuit(dc))
    code, out, err = _run(capsys, ["exact", "--circuit", str(path), "--postselect", "0=1"])
    assert code == 4
    assert out == ""
    assert "error" in err


def test_full_postselection_runs_but_has_no_exact_distribution(capsys, tmp_path):
    # Every measured qubit postselected: each shot reads the forced bits,
    # and exact has no qubit left to report.
    from dqc1sim.circuits import cnot

    dc = Dqc1Circuit(Circuit(2, (h(0), cnot(0, 1))), (0, 1), (0, 1), postselect={0: 1, 1: 1})
    path = tmp_path / "forced.json"
    path.write_text(serialize_circuit(dc))
    code, out, _ = _run(capsys, ["run", "--circuit", str(path), "--shots", "8"])
    assert code == 0
    assert json.loads(out)["counts"] == {"11": 8}
    code, out, err = _run(capsys, ["exact", "--circuit", str(path)])
    assert (code, out, err) == (2, "", "error: postselection leaves no measured qubits\n")


def test_exact_resource_cap_exits_3(capsys, tmp_path):
    dc = Dqc1Circuit(Circuit(18, ()), (0,), (0,))
    path = tmp_path / "huge.json"
    path.write_text(serialize_circuit(dc))
    code, out, err = _run(capsys, ["exact", "--circuit", str(path)])
    assert code == 3
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("width", [40, 70])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_run_and_trace_over_the_width_cap_exit_3(capsys, tmp_path, command, width):
    # A trace circuit adds the clean qubit to the unitary's wires.
    if command == "run":
        path = tmp_path / "wide.json"
        path.write_text(serialize_circuit(Dqc1Circuit(Circuit(width, (h(0),)), (0,), (0,))))
        argv = ["run", "--circuit", str(path)]
    else:
        path = tmp_path / "wide_u.json"
        path.write_text(serialize_unitary(Circuit(width - 1, (h(0),))))
        argv = ["trace", "--unitary", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {width} qubits exceed the exact cap of {EXACT_CAP}\n"


@pytest.mark.parametrize("command", ["run", "trace"])
def test_run_and_trace_over_the_shot_cap_exit_3(capsys, tmp_path, command):
    # The cap is checked before the shots' uniforms are drawn.
    if command == "run":
        path = tmp_path / "coin.json"
        path.write_text(serialize_circuit(Dqc1Circuit(Circuit(1, (h(0),)), (0,), (0,))))
        argv = ["run", "--circuit", str(path)]
    else:
        path = tmp_path / "u.json"
        path.write_text(serialize_unitary(Circuit(1, (h(0),))))
        argv = ["trace", "--unitary", str(path)]
    code, out, err = _run(capsys, argv + ["--shots", str(SHOTS_CAP + 1)])
    assert code == 3
    assert out == ""
    assert err == f"error: {SHOTS_CAP + 1} shots exceed the shot cap of {SHOTS_CAP}\n"


@pytest.mark.parametrize("command", ["exact", "run"])
def test_exact_and_run_have_no_density_cap_flag(command, coin_file):
    with pytest.raises(SystemExit) as exc:
        main([command, "--circuit", coin_file, "--density-cap", "4"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# trace

def test_trace_payload(capsys, tmp_path):
    path = tmp_path / "tgate.json"
    path.write_text(serialize_unitary(Circuit(1, (t(0),))))
    code, out, _ = _run(
        capsys, ["trace", "--unitary", str(path), "--shots", "4000", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"normalized_trace_part", "stderr", "shots", "part", "seed"}
    assert doc["part"] == "real"
    assert doc["shots"] == 4000
    want = 0.8535533905932737  # (1 + cos(pi/4)) / 2
    assert abs(doc["normalized_trace_part"] - want) <= 5 * doc["stderr"]


def test_trace_imaginary_part(capsys, tmp_path):
    path = tmp_path / "tgate.json"
    path.write_text(serialize_unitary(Circuit(1, (t(0),))))
    code, out, _ = _run(
        capsys,
        ["trace", "--unitary", str(path), "--part", "imaginary", "--shots", "4000"],
    )
    doc = json.loads(out)
    assert code == 0 and doc["part"] == "imaginary"


def test_trace_identity_is_exact(capsys, tmp_path):
    path = tmp_path / "id.json"
    path.write_text(serialize_unitary(Circuit(2, ())))
    code, out, _ = _run(capsys, ["trace", "--unitary", str(path), "--shots", "100"])
    doc = json.loads(out)
    assert code == 0
    assert doc["normalized_trace_part"] == 1.0
    assert doc["stderr"] == 0.0


# ---------------------------------------------------------------------------
# compile

def _pattern_file(tmp_path):
    g = GraphSpec(3, ((0, 1), (1, 2)))
    pattern = MbqcPattern(g, {0: 0.5, 1: -0.3}, (2,))
    path = tmp_path / "pattern.json"
    path.write_text(serialize_pattern(pattern))
    return str(path), pattern


@pytest.mark.parametrize("mode,measured_count", [("n1", 4), ("three", 3)])
def test_compile_roundtrip(capsys, tmp_path, mode, measured_count):
    pat_file, pattern = _pattern_file(tmp_path)
    out_file = tmp_path / f"compiled_{mode}.json"
    code, out, _ = _run(
        capsys, ["compile", "--pattern", pat_file, "--mode", mode, "--out", str(out_file)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == mode
    assert doc["measured_count"] == measured_count
    assert len(doc["measured"]) == measured_count

    # the emitted file must be a loadable circuit that reproduces the
    # pattern's branch distribution under its postselection
    dc = parse_circuit(out_file.read_text())
    joint = exact_distribution(dc)
    cond, _ = joint.condition({int(q): b for q, b in doc["postselect"].items()})
    got = cond.marginal(tuple(doc["output_qubits"])).probs
    want = linear_pattern_target_probs(pattern)
    keys = set(got) | set(want)
    tv = 0.5 * sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
    assert tv <= 1e-9


def test_compile_three_postselects_two(capsys, tmp_path):
    pat_file, _ = _pattern_file(tmp_path)
    out_file = tmp_path / "c3.json"
    _, out, _ = _run(
        capsys, ["compile", "--pattern", pat_file, "--mode", "three", "--out", str(out_file)]
    )
    doc = json.loads(out)
    assert len(doc["postselect"]) == 2
    assert len(doc["output_qubits"]) == 1


def test_compile_bad_pattern_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"graph": {"n": 2, "edges": [[0, 1]]}}))
    out_file = tmp_path / "never.json"
    code, out, _ = _run(
        capsys, ["compile", "--pattern", str(path), "--mode", "n1", "--out", str(out_file)]
    )
    assert code == 2
    assert out == ""
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# check-error

def _dist_file(tmp_path, name, qubits, probs):
    d = OutcomeDistribution(qubits, probs)
    path = tmp_path / name
    path.write_text(serialize_distribution(d))
    return str(path)


def test_check_error_frozen_value(capsys, tmp_path):
    p = _dist_file(tmp_path, "p.json", (0,), {"0": 0.5, "1": 0.5})
    q = _dist_file(tmp_path, "q.json", (0,), {"0": 0.6, "1": 0.4})
    code, out, _ = _run(capsys, ["check-error", p, q])
    assert code == 0
    doc = json.loads(out)
    assert doc["worst_c"] == 1.25
    assert doc["per_marginal_c"] == {"0": 1.25}


def test_check_error_subset_keys(capsys, tmp_path):
    probs = {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
    p = _dist_file(tmp_path, "p2.json", (0, 1), probs)
    q = _dist_file(tmp_path, "q2.json", (0, 1), probs)
    code, out, _ = _run(capsys, ["check-error", p, q])
    doc = json.loads(out)
    assert code == 0
    assert set(doc["per_marginal_c"]) == {"0", "1", "0,1"}
    assert doc["worst_c"] == 1.0


def test_check_error_incomparable(capsys, tmp_path):
    p = _dist_file(tmp_path, "pz.json", (0,), {"0": 1.0, "1": 0.0})
    q = _dist_file(tmp_path, "qz.json", (0,), {"0": 0.5, "1": 0.5})
    code, out, _ = _run(capsys, ["check-error", p, q])
    assert code == 0
    assert json.loads(out) == {"incomparable": True}


# ---------------------------------------------------------------------------
# JSON booleans, strings and negative indices at the parse boundary

def _circuit_doc(gate):
    return {"total_qubits": 2, "clean_qubits": [0], "gates": [gate], "measure": [0]}


def _pattern_doc(edges):
    return {"graph": {"n": 2, "edges": edges}, "angles": {"0": 0.5}, "outputs": [1]}


def _u1q_doc(u):
    return _circuit_doc({"g": "U1Q", "q": [1], "u": u})


_ONE_BOOL_EDGE = {"n": 1, "edges": [[True, 0]]}

# case -> (document, its location of the error); bool subclasses int, and
# float() and int() read strings, so each of these once parsed: as 1, 0 or
# 1.0, as the identity matrix, or as the edge (0, 1).
_NOT_NUMBERS = {
    "measured-bool": ({"measured": [True, 0], "probs": {"00": 0.5, "11": 0.5}}, "$.measured"),
    "measured-negative": ({"measured": [-3], "probs": {"0": 1.0}}, "$.measured"),
    "probs-bool": ({"measured": [0], "probs": {"0": True, "1": False}}, "$.probs"),
    "theta-bool": (_circuit_doc({"g": "RZ", "q": [1], "theta": True}), "$.gates[0].theta"),
    "qubit-bool": (_circuit_doc({"g": "H", "q": [True]}), "$.gates[0].q"),
    "matrix-strings-and-bools": (
        _u1q_doc([[["1", False], [0, 0]], [[0, 0], [True, "0"]]]),
        "$.gates[0].u[0][0]",
    ),
    "matrix-bool": (_u1q_doc([[[1, 0], [0, 0]], [[0, 0], [True, 0]]]), "$.gates[0].u[1][1]"),
    "edge-string-and-float": (_pattern_doc([["0", 1.9]]), "$.graph.edges[0]"),
    "edge-bool": (_pattern_doc([[True, 0]]), "$.graph.edges[0]"),
    "edge-three-ends": (_pattern_doc([[0, 1], [0, 1, 0]]), "$.graph.edges[1]"),
    "gate-graph-edge-bool": (
        _circuit_doc({"g": "GraphProjX", "q": [0], "c": [1], "graph": _ONE_BOOL_EDGE}),
        "$.gates[0].graph.edges[0]",
    ),
}


@pytest.mark.parametrize("case", sorted(_NOT_NUMBERS))
def test_booleans_and_negative_indices_exit_2(capsys, tmp_path, case):
    doc, location = _NOT_NUMBERS[case]
    text = json.dumps(doc)
    path = tmp_path / "doc.json"
    path.write_text(text)
    if "gates" in doc:
        parser, argv = parse_circuit, ["exact", "--circuit", str(path)]
    elif "graph" in doc:
        out_file = str(tmp_path / "out.json")
        parser = parse_pattern
        argv = ["compile", "--pattern", str(path), "--mode", "n1", "--out", out_file]
    else:
        parser, argv = parse_distribution, ["check-error", str(path), str(path)]
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.location == location
    code, out, err_text = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err_text.startswith(f"error: {location}: ") and err_text.count("\n") == 1


# ---------------------------------------------------------------------------
# seeds outside Philox's 128-bit key range


@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_seed_outside_key_range_exits_2(capsys, tmp_path, coin_file, command, seed):
    if command == "run":
        argv = ["run", "--circuit", coin_file]
    else:
        path = tmp_path / "id.json"
        path.write_text(serialize_unitary(Circuit(1, (h(0),))))
        argv = ["trace", "--unitary", str(path)]
    code, out, err = _run(capsys, argv + ["--shots", "10", "--seed", seed])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify

def test_verify_suite_payload(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "gadgets"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "gadgets"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert all(c["residual"] <= c["tolerance"] for c in doc["checks"])
    assert err.count("pass ") == len(doc["checks"])


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# compile output file, resource failures


def test_compile_file_ends_in_one_newline(capsys, tmp_path):
    pat_file, _ = _pattern_file(tmp_path)
    out_file = tmp_path / "one_newline.json"
    code, _, _ = _run(
        capsys, ["compile", "--pattern", pat_file, "--mode", "three", "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    parse_circuit(text)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_compile_unwritable_out_exits_2(capsys, tmp_path, where):
    pat_file, _ = _pattern_file(tmp_path)
    out_file = str(tmp_path / "absent" / "c.json") if where == "missing-directory" else str(tmp_path)
    code, out, err = _run(
        capsys, ["compile", "--pattern", pat_file, "--mode", "three", "--out", out_file]
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {out_file}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "k",
    [REPORT_CAP + 1, EXACT_CAP + 1],
    ids=["report-cap", "document-cap"],
)
def test_check_error_over_cap_exits_3(capsys, tmp_path, k):
    doc = json.dumps({"measured": list(range(k)), "probs": {"0" * k: 1.0}})
    path = tmp_path / "wide.json"
    path.write_text(doc)
    code, out, err = _run(capsys, ["check-error", str(path), str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_memory_error_exits_3(capsys, monkeypatch, coin_file):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr("dqc1sim.cli._shot_counts", exhausted)
    code, out, err = _run(capsys, ["run", "--circuit", coin_file])
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_unexpected_exception_exits_5_in_one_line(capsys, monkeypatch, coin_file):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel state lost\nsecond line")

    monkeypatch.setattr("dqc1sim.cli._shot_counts", broken)
    code, out, err = _run(capsys, ["run", "--circuit", coin_file])
    assert code == 5
    assert out == ""
    assert err == "error: internal: RuntimeError: kernel state lost second line\n"


# ---------------------------------------------------------------------------
# malformed numbers and indices


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize(
    "gate",
    [
        '{"g": "U1Q", "q": [1], "u": [[[BAD, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        '{"g": "CU", "q": [1], "c": [0], "u": [[[1, 0], [0, 0]], [[0, 0], [BAD, 0]]]}',
    ],
    ids=["U1Q", "CU"],
)
def test_run_non_finite_matrix_exits_2(capsys, tmp_path, gate, bad):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"total_qubits": 2, "clean_qubits": [0], "measure": [0, 1], "gates": [%s]}'
        % gate.replace("BAD", bad)
    )
    code, out, err = _run(capsys, ["run", "--circuit", str(path), "--shots", "100"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exact_non_ascii_digit_postselect_exits_2(capsys, bell_file):
    code, out, err = _run(capsys, ["exact", "--circuit", bell_file, "--postselect", "²=1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --postselect: ") and err.count("\n") == 1


def test_exact_postselect_key_spelled_twice_in_the_file_exits_2(capsys, tmp_path):
    # "1" and "01" name one qubit: exit 2, as --postselect 1=0,01=1 does,
    # rather than keep the last.
    doc = {"total_qubits": 2, "clean_qubits": [0], "measure": [0, 1], "gates": []}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({**doc, "postselect": {"1": 0, "01": 1}}))
    code, out, err = _run(capsys, ["exact", "--circuit", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: $.postselect: qubit 1 assigned twice\n"


def test_trace_has_no_density_cap_flag(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(serialize_unitary(Circuit(2, ())))
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--unitary", str(path), "--density-cap", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# circuits check themselves once, when parsed


@pytest.mark.parametrize(
    "command, total",
    [("trace", 0), ("trace", -1), ("exact", 0)],
    ids=["trace-zero", "trace-negative", "exact-zero"],
)
def test_non_positive_width_exits_2(capsys, tmp_path, command, total):
    path = tmp_path / "empty.json"
    if command == "trace":
        path.write_text(json.dumps({"total_qubits": total, "gates": []}))
        argv = ["trace", "--unitary", str(path), "--shots", "10"]
    else:
        doc = {"total_qubits": total, "clean_qubits": [0], "gates": [], "measure": [0]}
        path.write_text(json.dumps(doc))
        argv = ["exact", "--circuit", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: $.total_qubits: ") and err.count("\n") == 1


def test_trace_names_the_non_unitary_gate_of_its_input(capsys, tmp_path):
    skew = [[[1, 0], [0, 0]], [[1, 0], [1, 0]]]
    doc = {"total_qubits": 2, "gates": [{"g": "H", "q": [0]}, {"g": "U1Q", "q": [1], "u": skew}]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["trace", "--unitary", str(path), "--shots", "10"])
    assert code == 2 and out == ""
    assert err.startswith("error: gate 1 (U1Q): unitarity residual") and err.count("\n") == 1
