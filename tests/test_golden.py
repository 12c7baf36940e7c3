"""Golden stdout hashes: seeded CLI runs must stay byte-identical.

Each case writes fixed, seeded input files into a fresh directory, runs
one command there with relative paths and pins the sha256 of its stdout.
A refactor that changes a single output byte (a float's last bit, a key,
a count) fails here.  The digests assume one numpy/BLAS build; another
BLAS may round the last bit of a float differently.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dqc1sim import circuits, cli
from dqc1sim.circuits import Dqc1Circuit, parse_circuit, parse_unitary, serialize_circuit, serialize_unitary
from dqc1sim.cli import main
from dqc1sim.engine import density_distribution, exact_distribution
from dqc1sim.gadgets import build_trace_circuit, compile_three, pattern_from_rotations, serialize_pattern
from dqc1sim.randcirc import random_circuit, random_dqc1


def _write(name: str, text: str) -> str:
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _dist_doc(measured, probs) -> str:
    k = len(measured)
    keys = (format(i, f"0{k}b") for i in range(1 << k))
    return json.dumps({"measured": list(measured), "probs": dict(zip(keys, map(float, probs)))})


def _plain_circuit() -> str:
    dc = random_dqc1(np.random.default_rng(101), 5, 24, clean_count=2, measured_count=3)
    return _write("plain.json", serialize_circuit(dc))


def _baked_circuit() -> str:
    red = compile_three(pattern_from_rotations([0.4, -1.2, 2.1]))
    assert red.circuit.postselect
    return _write("baked.json", serialize_circuit(red.circuit))


def _postselect_circuit() -> str:
    c = random_circuit(np.random.default_rng(103), 4, 20)
    return _write("ps.json", serialize_circuit(Dqc1Circuit(c, (0, 1), (0, 1, 3))))


def _unitary() -> str:
    return _write("u.json", serialize_unitary(random_circuit(np.random.default_rng(107), 3, 14)))


def _graph_unitary() -> str:
    # Draws GraphProjX twice: on a two-vertex edge with an extra_zero wire,
    # and on one vertex without.
    u = random_circuit(np.random.default_rng(119), 4, 14)
    assert any(g.kind == "GraphProjX" and g.extra_zero is not None for g in u.gates)
    return _write("ug.json", serialize_unitary(u))


def _error_pair() -> list[str]:
    rng = np.random.default_rng(109)
    p = rng.uniform(0.5, 1.5, size=64)
    p /= p.sum()
    q = p * rng.uniform(0.8, 1.25, size=64)
    q /= q.sum()
    # q lists its qubits in another order, so the report aligns it first.
    order = (3, 0, 5, 1, 4, 2)
    other = (0, 1, 2, 3, 4, 5)
    q_other = q.reshape((2,) * 6).transpose([order.index(v) for v in other]).reshape(-1)
    return [_write("p6.json", _dist_doc(order, p)), _write("q6.json", _dist_doc(other, q_other))]


def _incomparable_pair() -> list[str]:
    p = [0.25, 0.25, 0.0, 0.5]
    q = [0.25, 0.25, 0.25, 0.25]
    return [_write("pz.json", _dist_doc((0, 1), p)), _write("qz.json", _dist_doc((0, 1), q))]


def _pattern() -> str:
    return _write("pattern.json", serialize_pattern(pattern_from_rotations([0.3, -0.9, 1.7])))


CASES = {
    "run-plain": (
        lambda: ["run", "--circuit", _plain_circuit(), "--shots", "4096", "--seed", "11"],
        "165b9ad8435b0d40543f1f7ff797482474d48bd30e55c30ed8f6ef40b3cf03a7",
    ),
    "run-baked-postselect": (
        lambda: ["run", "--circuit", _baked_circuit(), "--shots", "4096", "--seed", "12"],
        "7d574dd488b65df14ff2b9cab86e62ab388b4519ba6c66759ab27bc118c3f867",
    ),
    "exact-plain": (
        lambda: ["exact", "--circuit", _plain_circuit()],
        "c7546f86d14e69db5bfb9bb11fef928a53b58d485366582a8930f7e9afef570b",
    ),
    "exact-postselect": (
        lambda: ["exact", "--circuit", _postselect_circuit(), "--postselect", "0=1,3=0"],
        "bc9fb8bb8119d8228eed0bf52252f9269a2c67c23980d3d8e26bd9769908be38",
    ),
    "trace-real": (
        lambda: ["trace", "--unitary", _unitary(), "--part", "real", "--shots", "20000", "--seed", "13"],
        "9be7ee15240a4371172491ba34d5ea3a8230785a1294281d5c73d2d04a12a9f8",
    ),
    "trace-imaginary": (
        lambda: ["trace", "--unitary", _unitary(), "--part", "imaginary", "--shots", "20000", "--seed", "14"],
        "392b2638090128d1ec4c1beda6a69f9ecdd6ccb1690d1e66316e7ea2802ec0e9",
    ),
    "trace-graph-real": (
        lambda: ["trace", "--unitary", _graph_unitary(), "--part", "real", "--shots", "20000", "--seed", "15"],
        "9bc7d8c30c6cf61769dde66f4adc327c19825606108c05d1ae253add856e3136",
    ),
    "trace-graph-imaginary": (
        lambda: ["trace", "--unitary", _graph_unitary(), "--part", "imaginary", "--shots", "20000", "--seed", "16"],
        "51c22e1bd8a489693c7b092266dee38ae3a18426a391f3a95834169af95028a1",
    ),
    "check-error-k6": (
        lambda: ["check-error", *_error_pair()],
        "e3055d3c5efd75439e857876bcc6d455af07940db0d6ff81a2a40d517aefd432",
    ),
    "check-error-incomparable": (
        lambda: ["check-error", *_incomparable_pair()],
        "f72ad5a7dde96cf237cc01c1e27e7eb08e0ae5aa004a3727657086120af48ff5",
    ),
    "compile-n1": (
        lambda: ["compile", "--pattern", _pattern(), "--mode", "n1", "--out", "n1.json"],
        "973c941af8f529339ddc26cf1b0e5246a4fbeff8bfca860843fd9ed6f8978cc8",
    ),
    "compile-three": (
        lambda: ["compile", "--pattern", _pattern(), "--mode", "three", "--out", "three.json"],
        "b95d6a4943cc91d846e79338100566689fc2669109eb9ae37cc258ba46519d9f",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    make_argv, digest = CASES[name]
    argv = make_argv()
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# The files `compile` writes, and serialize_unitary's text of the graph
# unitary: the circuit writer's bytes, pinned like stdout.
FILE_CASES = {
    "compile-n1": ("n1.json", "efb573373a3ed2d9f64422382d3a87cbde8f30700abfa1a76a9c49f3a088910a"),
    "compile-three": ("three.json", "dfc834880138b38da6ff699ee100073982f2b1f65af7860d8c71efdc82798cbd"),
}
GRAPH_UNITARY_DIGEST = "cbc2da0412339eeaeedae2ea98cb64820262c3dc3fc7946b9bdb28b02d4d6f4a"


@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_golden_compile_file(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name][0]()) == 0
    path, digest = FILE_CASES[name]
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_golden_serialize_unitary(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(_graph_unitary(), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GRAPH_UNITARY_DIGEST


def test_main_is_reentrant(tmp_path, monkeypatch, capsys):
    # One parser serves every call of a process: each case runs twice, in
    # forward then reverse order, with a rejected flag and an unreadable
    # file in between, and every stdout keeps its pinned bytes.
    monkeypatch.chdir(tmp_path)

    def run_cases(names):
        for name in names:
            make_argv, digest = CASES[name]
            argv = make_argv()
            capsys.readouterr()
            assert main(argv) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, name

    run_cases(sorted(CASES))
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--circuit", "plain.json", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["exact", "--circuit", "missing.json"]) == 2
    run_cases(sorted(CASES, reverse=True))
    assert cli.build_parser() is cli.build_parser()


# The `exact` documents of the dense density-matrix oracle.  The CLI takes
# the mixture route, whose pmfs differ from the oracle's in the last bit;
# these digests keep the oracle's own bytes pinned.  A postselected `exact`
# goes through the conditional route, so that route is patched as well: to
# the oracle's joint, then conditioned.
DENSITY_CASES = {
    "exact-plain": "76b85747434473c33bde457a279ecbf0878d06fe7b50c12d45828df10f97ec53",
    "exact-postselect": "82724f00b96adea67e60c5053c69539eed134b9f1847a4ff20a93a9bf09f2d89",
}


@pytest.mark.parametrize("name", sorted(DENSITY_CASES))
def test_golden_density_oracle(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "exact_distribution", density_distribution)
    monkeypatch.setattr(
        cli, "conditional_distribution", lambda dc, ps: density_distribution(dc).condition(ps)
    )
    argv = CASES[name][0]()
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DENSITY_CASES[name], out


def test_golden_exact_circuits_match_the_oracle(tmp_path, monkeypatch):
    # The fused route's pmfs differ from the oracle's only in the last bits.
    monkeypatch.chdir(tmp_path)
    for make in (_plain_circuit, _postselect_circuit):
        with open(make(), encoding="utf-8") as fh:
            dc = parse_circuit(fh.read())
        fused, dense = exact_distribution(dc).pmf, density_distribution(dc).pmf
        assert np.max(np.abs(fused - dense)) <= 1e-12


def _explicit(gates) -> int:
    """Distinct explicit matrix objects: a circuit checks each one once."""
    return len({id(g.matrix) for g in gates if g.matrix is not None})


@pytest.mark.parametrize("command", ["exact", "run", "trace"])
def test_each_explicit_matrix_is_checked_once(command, tmp_path, monkeypatch, capsys):
    # A circuit checks its matrices when built; no later layer checks again.
    monkeypatch.chdir(tmp_path)
    if command == "trace":
        path = _unitary()
        with open(path, encoding="utf-8") as fh:
            u = parse_unitary(fh.read())
        # The input unitary, then the trace circuit built from it.
        expected = _explicit(u.gates) + _explicit(build_trace_circuit(u).gates)
        argv = ["trace", "--unitary", path, "--shots", "64"]
    else:
        path = _baked_circuit()
        with open(path, encoding="utf-8") as fh:
            expected = _explicit(parse_circuit(fh.read()).gates)
        argv = [command, "--circuit", path] + (["--shots", "64"] if command == "run" else [])
    assert expected > 0
    calls = []
    check = circuits.check_unitary
    monkeypatch.setattr(circuits, "check_unitary", lambda mat: calls.append(1) or check(mat))
    assert main(argv) == 0
    assert len(calls) == expected
