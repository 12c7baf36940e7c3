"""Seeded inputs for the benchmark workloads, written as dqc1sim input files.

Everything here uses numpy and json only, never dqc1sim: the program sees
the files, and the checks see the values the files were made from.  The
same seed always gives the same files, byte for byte.

Each generator fixes the structure of its input (gate kinds and counts,
graph sizes, distribution width), so the cost of an operation does not
depend on the seed; the seed picks wires, angles, matrices and values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRACE_QUBITS = 9
TRACE_SHOTS = 100_000
# Kinds of the 12 gates of W, shuffled per input.  One of each composite
# kind, so CU, MCX and GraphProjX (with its forced-zero qubit) are all run.
W_KINDS = ("H", "T", "S", "Y", "RZ", "U1Q", "CZ", "CNOT", "MCX", "CU", "GraphProjX", "X")
MCX_CONTROLS = 2
GRAPH_VERTICES = 3
GRAPH_EDGES = 2
# Eigenphases of each factor of P lie in [-PHASE, PHASE], which keeps
# |tr P| / 2^n away from 0 so a wrong estimate cannot hide in the noise.
PHASE = 0.6

CHAIN_VERTICES = 7
ERROR_K = 10
ERROR_RATIO = (0.8, 1.25)


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _matrix_obj(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _wires(rng: np.random.Generator, count: int) -> list[int]:
    return [int(q) for q in rng.choice(TRACE_QUBITS, size=count, replace=False)]


def _random_gate(rng: np.random.Generator, kind: str) -> dict:
    if kind in ("H", "T", "S", "Y", "X"):
        return {"g": kind, "q": _wires(rng, 1)}
    if kind == "RZ":
        return {"g": "RZ", "q": _wires(rng, 1), "theta": float(rng.uniform(-math.pi, math.pi))}
    if kind == "U1Q":
        return {"g": "U1Q", "q": _wires(rng, 1), "u": _haar_2x2(rng)}
    if kind == "CZ":
        return {"g": "CZ", "q": _wires(rng, 2)}
    if kind == "CNOT":
        c, t = _wires(rng, 2)
        return {"g": "CNOT", "q": [t], "c": [c]}
    if kind == "MCX":
        w = _wires(rng, MCX_CONTROLS + 1)
        pol = [int(b) for b in rng.integers(0, 2, size=MCX_CONTROLS)]
        return {"g": "MCX", "q": [w[-1]], "c": w[:-1], "pol": pol}
    if kind == "CU":
        c, t = _wires(rng, 2)
        return {"g": "CU", "q": [t], "c": [c], "u": _haar_2x2(rng)}
    if kind == "GraphProjX":
        w = _wires(rng, GRAPH_VERTICES + 2)
        pairs = [(a, b) for a in range(GRAPH_VERTICES) for b in range(a + 1, GRAPH_VERTICES)]
        pick = sorted(rng.choice(len(pairs), size=GRAPH_EDGES, replace=False))
        edges = [list(pairs[i]) for i in pick]
        return {
            "g": "GraphProjX",
            "q": [w[GRAPH_VERTICES]],
            "c": w[:GRAPH_VERTICES],
            "graph": {"n": GRAPH_VERTICES, "edges": edges},
            "extra_zero": w[GRAPH_VERTICES + 1],
        }
    raise ValueError(kind)


_INVERSE_KIND = {"S": "Sdg", "Sdg": "S", "T": "Tdg", "Tdg": "T"}


def _inverse_gate(g: dict) -> dict:
    inv = dict(g)
    inv["g"] = _INVERSE_KIND.get(g["g"], g["g"])
    if "theta" in g:
        inv["theta"] = -g["theta"]
    if "u" in g:
        inv["u"] = g["u"].conj().T
    return inv


def _to_file_obj(g: dict) -> dict:
    return {key: _matrix_obj(val) if key == "u" else val for key, val in g.items()}


@dataclass(frozen=True)
class TraceInput:
    """A unitary U = W P W^-1 on TRACE_QUBITS qubits; tr U = prod tr p_i."""

    path: Path
    trace: complex  # tr U / 2^n, computed from the eigenphases of P


def make_trace_input(rng: np.random.Generator, path: Path) -> TraceInput:
    kinds = [W_KINDS[i] for i in rng.permutation(len(W_KINDS))]
    w = [_random_gate(rng, kind) for kind in kinds]
    p_gates = []
    trace = 1.0 + 0.0j
    for q in range(TRACE_QUBITS):
        phases = rng.uniform(-PHASE, PHASE, size=2)
        v = _haar_2x2(rng)
        p = v @ np.diag(np.exp(1j * phases)) @ v.conj().T
        p_gates.append({"g": "U1Q", "q": [q], "u": p})
        trace *= np.exp(1j * phases).sum() / 2.0
    # Gates run in list order, so the matrix W P W^-1 is W^-1's gates first.
    gates = [_inverse_gate(g) for g in reversed(w)] + p_gates + w
    doc = {"total_qubits": TRACE_QUBITS, "gates": [_to_file_obj(g) for g in gates]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return TraceInput(path, complex(trace))


@dataclass(frozen=True)
class ChainInput:
    """A linear-chain measurement pattern; the last vertex is the output."""

    path: Path
    angles: tuple[float, ...]


def make_chain_input(rng: np.random.Generator, path: Path) -> ChainInput:
    n = CHAIN_VERTICES
    angles = tuple(float(a) for a in rng.uniform(-math.pi, math.pi, size=n - 1))
    doc = {
        "graph": {"n": n, "edges": [[j, j + 1] for j in range(n - 1)]},
        "angles": {str(v): a for v, a in enumerate(angles)},
        "outputs": [n - 1],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return ChainInput(path, angles)


@dataclass(frozen=True)
class ErrorInput:
    """Two distributions over ERROR_K qubits, q = p scaled and renormalized."""

    p_path: Path
    q_path: Path
    p: np.ndarray
    q: np.ndarray


def _write_distribution(path: Path, probs: np.ndarray) -> None:
    k = ERROR_K
    doc = {
        "measured": list(range(k)),
        "probs": {format(i, f"0{k}b"): float(v) for i, v in enumerate(probs)},
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def make_error_input(rng: np.random.Generator, p_path: Path, q_path: Path) -> ErrorInput:
    size = 1 << ERROR_K
    p = rng.uniform(0.5, 1.5, size=size)
    p /= p.sum()
    q = p * rng.uniform(*ERROR_RATIO, size=size)
    q /= q.sum()
    _write_distribution(p_path, p)
    _write_distribution(q_path, q)
    return ErrorInput(p_path, q_path, p, q)
