"""Correctness checks on dqc1sim's output, computed without dqc1sim.

Each check takes the input's known values and the program's stdout, and
returns None when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

TRACE_SIGMAS = 5.0
EXACT_TOL = 1e-9
C_REL_TOL = 1e-12


def _load(stdout: str) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("stdout is not a JSON object")
    return doc


def check_trace(stdout: str, part: str, shots: int, trace: complex) -> str | None:
    """The estimate lies within TRACE_SIGMAS stderr of the true part of
    tr U / 2^n, and stderr is 2 sqrt(p0 (1 - p0) / shots)."""
    doc = _load(stdout)
    if doc.get("part") != part or doc.get("shots") != shots:
        return f"part/shots echoed as {doc.get('part')}/{doc.get('shots')}"
    est = float(doc["normalized_trace_part"])
    err = float(doc["stderr"])
    zeros = (est + 1.0) / 2.0 * shots
    if abs(zeros - round(zeros)) > 1e-6:
        return f"estimate {est!r} is not 2 k/shots - 1 for an integer k"
    p0 = round(zeros) / shots
    want_err = 2.0 * math.sqrt(p0 * (1.0 - p0) / shots)
    if abs(err - want_err) > C_REL_TOL * want_err:
        return f"stderr {err!r} != 2 sqrt(p0 (1 - p0) / shots) = {want_err!r}"
    target = trace.real if part == "real" else trace.imag
    if abs(est - target) > TRACE_SIGMAS * err:
        return f"estimate {est} is {abs(est - target) / err:.1f} stderr from {target}"
    return None


def chain_output_one(angles) -> float:
    """Pr(output reads 1) of the linear pattern: the squared second
    amplitude of (prod_j H diag(1, e^{i theta_j})) |+>, from 2x2 matrices."""
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    vec = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for theta in angles:
        vec = had @ (np.diag([1.0, np.exp(1j * theta)]) @ vec)
    return float(abs(vec[1]) ** 2)


def check_compile_three(stdout: str) -> str | None:
    """The three-measurement compiler measures 3 qubits, postselects 2."""
    doc = _load(stdout)
    if doc.get("measured_count") != 3 or len(doc.get("measured", ())) != 3:
        return f"compiled circuit measures {doc.get('measured')}, not 3 qubits"
    post = doc.get("postselect", {})
    if len(post) != 2 or set(post.values()) != {1}:
        return f"compiled circuit postselects {post}, not 2 qubits on 1"
    if len(doc.get("output_qubits", ())) != 1:
        return f"compiled circuit has outputs {doc.get('output_qubits')}, not 1"
    return None


def check_chain_exact(stdout: str, angles, vertices: int) -> str | None:
    """probs["1"] is the pattern's output probability, and the event
    probability is 2^-n (graph state) * 1/2 (ancilla) * 2^-(n-1)
    (every non-output reads 1) = 2^-2n."""
    doc = _load(stdout)
    probs = doc.get("probs", {})
    if set(probs) != {"0", "1"}:
        return f"conditional distribution has outcomes {sorted(probs)}"
    want = chain_output_one(angles)
    if abs(probs["1"] - want) > EXACT_TOL:
        return f'probs["1"] = {probs["1"]!r}, 2x2 chain gives {want!r}'
    scaled = float(doc["postselection_probability"]) * 2.0 ** (2 * vertices)
    if abs(scaled - 1.0) > EXACT_TOL:
        return f"postselection probability * 2^2n = {scaled!r}, not 1"
    return None


def pair_c(p: np.ndarray, q: np.ndarray) -> float:
    return max(1.0, float(np.max(p / q)), float(np.max(q / p)))


def marginal_cs(p: np.ndarray, q: np.ndarray, k: int) -> dict[str, float]:
    """c of every non-empty qubit subset, keyed like check-error's output;
    each marginal is a reshape and a sum over the other axes."""
    pt = p.reshape((2,) * k)
    qt = q.reshape((2,) * k)
    out = {}
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            rest = tuple(a for a in range(k) if a not in subset)
            out[",".join(map(str, subset))] = pair_c(
                pt.sum(axis=rest).ravel(), qt.sum(axis=rest).ravel()
            )
    return out


def check_error_report(stdout: str, p: np.ndarray, q: np.ndarray, k: int) -> str | None:
    """worst_c is the joint max(p/q, q/p), and every marginal's c matches a
    numpy recomputation and stays at or below worst_c."""
    doc = _load(stdout)
    worst = float(doc["worst_c"])
    joint = pair_c(p, q)
    if abs(worst - joint) > C_REL_TOL * joint:
        return f"worst_c {worst!r} != joint c {joint!r}"
    got = doc["per_marginal_c"]
    want = marginal_cs(p, q, k)
    if set(got) != set(want):
        return f"{len(got)} marginals reported, {len(want)} expected"
    for key, c in want.items():
        if abs(got[key] - c) > C_REL_TOL * c:
            return f"marginal {key}: c {got[key]!r} != {c!r}"
        if got[key] > worst:
            return f"marginal {key}: c {got[key]!r} exceeds worst_c {worst!r}"
    return None
