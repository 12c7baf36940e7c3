"""Seeded random circuits, graphs and unitaries for the verification suites."""

from __future__ import annotations

import numpy as np

from .circuits import (
    Circuit,
    Dqc1Circuit,
    GraphSpec,
    cnot,
    cu,
    cz,
    graph_proj_x,
    h,
    mcx,
    rz,
    s,
    sdg,
    t,
    tdg,
    u1q,
    x,
    y,
    z,
)

_PLAIN_1Q = (h, x, y, z, s, sdg, t, tdg)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_graph(rng: np.random.Generator, num_vertices: int) -> GraphSpec:
    edges = [
        (a, b)
        for a in range(num_vertices)
        for b in range(a + 1, num_vertices)
        if rng.random() < 0.5
    ]
    return GraphSpec(num_vertices, tuple(edges))


def random_circuit(rng: np.random.Generator, total_qubits: int, n_gates: int) -> Circuit:
    """Random circuit drawing from the whole gate set.

    Composite draws (MCX, CU, GraphProjX) are kept small and rare so the
    result still exercises them without dominating runtime.
    """
    m = total_qubits
    gates = []
    while len(gates) < n_gates:
        roll = rng.random()
        if roll < 0.45:
            gates.append(_PLAIN_1Q[rng.integers(len(_PLAIN_1Q))](int(rng.integers(m))))
        elif roll < 0.60:
            gates.append(rz(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(m))))
        elif roll < 0.70:
            gates.append(u1q(random_unitary(rng, 2), int(rng.integers(m))))
        elif roll < 0.85 and m >= 2:
            a, b = rng.choice(m, size=2, replace=False)
            gates.append(cz(int(a), int(b)) if rng.random() < 0.5 else cnot(int(a), int(b)))
        elif m >= 2:
            pick = rng.random()
            if pick < 0.4:
                k = int(rng.integers(1, min(3, m - 1) + 1))
                wires = rng.choice(m, size=k + 1, replace=False)
                pol = tuple(int(b) for b in rng.integers(0, 2, size=k))
                gates.append(mcx([int(q) for q in wires[:-1]], pol, int(wires[-1])))
            elif pick < 0.7:
                wires = rng.choice(m, size=2, replace=False)
                gates.append(cu(random_unitary(rng, 2), (int(wires[1]),), (int(wires[0]),)))
            else:
                k = int(rng.integers(1, min(3, m - 1) + 1))
                room = m - k - 1
                use_extra = room >= 1 and rng.random() < 0.5
                wires = rng.choice(m, size=k + 1 + (1 if use_extra else 0), replace=False)
                graph = random_graph(rng, k)
                extra = int(wires[k + 1]) if use_extra else None
                gates.append(
                    graph_proj_x(graph, [int(q) for q in wires[:k]], int(wires[k]), extra)
                )
    return Circuit(m, tuple(gates))


def random_dqc1(
    rng: np.random.Generator,
    total_qubits: int,
    n_gates: int,
    clean_count: int = 1,
    measured_count: int | None = None,
) -> Dqc1Circuit:
    c = random_circuit(rng, total_qubits, n_gates)
    clean = tuple(range(clean_count))
    if measured_count is None:
        measured_count = int(rng.integers(1, total_qubits + 1))
    measured = tuple(
        int(q) for q in sorted(rng.choice(total_qubits, size=measured_count, replace=False))
    )
    return Dqc1Circuit(c, clean, measured)
