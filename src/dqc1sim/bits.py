"""Bit-indexing helpers and the one fold of probabilities onto outcomes.

Qubit 0 is the topmost wire and the most significant bit of a basis index,
so on two qubits the index 2 = 0b10 means qubit 0 reads 1 and qubit 1 reads 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def scatter_bits(
    values: np.ndarray | int, qubits: Sequence[int], num_qubits: int
) -> np.ndarray | int:
    """Place each value's bits on the listed qubits of an index whose other
    bits are zero; the first listed qubit takes the most significant bit."""
    arr = np.asarray(values, dtype=np.int64)
    k = len(qubits)
    out = np.zeros(arr.shape, dtype=np.int64)
    for j, q in enumerate(qubits):
        out |= ((arr >> (k - 1 - j)) & 1) << (num_qubits - 1 - q)
    return out if out.ndim else int(out)


def fold(p: np.ndarray, m: int, qubits: Sequence[int]) -> np.ndarray:
    """Sum columns of 2^m probabilities onto the listed qubits, into a (B,
    2^k) view; the first listed qubit is the most significant bit of an
    outcome.  The summed qubits lead, so numpy adds one slice after another
    and each entry is the running total, from 0.0 in index order, of its
    column's entries that read that outcome, as if the column were alone."""
    p = p.reshape((2,) * m + (-1,))
    summed = [q for q in range(m) if q not in qubits]
    rows = np.ascontiguousarray(p.transpose(summed + list(qubits) + [m]))
    sums = rows.reshape(1 << len(summed), -1).sum(axis=0, initial=0.0)
    return sums.reshape(1 << len(qubits), -1).T
