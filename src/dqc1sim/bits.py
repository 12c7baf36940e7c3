"""Bit-indexing helpers.

Qubit 0 is the topmost wire and the most significant bit of a basis index,
so on two qubits the index 2 = 0b10 means qubit 0 reads 1 and qubit 1 reads 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def gather_bits(
    indices: np.ndarray | int, qubits: Sequence[int], num_qubits: int
) -> np.ndarray | int:
    """Pack the listed qubits' bits of each index into a small outcome int.

    The first listed qubit becomes the most significant bit of the result.
    """
    arr = np.asarray(indices, dtype=np.int64)
    k = len(qubits)
    out = np.zeros(arr.shape, dtype=np.int64)
    for j, q in enumerate(qubits):
        out |= ((arr >> (num_qubits - 1 - q)) & 1) << (k - 1 - j)
    return out if out.ndim else int(out)


def scatter_bits(
    values: np.ndarray | int, qubits: Sequence[int], num_qubits: int
) -> np.ndarray | int:
    """Inverse of gather_bits for indices whose other bits are zero."""
    arr = np.asarray(values, dtype=np.int64)
    k = len(qubits)
    out = np.zeros(arr.shape, dtype=np.int64)
    for j, q in enumerate(qubits):
        out |= ((arr >> (k - 1 - j)) & 1) << (num_qubits - 1 - q)
    return out if out.ndim else int(out)
