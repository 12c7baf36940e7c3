"""Compiled pure-state ops.

A gate list compiles once into ops that run in place on a batch of
amplitude vectors, the columns of a (2^m, B) array seen as (2,)*m + (B,),
so no 2^m x 2^m matrix is ever built.  compile_circuit groups the gates
into blocks of at most FUSE_WIRES wires, one op per block: the block's
matrix comes from running, on its 2^k basis states, each gate's product
exactly as a lone op of that gate would, but with no op object per gate.
Each distinct layout of a product (firing bits, targets, width) is worked
out once per compile_circuit call, in a memo the call drops, so nothing
outlives it.  A wire on which the block acts only while it reads 1 is
peeled off as a control, so a block of gates under the clean qubit touches
half of each state (in a trace circuit that holds for the gates that unfold
a graph projector too).
A lone or wider gate keeps its own op: a controlled matrix (CZ is Z on its
second qubit under the first, CNOT and MCX are X under controls) or, for
GraphProjX, a projector flip.  Each state keeps a lone run's bytes (see
_product), also where the engine runs a controlled matrix on a slice that
fixes more axes than its controls.  States are plain complex arrays, and
this module holds the ops only: the engine folds each run's probabilities
onto the outcomes with bits.fold.
The engine's density route conjugates by the dense oracle's full gate
matrices instead and calls nothing here, and this module imports none of
them, so the two routes stay independent and can check each other.

Bit convention: qubit 0 is the most significant bit of a basis index and
the leftmost character of every outcome bitstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuits import FIXED_1Q, Gate, rz_matrix
from .errors import ContractError

# Widest block of gates fused into one matrix: in interleaved timings 4
# beat 3, 5 and 6 on trace sampling and on the reductions alike.
FUSE_WIRES = 4


@dataclass(frozen=True)
class _ControlledMatrix:
    """`mat` on the target axes of psi[sel].transpose(fwd), per state: on
    the qubits `targets`, first one the most significant bit of a row of
    `mat`, where every qubit q of `fire` reads fire[q].

    sel fixes every control axis to its firing bit and keeps the other
    axes whole, the batch axis last, so psi[sel] is a view; fwd puts the
    target axes first, then the rest in order, the batch axis last.
    """

    sel: tuple
    fwd: tuple[int, ...]
    mat: np.ndarray
    fire: dict
    targets: tuple[int, ...]

    def __call__(self, psi: np.ndarray) -> None:
        _product(psi, self.sel, self.fwd, self.mat)


def _product(psi: np.ndarray, sel: tuple, fwd: tuple, mat: np.ndarray, out=None) -> None:
    """`mat` on the target axes of psi[sel].transpose(fwd), in place, via `out`
    (flat, psi.size at least) if given.  OpenBLAS (SkylakeX, Haswell, Prescott)
    rounds a column alike anywhere among 4k columns in a product of at most 128
    columns and 2^15 multiply-adds, so a state of 4 or more columns keeps its
    lone run's bytes in such products; a state of fewer runs alone, as a row."""
    view, states = psi[sel].transpose(fwd), psi.shape[-1]
    if view.size < 4 * len(mat) * states:
        rows = np.moveaxis(psi, -1, 0).copy()  # a C-contiguous state per row
        view = rows[(slice(None),) + sel[:-1]].transpose((0,) + tuple(1 + a for a in fwd[:-1]))
        view[...] = (mat @ view.reshape(states, len(mat), -1)).reshape(view.shape)
        psi[...] = np.moveaxis(rows, 0, -1)
        return
    step = min(128, max(4, (1 << 15) // len(mat) ** 2), (view.size & -view.size) // len(mat))
    prod = (np.empty(view.size, complex) if out is None else out[: view.size]).reshape(len(mat), -1, step)
    np.matmul(mat, view.reshape(prod.shape).swapaxes(0, 1), out=prod.swapaxes(0, 1))  # a product a chunk
    view[...] = prod.reshape(view.shape)


@dataclass(frozen=True)
class _GraphFlip:
    """Direct projector action of GraphProjX: split off the component along
    `vec` on the leading axes of state.transpose(fwd) and exchange it
    between the 0 and 1 branches of the next axis, the target.  State by
    state on C-contiguous copies: tensordot rounds by column count and strides."""

    fwd: tuple[int, ...]
    vec: np.ndarray

    def __call__(self, psi: np.ndarray) -> None:
        rows = np.moveaxis(psi, -1, 0).copy()  # a C-contiguous state per row
        for state in rows:
            view = state.transpose(self.fwd)
            block = view.reshape(len(self.vec), 2, -1)
            overlap = np.tensordot(self.vec.conj(), block, axes=(0, 0))  # shape (2, rest)
            proj = self.vec[:, None, None] * overlap[None, :, :]
            view[...] = (block - proj + proj[:, ::-1, :]).reshape(view.shape)
        psi[...] = np.moveaxis(rows, 0, -1)


def _wires_first(wires: Sequence[int], axes: Sequence[int]) -> tuple[int, ...]:
    """Transpose order of a view whose axes are the qubits `axes`: the
    positions of `wires` first, then the remaining positions in order."""
    axes = list(axes)
    rest = [i for i, q in enumerate(axes) if q not in wires]
    return tuple(axes.index(w) for w in wires) + tuple(rest)


def compile_gate(
    g: Gate, m: int, wire: Mapping[int, int] | None = None
) -> _ControlledMatrix | _GraphFlip:
    """The ready-to-run op for one gate on m-qubit states.  An op acts in
    place on the columns of a C-contiguous (2^m, B) array seen as (2,)*m + (B,).

    `wire` maps each of the gate's qubits to the axis it acts on, as
    g.remapped(wire) would but without building a Gate; by default qubit q
    is axis q.  The gate is not checked here: a Circuit checks its gates'
    wiring and unitarity once, when it is built.
    """
    at = tuple if wire is None else (lambda qs: tuple(wire[q] for q in qs))
    if g.kind == "GraphProjX":
        vec = g.graph.state_vector()
        if g.extra_zero is not None:
            vec = np.kron(vec, np.array([1.0, 0.0], dtype=complex))
        # Canonical wire order: register, forced-zero qubit, target.
        return _GraphFlip(_wires_first(at(g.wires), range(m)), vec)
    mat, fire, targets = _parts(g, at)
    return _ControlledMatrix(*_layout(fire, targets, m, {}), mat, fire, targets)


def _parts(g: Gate, at) -> tuple[np.ndarray, dict, tuple[int, ...]]:
    """The matrix, firing bits and targets of a gate other than GraphProjX,
    its qubits mapped by `at`."""
    controls, targets = at(g.controls), at(g.qubits)
    bits = g.polarities if g.kind == "MCX" else (1,) * len(controls)
    if g.kind in FIXED_1Q:
        mat = FIXED_1Q[g.kind]
    elif g.kind == "RZ":
        mat = rz_matrix(g.theta)
    elif g.kind in ("U1Q", "CU"):
        mat = g.matrix
    elif g.kind == "CZ":
        mat, controls, bits, targets = FIXED_1Q["Z"], targets[:1], (1,), targets[1:]
    elif g.kind in ("CNOT", "MCX"):
        mat = FIXED_1Q["X"]
    else:
        raise ContractError(f"no kernel for gate kind {g.kind!r}")
    return mat, dict(zip(controls, bits)), targets


def _layout(fire: dict, targets: Sequence[int], m: int, layouts: dict) -> tuple:
    """The (sel, fwd) of a _ControlledMatrix on `targets` where every qubit
    in `fire` reads its bit, from the memo `layouts` or added to it."""
    key = (tuple(fire.items()), tuple(targets), m)
    if key not in layouts:
        sel = tuple(fire.get(q, slice(None)) for q in range(m)) + (slice(None),)
        free = [q for q in range(m) if q not in fire]
        layouts[key] = sel, _wires_first(targets, free) + (len(free),)
    return layouts[key]


def fuse_blocks(gates: Sequence[Gate]) -> list[list[Gate]]:
    """Group gates into blocks of at most FUSE_WIRES wires, in run order.
    Each gate joins the earliest block at or after the last one touching
    its wires that stays within FUSE_WIRES, or opens a new block, so every
    wire keeps its gate order; a wider gate is a block of its own."""
    spans: list[set[int]] = []
    blocks: list[list[Gate]] = []
    last: dict[int, int] = {}  # wire -> last block touching it
    for g in gates:
        wires = g.wires
        b = max([last[w] for w in wires if w in last], default=0)
        while b < len(blocks) and len(spans[b].union(wires)) > FUSE_WIRES:
            b += 1
        if b == len(blocks):
            spans.append(set())
            blocks.append([])
        spans[b].update(wires)
        blocks[b].append(g)
        for w in wires:
            last[w] = b
    return blocks


def _block_op(block: Sequence[Gate], m: int, layouts: dict) -> _ControlledMatrix:
    """One op for a block of gates on k <= FUSE_WIRES wires.  Each gate's
    product, on the k local wires, runs on the block's 2^k basis states,
    whose images are the columns of its matrix.  Each wire on which the
    matrix is exactly the identity while the wire reads 0, and which it
    never flips, becomes a control.  `layouts` is compile_circuit's memo."""
    wires = sorted({w for g in block for w in g.wires})
    k = len(wires)
    cols = np.eye(1 << k, dtype=complex)  # column j: basis state j, then its image
    psi, local = cols.reshape((2,) * k + (-1,)), dict(zip(wires, range(k)))
    at = lambda qs: tuple(local[q] for q in qs)
    for g in block:
        if g.kind == "GraphProjX":
            compile_gate(g, k, local)(psi)
        else:
            mat, fire, targets = _parts(g, at)
            _product(psi, *_layout(fire, targets, k, layouts), mat)
    mat, targets, fire = cols, wires, {}
    off = mat != np.eye(len(mat))  # where the matrix leaves the identity
    for w in wires:
        if len(targets) > 1:
            i, half = targets.index(w), 1 << (len(targets) - 1)
            shape = (1 << i, 2, half >> i) * 2
            split = off.reshape(shape)
            if not (split[:, 0].any() or split[..., 0, :].any()):  # rows, columns where w reads 0
                mat = mat.reshape(shape)[:, 1, :, :, 1, :].reshape(half, half)
                off = split[:, 1, :, :, 1, :].reshape(half, half)
                targets, fire[w] = [q for q in targets if q != w], 1
    mat, targets = np.ascontiguousarray(mat), tuple(targets)
    return _ControlledMatrix(*_layout(fire, targets, m, layouts), mat, fire, targets)


def compile_circuit(gates: Sequence[Gate], m: int) -> list[_ControlledMatrix | _GraphFlip]:
    """Ready-to-run ops for a gate list, one per block of fuse_blocks; a
    one-gate block keeps compile_gate's op.  The gates are not checked
    here.  Each distinct (fire, targets, width) layout is worked out once
    per call, in a memo dropped when the call returns."""
    layouts: dict = {}
    blocks = fuse_blocks(gates)
    return [compile_gate(b[0], m) if len(b) == 1 else _block_op(b, m, layouts) for b in blocks]
