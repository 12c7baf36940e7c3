"""Execution engine for one-clean-qubit circuits.

Inputs are always |0><0| on the clean qubits tensored with the maximally
mixed state on the rest.  Each job has one entry point: exact_distribution
and conditional_distribution take the mixture route, density_distribution
is the dense oracle, and sample draws shots.  The mixture route averages
pure runs over the mixed-register basis states, each run through the
circuit compiled once into ops, one per fused block of at most
qstate.FUSE_WIRES wires, a block of BLOCK_AMPLITUDES amplitudes (a start
per column) per pass of the ops.  A wire on which a block's starts agree
keeps their bit until an op targets it, so each op runs on the block's
forward light cone (see _plan): it is skipped where it fires on zeros
alone, else run on the slice where such wires read the block's bits.
The oracle, full density-matrix conjugation (capped), is kept only to
check the mixture route and calls nothing in qstate; both fold their
probabilities onto the measured qubits with the one bits.fold.

The mixture route first cuts the circuit: a gate runs only once one of its
wires has met a wire already reached from a clean wire, since every earlier
gate acts on mixed wires alone, on I/2^|S|, which it leaves as it is.  With
postselection it then runs only the starts that can pass.  A wire stays
classical while only X, CNOT and MCX (bit flips of each start) or Z, S,
Sdg, T, Tdg, RZ and CZ (a phase per start) act on it with classical wires
alone, so it ends on a known bit per start; a start whose classical
postselected wire reads the wrong bit adds exactly zero to the selected
outcomes and is never run.  The filter is only valid on the cut gates: run
uncut, the graph-state un-preparation of the paper's reductions spreads a
start over the whole register.

Sampling is per shot: draw a mixed-register basis state, run it pure
through every gate (no cut, no filter: each shot is tied to its draw),
then draw the outcome, all from a counter-based random stream so a (seed,
shot index) pair always yields the same shot.  The shots are drawn
SHOT_CHUNK at a time from one stream, which goes on across chunks.  A start
runs once, in blocks that differ on the wires ops target first (see
_draw_rank), when a chunk first draws it, and its cdf row stays in a table
indexed by draw; each shot takes the index searchsorted gives in its row,
by a branch-free binary search over the chunk.  Where that table would
outweigh all the shots grouped by draw (32 bytes a shot), they are grouped
instead, with one bincount and one stable argsort of the draws narrowed to
the smallest unsigned type, which numpy sorts by radix up to 16 bits, and
each group takes one searchsorted over its slice of the uniforms sorted by
draw.  Callers that only count the shots add one bincount per chunk.
Postselected shots are drawn from the conditional distribution of the free
measured qubits, and the forced bits are set on every draw.  Every
pure-state route is capped at EXACT_CAP qubits and sampling at SHOTS_CAP
shots, checked before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bits import bitstring, fold, scatter_bits
from .circuits import Dqc1Circuit, Gate, _dense_dim, gate_matrix
from .config import EXACT_CAP, HERMITICITY_TOL, SHOTS_CAP, TRACE_TOL
from .distributions import OutcomeDistribution, selector
from .errors import ContractError, ResourceError
from .qstate import _ControlledMatrix, _product, _wires_first, compile_circuit

# Amplitudes per block of pure runs (256 KiB): max(1, 2^14 >> m) basis states, in two
# buffers one call shares (fresh ones page-fault).  Larger blocks raise peak memory, not speed.
BLOCK_AMPLITUDES = 1 << 14

# Shots per chunk of a sampling run (512 KiB of uniforms).  At 2^14 a trace
# call of 10^5 shots took 11x the minor page faults, as glibc mapped and
# unmapped each chunk temporary; 2^16 holds more and faults twice as often.
SHOT_CHUNK = 1 << 15


@dataclass(eq=False)
class ShotRecord:
    """Outcomes of a seeded sampling run.

    outcomes[i] packs shot i's bits over measured_qubits, first measured
    qubit as the most significant bit; bitstrings() renders them.
    """

    measured_qubits: tuple[int, ...]
    outcomes: np.ndarray

    def bitstrings(self) -> Iterator[str]:
        k = len(self.measured_qubits)
        return (bitstring(int(o), k) for o in self.outcomes)

    def counts(self) -> dict[str, int]:
        return _keyed_counts(np.bincount(self.outcomes), len(self.measured_qubits))


def _keyed_counts(counts: np.ndarray, k: int) -> dict[str, int]:
    """The nonzero entries of per-outcome counts, keyed by their k-bit
    bitstrings in outcome order."""
    return {bitstring(int(v), k): int(counts[v]) for v in np.flatnonzero(counts)}


def build_input(dc: Dqc1Circuit) -> np.ndarray:
    """Initial state as an explicit 2^m x 2^m density matrix (capped):
    |0><0| on the clean qubits, I/2 on every other qubit."""
    m = dc.total_qubits
    size = 1 << len(dc.mixed_qubits)
    diag = np.zeros(_dense_dim(m))
    diag[scatter_bits(np.arange(size), dc.mixed_qubits, m)] = 1.0 / size
    return np.diag(diag.astype(complex))


def _check_density(rho: np.ndarray) -> None:
    """Raise ContractError unless rho is Hermitian with unit trace."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= HERMITICITY_TOL:
        raise ContractError(f"hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ContractError(f"trace {tr} is off unity beyond {TRACE_TOL:.1e}")


def _apply_gate_kernel(op, psi: np.ndarray, out: np.ndarray, sel: tuple | None, fwd: tuple | None) -> None:
    """Run one compiled op in place, a controlled matrix on psi[sel] via the
    buffer `out`.  Kept as a named step so that a tracer can count and time
    kernel calls."""
    if isinstance(op, _ControlledMatrix):
        return _product(psi, sel, fwd, op.mat, out)
    op(psi)


def _mixture_outcome_weights(dc: Dqc1Circuit, plan: Sequence, starts: np.ndarray, buf) -> np.ndarray:
    """Outcome weights of pure runs of the planned ops (see _plan), one row
    per basis state in `starts`, each run in a column of buf[0], bit-identical
    to a run alone; buf[1] takes the products."""
    m = dc.total_qubits
    amps = buf[0, : len(starts) << m].reshape(1 << m, -1)
    amps[...] = 0.0
    amps[starts, np.arange(len(starts))] = 1.0  # column c: basis state starts[c]
    psi = amps.reshape((2,) * m + (len(starts),))
    head = int(starts[0])
    # The block's bit on each wire, then a whole axis and the firing bits 0, 1: what pick selects from.
    bits = [head >> (m - 1 - q) & 1 for q in range(m)] + [slice(None), 0, 1]
    for op, need, want, pick, fwd in plan:
        if head & need == want:
            _apply_gate_kernel(op, psi, buf[1], pick and pick(bits), fwd)
    return fold(np.abs(amps) ** 2, m, dc.measured)


def _plan(ops: Sequence, spread: int, m: int) -> list[tuple]:
    """How each op runs on a block whose starts share their bit on every wire
    not in `spread`, as (op, need, want, pick, fwd).  Such a wire is classical,
    holding that bit in every run, until an op targets it (a projector flip
    targets all).  Where the block reads other bits than `want` on `need`, the
    op's firing bits on classical wires, it fires on zeros alone and is skipped;
    else pick(bits) is its sel with classical free non-target wires fixed to the
    block's bits, all but 2 at most, so each state keeps 4 columns or more and
    its lone run's bytes (see qstate._product)."""
    classical = {q for q in range(m) if not spread >> (m - 1 - q) & 1}
    plan = []
    for op in ops:
        if not isinstance(op, _ControlledMatrix):
            plan.append((op, 0, 0, None, None))
            classical.clear()
            continue
        fire, targets = op.fire, op.targets
        spare = m - len(fire) - len(targets) - 2  # free non-target wires that may be fixed
        at, free, need, want = [], [], 0, 0
        for q in range(m):
            if q in fire:
                at.append(m + 1 + fire[q])
                if q in classical:
                    need |= 1 << (m - 1 - q)
                    want |= fire[q] << (m - 1 - q)
            elif spare > 0 and q in classical and q not in targets:
                at.append(q)
                spare -= 1
            else:
                at.append(m)
                free.append(q)
        plan.append((op, need, want, itemgetter(*at, m), _wires_first(targets, free) + (len(free),)))
        classical.difference_update(targets)
    return plan


# Gates that map every basis state to one basis state: a bit flip of
# each start, or a phase per start.
_FLIPS = frozenset({"X", "CNOT", "MCX"})
_PHASES = frozenset({"Z", "S", "Sdg", "T", "Tdg", "RZ", "CZ"})


def _check_width(m: int) -> None:
    if m > EXACT_CAP:
        raise ResourceError(f"{m} qubits exceed the exact cap of {EXACT_CAP}")


def _starts(dc: Dqc1Circuit) -> np.ndarray:
    """Every mixed-register basis state as a packed m-qubit index, in order."""
    m = dc.total_qubits
    _check_width(m)
    return scatter_bits(np.arange(1 << len(dc.mixed_qubits)), dc.mixed_qubits, m)


def _cut(dc: Dqc1Circuit) -> list[Gate]:
    """The gates whose wires meet a wire already reached from a clean wire.
    Each dropped gate acts on mixed wires alone, whose I/2^|S| it keeps."""
    reached = set(dc.clean_qubits)
    kept = []
    for g in dc.gates:
        if not reached.isdisjoint(g.wires):
            reached.update(g.wires)
            kept.append(g)
    return kept


def _reading(values: np.ndarray, bits: Mapping[int, int], m: int) -> np.ndarray:
    """Mask of the packed m-qubit indices on which each qubit q of `bits`
    reads bits[q]."""
    mask = sum(1 << (m - 1 - q) for q in bits)
    return (values & mask) == sum(b << (m - 1 - q) for q, b in bits.items())


def _passing(
    starts: np.ndarray, gates: Sequence[Gate], m: int, ps: Mapping[int, int]
) -> np.ndarray:
    """Mask of the starts that can pass the postselection: those whose
    postselected wires that stay classical end on the required bit."""
    values = starts.copy()
    quantum: set[int] = set()
    for g in gates:
        if g.kind not in _FLIPS | _PHASES or not quantum.isdisjoint(g.wires):
            quantum.update(g.wires)
        elif g.kind in _FLIPS:
            bits = g.polarities if g.kind == "MCX" else (1,)
            fire = _reading(values, dict(zip(g.controls, bits)), m)
            values ^= fire.astype(np.int64) << (m - 1 - g.qubits[0])
    return _reading(values, {q: b for q, b in ps.items() if q not in quantum}, m)


def _weight_rows(dc: Dqc1Circuit, ops: Sequence, starts: np.ndarray) -> Iterator[np.ndarray]:
    """Outcome weights of pure runs of the compiled ops, one row per start,
    yielded a block of BLOCK_AMPLITUDES amplitudes at a time, each block on
    the plan of the wires its starts differ on, made once per such set."""
    m = dc.total_qubits
    rows = max(1, BLOCK_AMPLITUDES >> m)
    buf = np.empty((2, min(rows, len(starts)) << m), dtype=complex)
    firsts = np.arange(0, len(starts), rows)
    spreads = np.bitwise_or.reduceat(starts ^ np.repeat(starts[firsts], rows)[: len(starts)], firsts)
    plans: dict = {}
    for i, spread in zip(firsts.tolist(), spreads.tolist()):
        if spread not in plans:
            plans[spread] = _plan(ops, spread, m)
        yield _mixture_outcome_weights(dc, plans[spread], starts[i : i + rows], buf)


def _summed_weights(dc: Dqc1Circuit, gates: Sequence[Gate], starts: np.ndarray) -> np.ndarray:
    """Outcome weights of pure runs of `gates` from `starts`, each weighted
    1/2^(mixed qubits).  Rows are added one at a time in start order, as by
    lone runs, so a start left out that adds zeros changes no byte."""
    weights = np.zeros(1 << len(dc.measured))
    for block in _weight_rows(dc, compile_circuit(gates, dc.total_qubits), starts):
        for row in block:
            weights += row
    weights *= 1.0 / (1 << len(dc.mixed_qubits))
    return weights


def _passing_weights(dc: Dqc1Circuit, ps: Mapping[int, int]) -> np.ndarray:
    """The summed weights of the cut gates run from the starts that can pass
    `ps`; each entry that matches `ps` has the bytes of a run of them all."""
    gates, starts = _cut(dc), _starts(dc)
    return _summed_weights(dc, gates, starts[_passing(starts, gates, dc.total_qubits, ps)])


def exact_distribution(dc: Dqc1Circuit) -> OutcomeDistribution:
    """Exact joint distribution over the measured qubits: the average of
    pure runs of the cut circuit over the mixed-register basis, in blocks
    of basis states, at O(gates * 4^m) work.  It agrees with
    density_distribution within 1e-10, and the test suite holds it to that.
    """
    weights = _summed_weights(dc, _cut(dc), _starts(dc))
    return OutcomeDistribution(dc.measured, np.maximum(weights, 0.0))


def density_distribution(dc: Dqc1Circuit) -> OutcomeDistribution:
    """The dense oracle: the exact joint distribution from the full density
    matrix, evolved gate by gate at O(gates * 8^m) and capped by the dense
    size.  It serves only as the independent check of the other routes."""
    m = dc.total_qubits
    rho = build_input(dc)
    for g in dc.gates:
        full = gate_matrix(g, m)
        rho = full @ rho @ full.conj().T
    # Checked once for the whole run rather than after every gate.
    _check_density(rho)
    weights = fold(rho.diagonal().real, m, dc.measured)[0]
    return OutcomeDistribution(dc.measured, np.maximum(weights, 0.0))


def conditional_distribution(
    dc: Dqc1Circuit, ps: Mapping[int, int]
) -> tuple[OutcomeDistribution, float]:
    """The exact distribution of the measured qubits that `ps` leaves free,
    given `ps`, and the event probability, as OutcomeDistribution.condition
    returns them.  Postselecting every measured qubit raises ContractError
    before any run."""
    kept, select = selector(dc.measured, ps)
    if not kept:
        raise ContractError("postselection leaves no measured qubits")
    pmf, event = select(_passing_weights(dc, ps))
    return OutcomeDistribution(kept, pmf), event


def all_zeros_probability(dc: Dqc1Circuit) -> float:
    """Probability that every measured clean qubit reads 0.

    Defined for circuits whose measured set is exactly the clean set.
    """
    if set(dc.measured) != set(dc.clean_qubits):
        raise ContractError("all-zeros probability needs measured set == clean set")
    return float(exact_distribution(dc).pmf[0])


def _shot_uniforms(gen: np.random.Generator, shots: int) -> np.ndarray:
    # Philox is counter-based: shot i always consumes words 2i and 2i+1 of
    # the seed's stream, and each call goes on where the last one stopped,
    # so a run drawn a chunk at a time draws the same shots as one call.
    return gen.random((shots, 2))


def _lifted_cdf(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative weights of each row, the trailing plateau lifted to at
    least 1: the rounding gap below 1 goes to the last outcome with weight,
    so every uniform draws an outcome of nonzero weight."""
    cdf = np.cumsum(np.maximum(weights, 0.0), axis=1, out=out)
    np.copyto(cdf, np.maximum(cdf[:, -1:], 1.0), where=cdf == cdf[:, -1:])
    return cdf


def _search(table: np.ndarray, offsets: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Overwrite each shot's offset, where its cdf row starts in the
    flattened table, by the number of entries of that row at most its
    uniform: the index searchsorted(row, uniform, side="right") gives.  A
    branch-free binary search; a row's last entry is at least 1, above
    every uniform, so log2(width) steps find it."""
    flat = table.reshape(-1)
    pos = offsets.copy()
    step = table.shape[1] >> 1
    while step:
        np.add(pos, step, out=pos, where=flat[step - 1 :][pos] <= uniforms)
        step >>= 1
    return np.subtract(pos, offsets, out=offsets)


def _draws(uniforms: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each shot's mixed-register draw from its first uniform, and a copy
    of its second uniform, which draws its outcome."""
    draws = (uniforms[:, 0] * size).astype(np.int64)
    np.clip(draws, 0, size - 1, out=draws)
    return draws, uniforms[:, 1].copy()


def _grouped_outcomes(
    dc: Dqc1Circuit, ops: Sequence, gen: np.random.Generator, shots: int
) -> np.ndarray:
    """Outcomes of every shot at once: the shots grouped by draw, each
    group searched in its draw's cdf row, 32 bytes per shot."""
    size = 1 << len(dc.mixed_qubits)
    draws, uniforms = _draws(_shot_uniforms(gen, shots), size)
    counts = np.bincount(draws, minlength=size)
    values = np.flatnonzero(counts)
    ends = iter(np.cumsum(counts[values]).tolist())
    # Narrow keys: numpy sorts 16-bit keys stably by radix, same order.
    order = np.argsort(draws.astype(np.min_scalar_type(size - 1)), kind="stable")
    uniforms = uniforms[order]  # grouped by draw, in shot order within a group
    drawn, start = np.empty_like(draws), 0
    starts = scatter_bits(values, dc.mixed_qubits, dc.total_qubits)
    for block in _weight_rows(dc, ops, starts):
        for row, end in zip(_lifted_cdf(block), ends):
            drawn[start:end] = np.searchsorted(row, uniforms[start:end], side="right")
            start = end
    outcomes = draws
    outcomes[order] = drawn
    return outcomes


def _draw_rank(ops: Sequence, mixed: Sequence[int]) -> list[int]:
    """Where each mixed wire's bit goes in a draw's sort key, first one the
    most significant: the later an op first targets a wire (a projector flip
    targets them all), the higher its bit, so a block of draws in key order
    differs on the wires targeted first and keeps the rest classical longer."""
    first: dict[int, int] = {}
    for i, op in enumerate(ops):
        for q in getattr(op, "targets", mixed):
            first.setdefault(q, i)
    order = sorted(range(len(mixed)), key=lambda j: -first.get(mixed[j], len(ops)))
    return np.argsort(order).tolist()


def _shot_chunks(dc: Dqc1Circuit, shots: int, seed: int) -> Iterator[np.ndarray]:
    """The outcomes of shots 0, 1, ... in order, SHOT_CHUNK shots at a time.
    Each drawn start runs once, when first drawn, and its cdf row stays in a
    table of min(2^mixed, shots) rows, 2^k entries each.  Where that table
    would outweigh grouping every shot by draw (32 bytes a shot, so only
    from k = 3), the shots are grouped instead and come as one chunk."""
    if shots < 1:
        raise ContractError(f"need a positive shot count, got {shots}")
    if not 0 <= seed < 1 << 128:
        raise ContractError(f"seed must lie in [0, 2^128), got {seed}")
    m, k = dc.total_qubits, len(dc.measured)
    _check_width(m)
    if shots > SHOTS_CAP:
        raise ResourceError(f"{shots} shots exceed the shot cap of {SHOTS_CAP}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    chunks = (min(SHOT_CHUNK, shots - i) for i in range(0, shots, SHOT_CHUNK))
    if dc.postselect:
        # Every measured qubit may be postselected: then pmf is [1.0].
        _, select = selector(dc.measured, dc.postselect)
        pmf, _ = select(_passing_weights(dc, dc.postselect))
        cdf = _lifted_cdf(pmf[None])[0]
        # The outcomes that match, in the order of the pmf's entries.
        fixed = {dc.measured.index(q): b for q, b in dc.postselect.items()}
        matching = np.flatnonzero(_reading(np.arange(1 << k), fixed, k))
        for n in chunks:
            yield matching[np.searchsorted(cdf, _shot_uniforms(gen, n)[:, 1], side="right")]
        return
    size = 1 << len(dc.mixed_qubits)
    ops = compile_circuit(dc.gates, m)
    rows = min(size, shots)
    if rows << k > 4 * shots:
        yield _grouped_outcomes(dc, ops, gen, shots)
        return
    rank = _draw_rank(ops, dc.mixed_qubits)
    table = np.empty((rows, 1 << k))
    offsets = np.full(size, -1)  # where each draw's row starts in the flat table
    filled = 0
    for n in chunks:
        draws, uniforms = _draws(_shot_uniforms(gen, n), size)
        fresh = np.zeros(size, dtype=bool)
        fresh[draws] = True
        fresh = np.flatnonzero(fresh & (offsets < 0))
        fresh = fresh[np.argsort(scatter_bits(fresh, rank, len(rank)))]
        if len(fresh):
            offsets[fresh] = np.arange(filled, filled + len(fresh)) << k
            starts = scatter_bits(fresh, dc.mixed_qubits, m)
            for block in _weight_rows(dc, ops, starts):
                _lifted_cdf(block, out=table[filled : filled + len(block)])
                filled += len(block)
        np.take(offsets, draws, out=draws)  # each shot's row, in place of its draw
        yield _search(table, draws, uniforms)


def _shot_counts(dc: Dqc1Circuit, shots: int, seed: int) -> np.ndarray:
    """How many of sample(dc, shots, seed)'s shots draw each outcome,
    counted a chunk at a time, with no array of every shot."""
    counts = np.zeros(1 << len(dc.measured), dtype=np.int64)
    for chunk in _shot_chunks(dc, shots, seed):
        counts += np.bincount(chunk, minlength=len(counts))
    return counts


def sample(dc: Dqc1Circuit, shots: int, seed: int) -> ShotRecord:
    """Draw seeded i.i.d. shots from the circuit's exact distribution.

    Without postselection each shot draws a mixed-register basis state,
    runs it through the compiled pure-state ops of every gate and draws
    the outcome; each distinct draw runs once, and the distinct draws run
    in blocks.  With postselection baked into the circuit, shots are drawn
    from the exact conditional distribution of the free measured qubits
    and keep their full-length bitstrings, the forced bits set on every
    shot.  More than EXACT_CAP qubits or SHOTS_CAP shots raise
    ResourceError first.
    """
    chunks = _shot_chunks(dc, shots, seed)
    head = next(chunks)  # every shot, when one chunk or the grouping holds them
    if len(head) == shots:
        return ShotRecord(dc.measured, head)
    outcomes = np.empty(shots, dtype=np.int64)
    outcomes[:SHOT_CHUNK] = head
    for start, chunk in zip(range(SHOT_CHUNK, shots, SHOT_CHUNK), chunks):
        outcomes[start : start + len(chunk)] = chunk
    return ShotRecord(dc.measured, outcomes)
