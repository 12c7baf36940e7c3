"""Trace estimation and the weak-simulation error calculus.

Multiplicative error between two distributions p and q is the smallest
c >= 1 with p/c <= q <= c p on every outcome of every marginal; the pair
is incomparable when some outcome has exactly one of the two probabilities
zero, and then no finite c exists.  Conditioning on an event both
distributions assign compatible probability degrades the guarantee to at
most c^2, which check_conditional_bounds verifies numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bits import bitstring
from .circuits import Circuit, Dqc1Circuit, _finite_numbers, _json_text, _loads, _number_field
from .circuits import circuit_matrix
from .config import DEFAULT_SEED, EXACT_CAP, REPORT_CAP, ZERO_PROB_TOL
from .distributions import OutcomeDistribution
from .engine import _shot_counts, conditional_distribution
from .errors import ContractError, ParseError, ResourceError
from .gadgets import build_trace_circuit

# Relative slack for comparisons that are exact in theory but float in practice.
_REL_SLACK = 1e-12
_TIGHT_TOL = 1e-9


class _Incomparable:
    """Singleton result for distribution pairs with mismatched support."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCOMPARABLE"


INCOMPARABLE = _Incomparable()


# ---------------------------------------------------------------------------
# trace estimation

@dataclass(frozen=True)
class TraceEstimate:
    """Estimate of Re or Im of tr(u)/2^n from clean-qubit statistics."""

    normalized_trace_part: float
    stderr: float
    shots: int
    part: str
    seed: int


def estimate_trace(
    u: Circuit,
    part: str = "real",
    shots: int = 10**5,
    seed: int = DEFAULT_SEED,
) -> TraceEstimate:
    """Sample the trace circuit for `u` and linearly invert the clean-qubit
    statistics: estimate = 2 p0 - 1, stderr = 2 sqrt(p0 (1-p0) / shots)."""
    dc = build_trace_circuit(u, part)
    p0 = int(_shot_counts(dc, shots, seed)[0]) / shots
    return TraceEstimate(
        normalized_trace_part=2.0 * p0 - 1.0,
        stderr=2.0 * math.sqrt(p0 * (1.0 - p0) / shots),
        shots=shots,
        part=part,
        seed=int(seed),
    )


def frobenius_block_norm(u: Circuit, k: int) -> float:
    """2^-n_mixed times the squared Frobenius norm of the top-left block of
    the full unitary, where the block fixes the first k qubits to |0>.

    For a circuit run with clean qubits 0..k-1 all measured, this equals
    the probability that every measurement reads 0.
    """
    if not 1 <= k < u.total_qubits:
        raise ContractError(f"need 1 <= k < total_qubits, got k={k}")
    n_mixed = u.total_qubits - k
    full = circuit_matrix(u)
    d = 1 << n_mixed
    block = full[:d, :d]
    return float((abs(block) ** 2).sum()) / d


# ---------------------------------------------------------------------------
# multiplicative-error calculus

def _row_cs(pq: np.ndarray):
    """The minimal c of each column of pq, p's marginal real and q's imaginary,
    or INCOMPARABLE when a column has an outcome only one side gives zero."""
    both = pq.view(float)
    p, q = both[:, ::2], both[:, 1::2]
    if both.min() > ZERO_PROB_TOL:  # no zero on either side
        return np.maximum(np.maximum((p / q).max(axis=0), (q / p).max(axis=0)), 1.0)
    p_zero = p <= ZERO_PROB_TOL
    if np.any(p_zero != (q <= ZERO_PROB_TOL)):
        return INCOMPARABLE
    live = ~p_zero
    pq = np.divide(p, q, out=np.zeros_like(p), where=live).max(axis=0)
    qp = np.divide(q, p, out=np.zeros_like(p), where=live).max(axis=0)
    return np.maximum(np.maximum(pq, qp), 1.0)


def _pair_c(p: np.ndarray, q: np.ndarray):
    c = _row_cs(np.column_stack((p, q)).view(complex))
    return c if c is INCOMPARABLE else float(c[0])


def _same_qubits(p: OutcomeDistribution, q: OutcomeDistribution) -> None:
    if set(p.measured_qubits) != set(q.measured_qubits):
        raise ContractError("distributions measure different qubit sets")


def _aligned(p: OutcomeDistribution, q: OutcomeDistribution) -> OutcomeDistribution:
    _same_qubits(p, q)
    if q.measured_qubits == p.measured_qubits:
        return q
    return q.marginal(p.measured_qubits)


def minimal_multiplicative_error(p: OutcomeDistribution, q: OutcomeDistribution):
    """Smallest c >= 1 bounding q between p/c and c p over every outcome of
    every marginal, or INCOMPARABLE.  Marginals of a comparable joint can
    only tighten the bound, so the joint's ratio is returned; the report
    builder enumerates the marginals explicitly."""
    q = _aligned(p, q)
    return _pair_c(p.pmf, q.pmf)


@dataclass(frozen=True)
class MultiplicativeErrorReport:
    """Minimal c per qubit subset, worst over all subsets."""

    per_marginal_c: dict[tuple[int, ...], float]
    worst_c: float


# Joint entries gathered per pass of the error report, as many as
# engine.BLOCK_AMPLITUDES.
REPORT_CHUNK = 1 << 14


def _offsets(places: np.ndarray, start, out: np.ndarray | None = None) -> np.ndarray:
    """Column s: start[s] plus the 2^w sums of subsets of places[:, s], in
    the order of the w-bit outcomes they encode, places[0, s] the most
    significant.  Built by doubling, w adds: numpy's integer matmul is as
    fast, but raised check-error's peak RSS by about 0.5 MB."""
    w, s = places.shape
    off = np.empty((1 << w, s), np.intp) if out is None else out
    off[0] = start
    for j in range(w):
        np.add(off[: 1 << j], places[w - 1 - j], out=off[1 << j : 2 << j])
    return off


def _subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i marks the qubits of the k binary digits of 2^k - 1 - i, most
    significant first, and its size; the rows of size r mark the subsets
    of r qubits in itertools.combinations order."""
    digits = np.arange((1 << k) - 1, -1, -1)[:, None] >> np.arange(k - 1, -1, -1) & 1
    return digits == 1, digits.sum(axis=1)


def _level_tables(in_subset, at, pos, rank, above):
    """Tables of the subsets of one size r, rows `at` of the subset masks,
    on a side whose order puts p's i-th qubit at pos[i]: the places of each
    subset's summed qubits in the side's order, then of its kept ones in
    p's; its prefix (None at r = k): offsets per place of the first summed
    qubit among its parent's, that place, and the parent's stored column;
    and which subsets the next size reads back, those holding the side's
    first qubit.  `rank` maps rows to stored columns; `above` counts the
    columns the last size stored."""
    k = in_subset.shape[1]
    t = k - int(in_subset[0].sum())
    order = np.argsort(np.where(in_subset, k + np.arange(k), pos), axis=1, kind="stable")
    keep, prefix = in_subset[:, np.argmin(pos)], None
    if t:
        r, b = k - t, np.arange(k - t)[:, None]
        ins = _offsets(above << (r - b - (b >= np.arange(r + 1))), 0)
        at_first = np.count_nonzero(order[:, t:] < order[:, :1], axis=1)
        prefix = ins, at_first, (1 << k) + rank[at - (1 << (k - 1 - order[:, 0]))]
    rank[at] = np.cumsum(keep) - keep
    return (1 << (k - 1 - pos))[order].T, prefix, keep


def multiplicative_error_report(p: OutcomeDistribution, q: OutcomeDistribution):
    """Minimal c for every non-empty subset of the measured qubits, by
    size and in combinations order within a size, or INCOMPARABLE if any
    subset (the joint included) mismatches.  The 2^k - 1 marginals of
    each side cost O(4^k), so k above REPORT_CAP raises ResourceError first.

    Sizes run from k down to 1.  Each marginal adds its rows in the order
    OutcomeDistribution.marginal does, so every c is bit-identical to that
    of one pair of marginal distributions per subset.  The rows where the
    subset's first summed qubit reads 0 come first and add up to the
    marginal of its parent, the subset plus that qubit, kept from the size
    before.  That prefix and the rest of the joint are gathered
    REPORT_CHUNK entries at a time into an array (row, kept outcome,
    subset), and one sum over rows finishes each marginal."""
    k = len(p.measured_qubits)
    if k > REPORT_CAP:
        raise ResourceError(f"{k} measured qubits exceed the error-report cap of {REPORT_CAP}")
    _same_qubits(p, q)
    qubits = p.measured_qubits
    if q.measured_qubits == qubits:
        # p real and q imaginary, so one gather serves both.
        sides = [(np.arange(k), np.column_stack((p.pmf, q.pmf)).view(complex)[:, 0])]
    else:
        # q's marginals come from q itself rather than from q reordered to
        # p's qubit order, so each sums q's entries in q's own outcome order.
        sides = [(np.arange(k), p.pmf), (np.array(list(map(q.measured_qubits.index, qubits))), q.pmf)]
    subsets, sizes = _subset_masks(k)
    # A chunk holds at least one subset, whose index has at most 2^k entries.
    room = max(REPORT_CHUNK, 1 << k)
    index, gathered = np.empty(room, np.intp), np.empty(room, sides[0][1].dtype)
    # Per side: its order, each subset's stored column, and the joint then
    # the marginals the last size stored.
    sides = [(pos, np.zeros(1 << k, np.intp), joint) for pos, joint in sides]
    levels, above = [], 0
    for r in range(k, 0, -1):
        at = np.flatnonzero(sizes == r)
        tables = [_level_tables(subsets[at], at, pos, rank, above) for pos, rank, _ in sides]
        above, stores = int(np.count_nonzero(tables[0][2])), []
        for _, _, src in sides:  # rebinding src frees the size before last
            stores.append(np.empty((1 << k) + (above << r), src.dtype))
            stores[-1][: 1 << k] = src[: 1 << k]
        rows = (r < k) + (1 << max(k - r - 1, 0))
        step, cs = room // (rows << r), []
        for lo in range(0, len(at), step):
            chunk = slice(lo, lo + step)
            s = len(at[chunk])
            idx = index[: (rows << r) * s].reshape(rows, 1 << r, s)
            marg = np.empty((1 << r, s), complex)
            outs = [marg] if len(sides) == 1 else [marg.real, marg.imag]
            for (_, rank, src), (places, prefix, keep), out, dst in zip(sides, tables, outs, stores):
                lead, places = 0, places[:, chunk]
                if prefix is not None:  # offsets per place, each subset's place, parent's column
                    np.add(prefix[0][:, prefix[1][chunk]], prefix[2][chunk], out=idx[0])
                    lead, places = places[0], places[1:]
                _offsets(places, lead, idx[rows - (1 << len(places) >> r) :].reshape(-1, s))
                # The index is in range by construction; mode "raise" would
                # gather into a temporary and copy it to `out`.
                g = np.take(src, idx, out=gathered[: idx.size].reshape(idx.shape), mode="clip")
                g.sum(axis=0, initial=0.0, out=out)
                store = dst[1 << k :].reshape(1 << r, above)
                store[:, rank[at[chunk]][keep[chunk]]] = out[:, keep[chunk]]
            c = _row_cs(marg)
            if c is INCOMPARABLE:
                return INCOMPARABLE
            cs.append(c)
        levels.append(np.concatenate(cs))
        sides = [(pos, rank, dst) for (pos, rank, _), dst in zip(sides, stores)]
    cs = np.concatenate(levels[::-1])
    subsets = (subset for r in range(1, k + 1) for subset in itertools.combinations(qubits, r))
    return MultiplicativeErrorReport(dict(zip(subsets, cs.tolist())), max(1.0, float(cs.max())))


@dataclass(frozen=True)
class ConditionalBoundsReport:
    """Outcome of checking conditional probabilities against the c^2 band."""

    c: float
    comparable_at_c: bool
    passed: bool
    max_ratio: float
    min_ratio: float
    binding_high: str
    binding_low: str
    tight: bool


def check_conditional_bounds(
    p_joint: OutcomeDistribution,
    q_joint: OutcomeDistribution,
    ps: Mapping[int, int],
    c: float,
) -> ConditionalBoundsReport:
    """Verify that conditioning on `ps` keeps q within a factor c^2 of p.

    Comparability of the joints at parameter c is checked first; a pair
    that is incomparable or needs a larger c fails the report outright.
    Raises PostselectionImpossibleError when either joint gives the
    conditioning event zero probability.
    """
    if c < 1.0:
        raise ContractError(f"c must be at least 1, got {c}")
    joint_c = minimal_multiplicative_error(p_joint, q_joint)
    comparable = joint_c is not INCOMPARABLE and joint_c <= c * (1.0 + _REL_SLACK)

    p_cond, _ = p_joint.condition(ps)
    q_cond = _aligned(p_cond, q_joint.condition(ps)[0])
    k = len(p_cond.measured_qubits)
    p_zero = p_cond.pmf <= ZERO_PROB_TOL
    mismatch = np.flatnonzero(p_zero != (q_cond.pmf <= ZERO_PROB_TOL))
    if mismatch.size:
        # Support mismatch downstream of conditioning; only possible when
        # the joints were already incomparable.
        key = bitstring(int(mismatch[0]), k)
        return ConditionalBoundsReport(c, comparable, False, math.inf, 0.0, key, key, False)
    live = np.flatnonzero(~p_zero)
    ratios = q_cond.pmf[live] / p_cond.pmf[live]
    hi, lo = int(np.argmax(ratios)), int(np.argmin(ratios))
    max_ratio, min_ratio = max(1.0, float(ratios[hi])), min(1.0, float(ratios[lo]))
    binding_high = bitstring(int(live[hi]), k) if ratios[hi] > 1.0 else ""
    binding_low = bitstring(int(live[lo]), k) if ratios[lo] < 1.0 else ""
    c_sq = c * c
    within = max_ratio <= c_sq * (1.0 + _REL_SLACK) and min_ratio >= (1.0 - _REL_SLACK) / c_sq
    tight = (
        abs(max_ratio - c_sq) <= _TIGHT_TOL * c_sq
        or abs(min_ratio - 1.0 / c_sq) <= _TIGHT_TOL / c_sq
    )
    return ConditionalBoundsReport(
        c=c,
        comparable_at_c=comparable,
        passed=comparable and within,
        max_ratio=max_ratio,
        min_ratio=min_ratio,
        binding_high=binding_high,
        binding_low=binding_low,
        tight=tight,
    )


# ---------------------------------------------------------------------------
# acceptance classification

@dataclass(frozen=True)
class AcceptanceVerdict:
    accept_probability: float
    delta: float
    verdict: str  # "in-language" | "out-of-language" | "inconclusive"


def classify_acceptance(
    dc: Dqc1Circuit, ps: Mapping[int, int], output: int, delta: float
) -> AcceptanceVerdict:
    """Exact postselected acceptance: conditioned on `ps`, is the output
    qubit's probability of reading 1 at least 1/2 + delta (in-language),
    at most 1/2 - delta (out-of-language), or neither (inconclusive)?

    The threshold comparisons are exact; no tolerance is applied.
    """
    if not 0.0 < delta < 0.5:
        raise ContractError(f"delta must lie strictly between 0 and 1/2, got {delta}")
    if output in ps:
        raise ContractError(f"output qubit {output} is postselected")
    if output not in dc.measured:
        raise ContractError(f"output qubit {output} is not measured")
    cond, _ = conditional_distribution(dc, ps)
    p1 = float(cond.marginal((output,)).pmf[1])
    if p1 >= 0.5 + delta:
        verdict = "in-language"
    elif p1 <= 0.5 - delta:
        verdict = "out-of-language"
    else:
        verdict = "inconclusive"
    return AcceptanceVerdict(p1, float(delta), verdict)


# ---------------------------------------------------------------------------
# distribution documents

def serialize_distribution(d: OutcomeDistribution) -> str:
    return _json_text({"measured": list(d.measured_qubits), "probs": d.probs}) + "\n"


def parse_distribution(text: str) -> OutcomeDistribution:
    """Parse a distribution document; the dense outcome array it builds
    has 2^k entries, so more than EXACT_CAP measured qubits raise
    ResourceError before it is allocated."""
    obj = _loads(text)
    if not isinstance(obj, dict) or "measured" not in obj or "probs" not in obj:
        raise ParseError('expected an object with "measured" and "probs"', "$")
    if not isinstance(obj["measured"], list) or not all(
        type(q) is int and q >= 0 for q in obj["measured"]
    ):
        raise ParseError("measured must be an array of qubit indices", "$.measured")
    k = len(obj["measured"])
    if k > EXACT_CAP:
        raise ResourceError(f"{k} measured qubits exceed the exact cap of {EXACT_CAP}")
    if not isinstance(obj["probs"], dict):
        raise ParseError("probs must map bitstrings to probabilities", "$.probs")
    # Every value checked in one pass; the per-entry check only names the
    # first bad one.
    probs = obj["probs"]
    if not _finite_numbers(probs.values()):
        for key, val in probs.items():
            _number_field(val, f"probability of {key!r} must be a finite number", "$.probs")
    try:
        return OutcomeDistribution(tuple(obj["measured"]), probs)
    except ContractError as err:
        raise ParseError(str(err), "$") from None
