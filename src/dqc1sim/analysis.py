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
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bits import bitstring
from .circuits import Circuit, Dqc1Circuit, _finite_numbers, _loads, _number_field, circuit_matrix
from .config import DEFAULT_SEED, EXACT_CAP, REPORT_CAP, ZERO_PROB_TOL
from .distributions import OutcomeDistribution
from .engine import conditional_distribution, sample
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
    record = sample(dc, shots, seed)
    p0 = np.count_nonzero(record.outcomes == 0) / shots
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

def _row_cs(p: np.ndarray, q: np.ndarray):
    """The minimal c of each row pair of p and q, or INCOMPARABLE when any
    row has an outcome that exactly one side gives zero probability."""
    p_zero = p <= ZERO_PROB_TOL
    if np.any(p_zero != (q <= ZERO_PROB_TOL)):
        return INCOMPARABLE
    live = ~p_zero
    pq = np.divide(p, q, out=np.zeros_like(p), where=live).max(axis=1)
    qp = np.divide(q, p, out=np.zeros_like(p), where=live).max(axis=1)
    return np.maximum(np.maximum(pq, qp), 1.0)


def _pair_c(p: np.ndarray, q: np.ndarray):
    c = _row_cs(p[None], q[None])
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


def _place_values(in_subset: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place values, in one side's joint index, of each subset's summed
    qubits in that side's own order and of its kept qubits in the
    subset's order.  Row s of `in_subset` marks subset s over p's qubits;
    p's i-th qubit is the side's pos[i]-th."""
    s, k = in_subset.shape
    own = np.zeros_like(in_subset)
    own[:, pos] = in_subset
    place = 1 << np.arange(k - 1, -1, -1)
    summed = place[np.nonzero(~own)[1]].reshape(s, -1)
    kept = place[pos[np.nonzero(in_subset)[1]]].reshape(s, -1)
    return summed, kept


def _offsets(places: np.ndarray) -> np.ndarray:
    """Column s: the 2^w sums of subsets of places[s], in the order of the
    w-bit outcomes they encode; places[s, 0] is the most significant.
    Built by doubling, w adds: a product with a table of digits is as
    fast, but numpy's integer matmul raised check-error's peak RSS by
    about 0.5 MB."""
    s, w = places.shape
    off = np.empty((1 << w, s), np.intp)
    off[0] = 0
    for j in range(w):
        np.add(off[: 1 << j], places[:, w - 1 - j], out=off[1 << j : 2 << j])
    return off


def _subset_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i marks the qubits of the k binary digits of 2^k - 1 - i, most
    significant first, and its size; the rows of size r mark the subsets
    of r qubits in itertools.combinations order."""
    digits = np.arange((1 << k) - 1, -1, -1)[:, None] >> np.arange(k - 1, -1, -1) & 1
    return digits == 1, digits.sum(axis=1)


def multiplicative_error_report(p: OutcomeDistribution, q: OutcomeDistribution):
    """Minimal c for every non-empty subset of the measured qubits, or
    INCOMPARABLE if any subset (including the full joint) mismatches.
    The 2^k - 1 marginals of each side cost O(4^k), so k above
    REPORT_CAP raises ResourceError before any is built.

    The marginals of the subsets of one size r are built REPORT_CHUNK
    joint entries at a time: an index gathers each joint into an array
    (summed outcome, subset, kept outcome), and one sum over its first axis
    adds the rows in the order OutcomeDistribution.marginal does.  Every
    marginal, and so every c, is bit-identical to that of one pair of
    marginal distributions per subset.
    """
    k = len(p.measured_qubits)
    if k > REPORT_CAP:
        raise ResourceError(f"{k} measured qubits exceed the error-report cap of {REPORT_CAP}")
    _same_qubits(p, q)
    qubits = p.measured_qubits
    positions = [np.arange(k)]
    if q.measured_qubits != qubits:
        # q's marginals come from q itself rather than from q reordered to
        # p's qubit order, so each sums q's entries in q's own outcome order.
        positions.append(np.array([q.measured_qubits.index(x) for x in qubits]))
    subsets, sizes = _subset_masks(k)
    # A chunk holds at least one whole joint.
    room = max(REPORT_CHUNK, 1 << k)
    step = room >> k
    # intp, as np.take copies any other index type to intp first.
    index = np.empty(room, np.intp)
    gathered = np.empty(room)
    per: dict[tuple[int, ...], float] = {}
    worst = 1.0
    for r in range(1, k + 1):
        in_subset = subsets[sizes == r]
        places = [_place_values(in_subset, pos) for pos in positions]
        cs = []
        for lo in range(0, len(in_subset), step):
            chunk = slice(lo, lo + step)
            marginals = []
            for side, pmf in enumerate((p.pmf, q.pmf)):
                if side < len(places):
                    summed, kept = places[side]
                    rows, cols = _offsets(summed[chunk]), _offsets(kept[chunk])
                    shape = (len(rows), rows.shape[1], len(cols))
                    size = math.prod(shape)
                    idx = np.add(rows[:, :, None], cols.T, out=index[:size].reshape(shape))
                # The index is in range by construction; mode "raise" would
                # gather into a temporary and copy it to `out`.
                out = gathered[:size].reshape(shape)
                marginals.append(np.take(pmf, idx, out=out, mode="clip").sum(axis=0, initial=0.0))
            c = _row_cs(*marginals)
            if c is INCOMPARABLE:
                return INCOMPARABLE
            cs.append(c)
        c = np.concatenate(cs)
        per.update(zip(itertools.combinations(qubits, r), c.tolist()))
        worst = max(worst, float(c.max()))
    return MultiplicativeErrorReport(per, worst)


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
    obj = {"measured": list(d.measured_qubits), "probs": d.probs}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
