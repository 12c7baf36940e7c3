import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dqc1sim.bits import bitstring, fold, scatter_bits


def _read(index, qubits, width):
    """The outcome a one-hot row at `index` folds onto over `qubits`."""
    row = np.zeros(1 << width)
    row[index] = 1.0
    weights = fold(row, width, qubits)[0]
    assert weights.sum() == 1.0 and weights.max() == 1.0
    return int(weights.argmax())


def test_bit_of_msb_convention():
    # qubit 0 is the most significant bit
    assert _read(0b100, (0,), 3) == 1
    assert _read(0b100, (1,), 3) == 0
    assert _read(0b100, (2,), 3) == 0
    assert _read(0b001, (2,), 3) == 1


def test_bitstring_matches_bit_of():
    s = bitstring(0b01101, 5)
    assert s == "01101"
    assert all(int(s[q]) == _read(0b01101, (q,), 5) for q in range(5))


def test_set_bit():
    # scatter_bits places bits on the listed qubits and leaves the rest 0
    assert scatter_bits(1, (0,), 3) == 0b100
    assert scatter_bits(0b11, (0, 2), 3) == 0b101


def test_fold_order():
    # first listed qubit becomes the MSB of the packed outcome
    index = 0b10110
    assert _read(index, (0, 1), 5) == 0b10
    assert _read(index, (1, 0), 5) == 0b01
    assert _read(index, (4, 2, 0), 5) == 0b011


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.integers(min_value=0, max_value=(1 << w) - 1),
            st.permutations(range(w)),
        )
    )
)
def test_fold_scatter_roundtrip(case):
    width, index, order = case
    packed = _read(index, tuple(order), width)
    assert scatter_bits(packed, tuple(order), width) == index


@given(st.integers(min_value=0, max_value=255))
def test_scatter_of_identity_order(index):
    assert scatter_bits(index, tuple(range(8)), 8) == index


def _running_totals(p, m, qubits):
    """Each row's entries added onto their outcomes one by one, in index
    order, each outcome's total starting from 0.0."""
    k = len(qubits)
    out = []
    for row in p.tolist():
        totals = [0.0] * (1 << k)
        for i, v in enumerate(row):
            totals[sum(((i >> (m - 1 - q)) & 1) << (k - 1 - j) for j, q in enumerate(qubits))] += v
        out.append(totals)
    return np.array(out)


@st.composite
def _fold_cases(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    batch = draw(st.integers(min_value=1, max_value=3))
    qubits = draw(st.permutations(range(m)))[: draw(st.integers(min_value=1, max_value=m))]
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e3, max_value=1e3))
    p = draw(st.lists(entries, min_size=batch << m, max_size=batch << m))
    return m, tuple(qubits), np.array(p).reshape(batch, 1 << m)


@given(_fold_cases())
@example((3, (1,), np.full((1, 8), -0.0)))  # one row onto one qubit, signed zeros
@example((4, (2, 0, 3, 1), np.linspace(-1.0, 1.0, 32).reshape(2, 16)))  # every qubit, shuffled
@example((2, (0,), np.array([[0.1, 0.2, 0.3, -0.0], [-0.0, -0.0, 1e-300, -1e-300]])))
def test_fold_is_a_running_total_from_zero(case):
    m, qubits, p = case  # one row per run; fold takes them as columns
    assert fold(p.T, m, qubits).tobytes() == _running_totals(p, m, qubits).tobytes()


def test_fold_peak_memory_of_a_wide_row():
    # One copy of the row (512 KiB) and the sums, no 2^m index arrays.
    p = np.random.default_rng(1).random(1 << 16)
    tracemalloc.start()
    try:
        fold(p, 16, (0, 5, 9, 15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 << 10
