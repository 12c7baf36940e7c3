from hypothesis import given
from hypothesis import strategies as st

from dqc1sim.bits import bitstring, gather_bits, scatter_bits


def test_bit_of_msb_convention():
    # qubit 0 is the most significant bit
    assert gather_bits(0b100, (0,), 3) == 1
    assert gather_bits(0b100, (1,), 3) == 0
    assert gather_bits(0b100, (2,), 3) == 0
    assert gather_bits(0b001, (2,), 3) == 1


def test_bitstring_matches_bit_of():
    s = bitstring(0b01101, 5)
    assert s == "01101"
    assert all(int(s[q]) == gather_bits(0b01101, (q,), 5) for q in range(5))


def test_set_bit():
    # scatter_bits places bits on the listed qubits and leaves the rest 0
    assert scatter_bits(1, (0,), 3) == 0b100
    assert scatter_bits(0b11, (0, 2), 3) == 0b101


def test_gather_bits_order():
    # first listed qubit becomes the MSB of the packed value
    index = 0b10110
    assert gather_bits(index, (0, 1), 5) == 0b10
    assert gather_bits(index, (1, 0), 5) == 0b01
    assert gather_bits(index, (4, 2, 0), 5) == 0b011


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.integers(min_value=0, max_value=(1 << w) - 1),
            st.permutations(range(w)),
        )
    )
)
def test_gather_scatter_roundtrip(case):
    width, index, order = case
    packed = gather_bits(index, tuple(order), width)
    assert scatter_bits(packed, tuple(order), width) == index


@given(st.integers(min_value=0, max_value=255))
def test_scatter_of_identity_order(index):
    assert scatter_bits(index, tuple(range(8)), 8) == index
