import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqc1sim.distributions import OutcomeDistribution, _outcome_index, _outcome_indices
from dqc1sim.errors import ContractError, PostselectionImpossibleError


def uniform(qubits):
    k = len(qubits)
    return OutcomeDistribution(
        tuple(qubits), {format(i, f"0{k}b"): 1.0 / (1 << k) for i in range(1 << k)}
    )


def test_rejects_bad_sum():
    with pytest.raises(ContractError):
        OutcomeDistribution((0,), {"0": 0.7, "1": 0.7})


def test_rejects_wrong_key_length():
    with pytest.raises(ContractError):
        OutcomeDistribution((0, 1), {"0": 1.0})


def test_rejects_non_binary_key():
    with pytest.raises(ContractError):
        OutcomeDistribution((0,), {"2": 1.0})


def test_rejects_duplicate_qubits():
    with pytest.raises(ContractError):
        OutcomeDistribution((1, 1), {"00": 1.0})


def test_clamps_float_noise_negatives():
    d = OutcomeDistribution((0,), {"0": 1.0 + 1e-13, "1": -1e-13})
    assert d.prob("1") == 0.0


def test_marginal_subset_and_order():
    d = OutcomeDistribution(
        (0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
    )
    m0 = d.marginal((0,))
    assert m0.probs == pytest.approx({"0": 0.3, "1": 0.7})
    m_rev = d.marginal((1, 0))
    # key order follows the subset order, here qubit 1 first
    assert m_rev.prob("01") == pytest.approx(0.3)
    assert m_rev.prob("10") == pytest.approx(0.2)


def test_marginal_rejects_foreign_qubit():
    with pytest.raises(ContractError):
        uniform((0, 1)).marginal((2,))


def test_condition_bayes_quotient():
    d = OutcomeDistribution(
        (0, 1), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}
    )
    cond, event = d.condition({0: 1})
    assert event == pytest.approx(0.7)
    assert cond.measured_qubits == (1,)
    assert cond.prob("0") == pytest.approx(0.3 / 0.7)
    assert cond.prob("1") == pytest.approx(0.4 / 0.7)


def test_condition_impossible_event():
    d = OutcomeDistribution((0, 1), {"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0})
    with pytest.raises(PostselectionImpossibleError):
        d.condition({0: 1})


def test_condition_spec_examples():
    cond, _ = uniform((0, 1)).condition({0: 1})
    assert cond.probs == pytest.approx({"0": 0.5, "1": 0.5})
    d = OutcomeDistribution((0, 1), {"00": 0.5, "11": 0.5, "01": 0.0, "10": 0.0})
    cond, _ = d.condition({0: 1})
    assert cond.prob("1") == pytest.approx(1.0)


def test_total_variation_basic():
    p = OutcomeDistribution((0,), {"0": 0.5, "1": 0.5})
    q = OutcomeDistribution((0,), {"0": 0.6, "1": 0.4})
    assert p.total_variation(q) == pytest.approx(0.1)
    assert p.total_variation(p) == 0.0


def test_total_variation_aligns_order():
    p = OutcomeDistribution((0, 1), {"00": 0.2, "01": 0.3, "10": 0.1, "11": 0.4})
    q = p.marginal((1, 0))
    assert p.total_variation(q) <= 1e-15


@st.composite
def _distributions(draw, min_qubits=1):
    k = draw(st.integers(min_value=min_qubits, max_value=3))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1 << k,
            max_size=1 << k,
        )
    )
    total = sum(raw)
    probs = {format(i, f"0{k}b"): v / total for i, v in enumerate(raw)}
    return OutcomeDistribution(tuple(range(k)), probs)


@given(_distributions())
def test_marginal_probabilities_sum_to_one(d):
    for q in d.measured_qubits:
        m = d.marginal((q,))
        assert math.isclose(sum(m.probs.values()), 1.0, abs_tol=1e-9)


@given(_distributions(min_qubits=2), st.integers(min_value=0, max_value=1))
def test_condition_matches_manual_quotient(d, bit):
    qubit = d.measured_qubits[0]
    event = sum(v for key, v in d.probs.items() if key[0] == str(bit))
    cond, reported = d.condition({qubit: bit})
    assert math.isclose(reported, event, rel_tol=1e-12)
    for key, v in d.probs.items():
        if key[0] == str(bit):
            assert math.isclose(cond.prob(key[1:]), v / event, rel_tol=1e-9)


def test_condition_rejects_assigning_every_qubit():
    with pytest.raises(ContractError):
        uniform((0,)).condition({0: 0})


# ---------------------------------------------------------------------------
# the array form against the outcome loops it replaced

def _loop_marginal(probs, positions):
    out = {}
    for key, p in probs.items():
        sub = "".join(key[i] for i in positions)
        out[sub] = out.get(sub, 0.0) + p
    return out


def _loop_condition(probs, fixed):
    event, selected = 0.0, {}
    for key, p in probs.items():
        if all(key[i] == str(b) for i, b in fixed.items()):
            event += p
            sub = "".join(c for i, c in enumerate(key) if i not in fixed)
            selected[sub] = selected.get(sub, 0.0) + p
    return {key: p / event for key, p in selected.items()}, event


def _random_dist(k, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 1.5, size=1 << k)
    raw /= raw.sum()
    return OutcomeDistribution(tuple(range(k)), {format(i, f"0{k}b"): float(v) for i, v in enumerate(raw)})


def test_marginal_is_bit_identical_to_outcome_loop():
    # Keys in index order: the array sums each outcome's entries in the
    # same order as the loop, so every float must match exactly.
    d = _random_dist(7, 3)
    probs = d.probs
    rng = np.random.default_rng(4)
    for r in range(1, 8):
        for subset in itertools.combinations(range(7), r):
            subset = tuple(int(q) for q in rng.permutation(subset))
            want = _loop_marginal(probs, subset)
            assert d.marginal(subset).probs == want, subset


def test_condition_is_bit_identical_to_outcome_loop():
    d = _random_dist(6, 5)
    probs = d.probs
    for fixed in ({0: 1}, {5: 0}, {1: 1, 4: 0}, {0: 0, 2: 1, 3: 1, 5: 0}):
        want, want_event = _loop_condition(probs, fixed)
        cond, event = d.condition(fixed)
        assert event == want_event
        assert cond.probs == want


def test_prob_rejects_malformed_key():
    d = uniform((0, 1))
    with pytest.raises(ContractError):
        d.prob("0")
    with pytest.raises(ContractError):
        d.prob("0a")


def test_array_form_matches_bitstring_form():
    d = OutcomeDistribution((2, 0), np.array([0.1, 0.2, 0.3, 0.4]))
    assert d == OutcomeDistribution((2, 0), {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    assert d.prob("10") == 0.3
    with pytest.raises(ContractError):
        OutcomeDistribution((0, 1), np.array([0.5, 0.5]))
    with pytest.raises(ContractError):
        OutcomeDistribution((0,), np.array([np.nan, 1.0]))


@given(
    k=st.integers(1, 8),
    data=st.data(),
)
def test_mapping_form_places_every_key(k, data):
    # Keys in any order, some outcomes absent: each value lands at its key.
    outcomes = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, unique=True))
    weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(outcomes), max_size=len(outcomes)))
    total = math.fsum(weights)
    probs = {format(i, f"0{k}b"): w / total for i, w in zip(outcomes, weights)}
    d = OutcomeDistribution(tuple(range(k)), probs)
    want = np.zeros(1 << k)
    for i, w in zip(outcomes, weights):
        want[i] = w / total
    assert d.pmf.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        {"01": 0.5, "0": 0.0, "2": 0.5},
        {"01": 0.5, "0a": 0.0, "111": 0.5},
        {"00": 0.5, "0/": 0.0, "x": 0.5},
        {"00": 0.5, "0²": 0.0, 7: 0.5},
        {"00": 0.5, 10: 0.0, "0٣": 0.5},
    ],
)
def test_mapping_form_names_the_first_bad_key(bad):
    first = list(bad)[1]
    with pytest.raises(ContractError, match=f"outcome key {first!r} does not match 2"):
        OutcomeDistribution((0, 1), bad)


@given(
    k=st.integers(1, 3),
    keys=st.lists(st.one_of(st.text("01 _2a", max_size=4), st.integers(0, 3)), max_size=6),
)
def test_bulk_key_check_agrees_with_the_per_key_rule(k, keys):
    # The one-pass check accepts exactly the key lists that _outcome_index
    # accepts key by key, and otherwise names the same first bad key.
    try:
        want = [_outcome_index(key, k) for key in keys]
    except ContractError as err:
        with pytest.raises(ContractError, match=f"^{re.escape(str(err))}$"):
            _outcome_indices(keys, k)
    else:
        assert _outcome_indices(keys, k).tolist() == want
