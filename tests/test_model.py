import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdpgeom import (
    EnumerationTooLargeError,
    InvalidPolicyError,
    MdpModel,
    Policy,
    Sap,
    ValidationFailedError,
    ValueVector,
    emit_model,
    enumerate_policies,
    policy_kernel,
    span,
    validate_model,
)
from mdpgeom.model import ENUMERATION_CAP, check_policy, lowest_index_policy, policy_count

from conftest import make_model, random_instance


class TestConstruction:
    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            make_model(1, 0.0, [(0, 0.0, [1.0])])
        with pytest.raises(ValueError):
            make_model(1, 1.5, [(0, 0.0, [1.0])])

    def test_positive_state_count(self):
        with pytest.raises(ValueError):
            MdpModel(n=0, gamma=0.5, saps=(Sap(0, 0.0, [1.0]),))

    def test_immutable_arrays(self):
        m = make_model(2, 1.0, [(0, 2.0, [0, 1]), (1, 0.0, [1, 0])])
        with pytest.raises(ValueError):
            m.saps[0].probs[0] = 0.5
        with pytest.raises(ValueError):
            m.sap_probs[0, 0] = 0.5

    def test_ragged_row_raises(self):
        # an (m, n) matrix cannot hold a row of another length: every such row is listed
        rows = [(0, 1.0, [0, 1]), (1, 0.0, [0.5, 0.25, 0.25]), (1, 0.0, [1.0])]
        with pytest.raises(ValidationFailedError) as err:
            make_model(2, 1.0, rows)
        assert err.value.violations == [
            "sap 1: transition row has length 3, expected 2",
            "sap 2: transition row has length 1, expected 2",
        ]

    def test_state_beyond_int64_reported(self):
        rows = [(0, 0.0, [1, 0]), (1, 0.0, [0, 1]), (10**30, 0.0, [0, 1])]
        with pytest.raises(ValidationFailedError) as err:
            make_model(2, 0.9, rows)
        assert err.value.violations == [f"sap 2: state {10**30} outside [0, 2)"]

    def test_saps_view_shares_the_rows(self):
        m = make_model(2, 0.9, [(0, 1.5, [0.25, 0.75]), (1, -2.0, [1, 0])])
        assert [(a.state, a.reward) for a in m.saps] == [(0, 1.5), (1, -2.0)]
        assert all(np.shares_memory(a.probs, m.sap_probs) for a in m.saps)
        assert m.saps is m.saps


class TestValidateModel:
    def test_valid_two_state(self):
        m = make_model(2, 1.0, [(0, 1.0, [0, 1]), (1, 0.0, [1, 0])])
        assert validate_model(m) == []

    def test_bad_row_sum_reported(self):
        m = make_model(2, 1.0, [(0, 1.0, [0.5, 0.6]), (1, 0.0, [1, 0])])
        report = validate_model(m)
        assert len(report) == 1
        assert "row sum" in report[0] and "1.1" in report[0]

    def test_state_without_sap(self):
        m = make_model(2, 1.0, [(0, 1.0, [0, 1]), (0, 0.0, [1, 0])])
        report = validate_model(m)
        assert any("state 1" in v and "no SAP" in v for v in report)

    def test_state_out_of_range(self):
        m = make_model(2, 1.0, [(0, 1.0, [0, 1]), (1, 0.0, [1, 0]), (5, 0.0, [1, 0])])
        assert any("outside" in v for v in validate_model(m))

    def test_negative_entry(self):
        m = make_model(2, 1.0, [(0, 1.0, [-0.5, 1.5]), (1, 0.0, [1, 0])])
        assert any("outside [0, 1]" in v for v in validate_model(m))

    def test_tolerance_is_tight(self):
        # 1e-13 off is accepted, 1e-11 off is not
        ok = make_model(1, 1.0, [(0, 0.0, [1.0 + 1e-13])])
        bad = make_model(1, 1.0, [(0, 0.0, [1.0 - 1e-11])])
        assert validate_model(ok) == []
        assert validate_model(bad) != []


class TestPolicyKernel:
    def test_swap(self, swap_model, swap_policy):
        assert np.array_equal(policy_kernel(swap_model, swap_policy), [[0, 1], [1, 0]])

    def test_selfloops_identity(self, selfloop_model):
        assert np.array_equal(policy_kernel(selfloop_model, Policy([0, 1])), np.eye(2))

    def test_mixed(self):
        m = make_model(2, 1.0, [(0, 0.0, [1, 0]), (1, 0.0, [1, 0])])
        assert np.array_equal(policy_kernel(m, Policy([0, 1])), [[1, 0], [1, 0]])

    def test_rows_bitwise_equal_to_saps(self):
        # no arithmetic on the rows: picked rows must be bit-identical
        probs = [0.1 + 0.2, 1.0 - (0.1 + 0.2)]  # deliberately non-round floats
        m = make_model(1, 0.9, [(0, 0.0, [1.0])])
        m2 = make_model(2, 0.9, [(0, 1.0, probs), (1, 0.0, [0.25, 0.75])])
        k = policy_kernel(m2, Policy([0, 1]))
        assert np.array_equal(k[0], m2.saps[0].probs)
        assert np.array_equal(k[1], m2.saps[1].probs)
        del m

    @pytest.mark.parametrize(
        "choice, message",
        [
            ([0, 2, 9], "state 1: SAP 2 is attached to state 2"),
            ([0, 9, 0], "state 1: SAP index 9 out of range"),
            ([-1, 3, 1], "state 0: SAP index -1 out of range"),
            # one past the last SAP, which is attached to state 1
            ([0, 4, 5], "state 1: SAP index 4 out of range"),
        ],
    )
    def test_invalid_policy_reports_first_bad_state(self, choice, message):
        rows = [(0, 0.0, [1, 0, 0]), (1, 0.0, [0, 1, 0]), (2, 0.0, [0, 0, 1]), (1, 0.0, [1, 0, 0])]
        m = make_model(3, 0.9, rows)
        with pytest.raises(InvalidPolicyError) as err:
            check_policy(m, Policy(choice))
        assert str(err.value) == message

    def test_invalid_policy(self, swap_model):
        with pytest.raises(InvalidPolicyError):
            policy_kernel(swap_model, Policy([1, 0]))  # wrong states
        with pytest.raises(InvalidPolicyError):
            policy_kernel(swap_model, Policy([0, 5]))  # out of range


class TestSpan:
    def test_definition(self):
        assert span([2.0, 0.0]) == 2.0
        assert span([-1.0, 3.0, 0.5]) == 4.0

    def test_constant_vector(self):
        assert span([3.7] * 5) == 0.0
        assert span([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            span([])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 8))
            c = rng.uniform(-10, 10)
            assert span(v + c) == pytest.approx(span(v), abs=1e-9)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=5)
            a = rng.uniform(0, 10)
            assert span(a * v) == pytest.approx(a * span(v), rel=1e-12, abs=1e-12)


class TestEnumeratePolicies:
    def test_counts(self):
        one_each = make_model(2, 1.0, [(0, 0.0, [0, 1]), (1, 0.0, [1, 0])])
        assert len(list(enumerate_policies(one_each))) == 1

        two_one = make_model(
            2, 1.0, [(0, 0.0, [0, 1]), (0, 1.0, [1, 0]), (1, 0.0, [1, 0])]
        )
        assert len(list(enumerate_policies(two_one))) == 2

        cube = make_model(
            3,
            1.0,
            [(s, float(k), np.eye(3)[(s + 1) % 3]) for s in range(3) for k in range(2)],
        )
        assert len(list(enumerate_policies(cube))) == 8
        assert policy_count(cube) == 8

    def test_lexicographic_and_distinct(self):
        m = make_model(
            2, 1.0, [(0, 0.0, [0, 1]), (0, 1.0, [1, 0]), (1, 0.0, [1, 0]), (1, 1.0, [0, 1])]
        )
        pols = [p.as_tuple() for p in enumerate_policies(m)]
        assert pols == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert len(set(pols)) == len(pols)

    def test_lexicographic_across_chunks(self):
        # 4^7 policies of n = 7 span several chunks; unequal SAP counts too
        for counts in ([4] * 7, [1, 3, 2, 5, 1, 4, 3]):
            saps = [(s, 0.0, np.eye(7)[s]) for s, c in enumerate(counts) for _ in range(c)]
            m = make_model(7, 1.0, saps[::-1])  # SAP order is not state order
            per_state = [m.saps_at(s).tolist() for s in range(7)]
            expected = list(itertools.product(*per_state))
            assert [p.as_tuple() for p in enumerate_policies(m)] == expected
            assert policy_count(m) == len(expected)

    def test_cap(self):
        # n = 10 with 4 SAPs per state: 4**10 = 1,048,576 policies
        states = np.repeat(np.arange(10), 4)
        m = MdpModel._from_arrays(10, 1.0, states, np.zeros(40), np.eye(10)[states])
        assert policy_count(m) == 4**10 > ENUMERATION_CAP
        with pytest.raises(EnumerationTooLargeError):  # before any block is decoded
            next(enumerate_policies(m))

    def test_lowest_index_policy(self, swap_plus_selfloop):
        assert lowest_index_policy(swap_plus_selfloop).as_tuple() == (0, 1)


def validate_oracle(model):
    """validate_model as a per-SAP loop over the Sap view: the reference for the vectorised one.

    It has no ragged-row branch: an (m, n) matrix holds no ragged row.
    """
    violations = []
    for i, sap in enumerate(model.saps):
        if not 0 <= sap.state < model.n:
            violations.append(f"sap {i}: state {sap.state} outside [0, {model.n})")
        # written so that NaN, which compares false, fails both tests
        if not np.all((sap.probs >= 0.0) & (sap.probs <= 1.0 + 1e-12)):
            violations.append(f"sap {i}: transition entries outside [0, 1]")
        total = float(sap.probs.sum())
        if not abs(total - 1.0) <= 1e-12:
            violations.append(f"sap {i}: row sum {total!r} != 1")
    covered = {sap.state for sap in model.saps if 0 <= sap.state < model.n}
    for s in range(model.n):
        if s not in covered:
            violations.append(f"state {s}: no SAP attached")
    return violations


# reals that are awkward to store and print: signed zero, subnormals, huge, inexact
AWKWARD = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 0.1 + 0.2, 1.0 / 3.0, 1.0, 1e300, -3.5]


@st.composite
def sap_lists(draw, valid=True):
    """(n, gamma, [(state, reward, probs)]) with 1-4 SAPs per state in shuffled state order.

    Valid lists have rows summing to 1 within 1e-12. Otherwise states may fall
    outside [0, n) or go uncovered, and entries may be negative, NaN or off-sum.
    """
    n = draw(st.integers(1, 9))
    gamma = draw(st.sampled_from([1e-300, 0.1 + 0.2, 0.95, 1.0]))
    reals = st.sampled_from(AWKWARD)
    states = [s for s in range(n) for _ in range(draw(st.integers(1, 4)))]
    if not valid:
        states = draw(st.lists(st.integers(-2, n + 1), min_size=1, max_size=4 * n))
        reals = st.sampled_from(AWKWARD + [-0.25, 1.5, math.nan, math.inf])
    saps = []
    for state in draw(st.permutations(states)):
        probs = draw(st.lists(reals, min_size=n, max_size=n))
        if valid:
            probs = [abs(p) if abs(p) <= 1.0 else 0.0 for p in probs[:-1]]
            probs.insert(draw(st.integers(0, n - 1)), 1.0 - math.fsum(probs))
            if min(probs) < 0.0:
                probs = [1.0 / n] * n
        saps.append((state, draw(reals), probs))
    return n, gamma, saps


class TestArrayModel:
    """The Sap constructor and the array constructor build one model."""

    @given(sap_lists())
    def test_sap_and_array_construction_agree(self, case):
        n, gamma, saps = case
        by_sap = make_model(n, gamma, saps)
        states, rewards, rows = zip(*saps)
        from_lists = MdpModel._from_arrays(n, gamma, list(states), list(rewards), list(rows))
        from_arrays = MdpModel._from_arrays(
            n, gamma, np.array(states), np.array(rewards), np.array(rows, dtype=np.float64)
        )
        text = emit_model(by_sap)
        for model in (from_lists, from_arrays):
            assert model == by_sap
            assert emit_model(model) == text
        assert MdpModel(by_sap.n, by_sap.saps, by_sap.gamma) == by_sap
        assert validate_model(by_sap) == []

    @given(sap_lists(valid=False))
    def test_validate_matches_the_per_sap_loop(self, case):
        model = make_model(*case)
        assert validate_model(model) == validate_oracle(model)


class TestCopies:
    """pickle and deepcopy rebuild each object through its constructor, so arrays stay read-only."""

    @pytest.mark.parametrize(
        "round_trip", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_equal_and_read_only(self, round_trip):
        model = random_instance(3, n=5, gamma=0.9)
        assert model.saps  # built and cached before the copy
        pi = Policy([0, 2, 4, 6, 8])
        vector = ValueVector(values=np.arange(5.0), criterion="discounted-classical")
        model2, sap2, pi2, vector2 = map(round_trip, [model, model.saps[3], pi, vector])
        assert (model2, sap2, pi2, vector2) == (model, model.saps[3], pi, vector)
        arrays = [model2.sap_states, model2.sap_rewards, model2.sap_probs]
        arrays += [sap2.probs, pi2.choice, vector2.values]
        assert not any(a.flags.writeable for a in arrays)
        assert "saps" not in vars(model2)


class TestValueVectorEquality:
    def test_equal(self):
        assert ValueVector(np.arange(3.0), "x") == ValueVector(np.arange(3.0), "x")

    def test_unequal_values(self):
        assert ValueVector(np.arange(3.0), "x") != ValueVector(np.arange(1.0, 4.0), "x")
        assert ValueVector(np.arange(3.0), "x") != ValueVector(np.arange(2.0), "x")

    def test_unequal_criteria(self):
        assert ValueVector(np.arange(3.0), "x") != ValueVector(np.arange(3.0), "y")

    def test_other_types(self):
        assert ValueVector(np.arange(3.0), "x") != (np.arange(3.0), "x")
