import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mdpgeom import (
    classic, enumerate_policies, kernels, normalize_rewards, optimal_policy, verify_contraction
)
from mdpgeom.errors import ValidationFailedError
from mdpgeom.model import MdpModel, lowest_index_policy, policy_count, validate_model

from conftest import make_model, random_instance


def reduceat_sweep(model, scale, v):
    """The greedy sweep as segment reductions over the SAPs in state order.

    The kernel's earlier formulation, kept as an oracle: a segment max, then
    the first position in each segment holding it. On a tie of 0.0 with -0.0
    np.maximum keeps its second argument, so this returns the later SAP's
    zero where the kernel returns the greedy SAP's; no random model below
    scores exactly zero.
    """
    order = np.argsort(model.sap_states, kind="stable")
    seg = model.sap_states[order]
    starts = np.searchsorted(seg, np.arange(model.n))
    qs = (model.sap_rewards + float(scale) * (model.sap_probs @ v))[order]
    maxq = np.maximum.reduceat(qs, starts)
    positions = np.arange(model.m)
    first = np.minimum.reduceat(np.where(qs == maxq[seg], positions, model.m), starts)
    return maxq, order[first]


def sweep_rows(model, scale, v, height):
    """(model, v, maxq, greedy) of each row of one greedy sweep over a stack of
    ``height`` models with ``model``'s SAP layout: ``greedy_sweep_model`` for a
    height of 1, else row j has model's rewards, transition rows and v rolled by j."""
    if height == 1:
        return [(model, v, *kernels.greedy_sweep_model(model, scale, v))]
    models = [
        MdpModel._from_arrays(
            model.n, model.gamma, model.sap_states, np.roll(model.sap_rewards, j), np.roll(model.sap_probs, j, axis=0)
        )
        for j in range(height)
    ]
    vs = np.array([np.roll(v, j) for j in range(height)])
    probs = np.stack([m.sap_probs for m in models])
    rewards = np.stack([m.sap_rewards for m in models])[:, :, None]
    greedy = np.empty(height * model.n, dtype=np.int64)
    maxq = kernels.greedy_sweep(probs, rewards, scale, vs, kernels._stack_tables(model, height), greedy)
    return [(m, vs[j], maxq[j], greedy.reshape(height, -1)[j]) for j, m in enumerate(models)]


def test_matches_manual_computation():
    m = make_model(
        2, 0.5, [(0, 1.0, [0.25, 0.75]), (0, 0.2, [1, 0]), (1, 0.0, [0.5, 0.5])]
    )
    v = np.array([2.0, -1.0])
    scale = 0.5
    maxq, greedy = kernels.greedy_sweep_model(m, scale, v)
    # state 0: q0 = 1 + 0.5*(0.25*2 - 0.75) = 0.875; q1 = 0.2 + 0.5*2 = 1.2
    # state 1: q2 = 0 + 0.5*(0.5*2 - 0.5*1) = 0.25
    np.testing.assert_allclose(maxq, [1.2, 0.25], atol=1e-15)
    assert list(greedy) == [1, 2]


def test_tie_breaks_to_lowest_sap_index():
    # two identical SAPs at each state: the lower index must win
    m = make_model(
        2,
        1.0,
        [
            (0, 1.0, [0.5, 0.5]),
            (0, 1.0, [0.5, 0.5]),
            (1, -1.0, [0.5, 0.5]),
            (1, -1.0, [0.5, 0.5]),
        ],
    )
    _, greedy = kernels.greedy_sweep_model(m, 1.0, np.array([0.3, -0.7]))
    assert list(greedy) == [0, 2]


def test_signed_zero_tie_keeps_the_lowest_index_sign():
    # scale 0 and v < 0 make every scale * (probs @ v) equal -0.0, so a
    # reward of -0.0 scores -0.0 and a reward of 0.0 scores 0.0: tied maxima
    m = make_model(
        2,
        0.9,
        [(0, -0.0, [1, 0]), (0, 0.0, [0, 1]), (1, 0.0, [1, 0]), (1, -0.0, [0, 1])],
    )
    maxq, greedy = kernels.greedy_sweep_model(m, 0.0, np.array([-1.0, -1.0]))
    assert list(greedy) == [0, 2]
    assert list(np.signbit(maxq)) == [True, False]


@st.composite
def sweep_cases(draw):
    """A model with 1-4 SAPs per state, listed in shuffled state order, plus (scale, v).

    In a signed-zero case every reward is 0.0 or -0.0, v < 0 and the scale is
    0, so each score is reward + -0.0, its reward's zero: every state ties
    0.0 with -0.0 in some order, and the maximum must carry the sign of the
    state's lowest-index SAP.
    """
    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    states = draw(st.permutations([s for s in range(n) for _ in range(counts[s])]))
    signed_zeros = draw(st.booleans())
    # dyadic rewards, quarter probabilities, values and scales keep every q
    # exact, so the kernel and the loop must agree bit for bit; the few
    # distinct values make exact ties common
    rewards = st.sampled_from([-0.0, 0.0] if signed_zeros else [-1.0, 0.0, 0.5, 1.0])
    quarters = st.lists(st.integers(0, n - 1), min_size=4, max_size=4)
    saps = []
    for s in states:
        probs = np.bincount(draw(quarters), minlength=n) / 4.0
        saps.append((s, draw(rewards), probs))
    values = [-2.0, -0.25] if signed_zeros else [-2.0, 0.0, 0.25, 3.0]
    v = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    scale = 0.0 if signed_zeros else draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    return make_model(n, 0.9, saps), scale, np.array(v)


@pytest.mark.parametrize("height", [1, 3])
@settings(max_examples=200, deadline=None)
@given(case=sweep_cases())
def test_matches_per_state_loop(case, height):
    for model, v, maxq, greedy in sweep_rows(*case, height):
        scale = case[1]
        for s in range(model.n):
            best, best_id = -np.inf, -1
            for a, sap in enumerate(model.saps):
                if sap.state != s:
                    continue
                q = sap.reward + scale * float(sap.probs @ v)
                if q > best:
                    best, best_id = q, a
            assert maxq[s].tobytes() == np.float64(best).tobytes()  # the first maximum's sign too
            assert greedy[s] == best_id


@st.composite
def random_sweep_cases(draw):
    """Non-dyadic random models with 1-4 SAPs per state, or at times 12 at state
    0 (a skewed layout), listed in shuffled state order, some SAPs copying an
    earlier SAP of their state, plus (scale, v)."""
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    counts[0] = draw(st.sampled_from([counts[0], 12]))
    states = draw(st.permutations([s for s in range(n) for _ in range(counts[s])]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    saps, seen = [], {}
    for s in states:
        if s in seen and draw(st.booleans()):  # an exact tie with an earlier SAP
            saps.append(seen[s])
            continue
        w = rng.random(n) * (rng.random(n) < 0.7)
        w[s] += 0.1
        saps.append((s, float(rng.normal()), w / w.sum()))
        seen.setdefault(s, saps[-1])
    scale = draw(st.sampled_from([0.0, 0.3, 0.95, 1.0]))
    return make_model(n, 0.9, saps), scale, rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)


@pytest.mark.parametrize("height", [1, 3])
@settings(max_examples=300, deadline=None)
@given(case=random_sweep_cases())
def test_matches_the_reduceat_formulation_bit_for_bit(case, height):
    for model, v, maxq, greedy in sweep_rows(*case, height):
        old_maxq, old_greedy = reduceat_sweep(model, case[1], v)
        assert maxq.tobytes() == old_maxq.tobytes()
        assert np.array_equal(greedy, old_greedy)


# bounded so that no sum of up to 300 entries overflows
@given(arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e300, 1e300)))
def test_centering_by_sum_over_size_is_the_mean(v):
    # run_vi centers with v.sum() / v.size; np.mean of float64 divides the
    # same pairwise sum by the same count
    centered = v.copy()
    centered -= centered.sum() / centered.size
    assert centered.tobytes() == (v - v.mean()).tobytes()


def test_normalized_model_shares_the_structure_tables():
    raw = random_instance(5, n=6, gamma=0.9, saps_per_state=3)
    normalized = normalize_rewards(raw, optimal_policy(raw).policy)
    assert normalized.sap_states is raw.sap_states and normalized.sap_probs is raw.sap_probs
    assert normalized.sap_rewards is not raw.sap_rewards


def test_sweep_block_rows():
    m = make_model(
        3, 0.9, [(2, 0.0, [0, 0, 1]), (0, 0.0, [1, 0, 0]), (2, 1.0, [0, 1, 0]), (1, 0.0, [0, 1, 0])]
    )
    # one block: rows list each state's SAPs ascending, padded with the row's first SAP
    ((states, row_starts, table),) = m._sweep_blocks
    assert states.tolist() == [0, 1, 2]
    assert table.tolist() == [[1, 1], [3, 3], [0, 2]]
    assert row_starts.tolist() == [0, 2, 4]
    assert not any(a.flags.writeable for a in (states, row_starts, table))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=30), st.randoms())
def test_sweep_blocks_cover_each_state_within_twice_the_saps(counts, random):
    n = len(counts)
    states = [s for s in range(n) for _ in range(counts[s])]
    random.shuffle(states)
    m = MdpModel._from_arrays(n, 0.9, states, np.zeros(len(states)), np.full((len(states), n), 1 / n))
    covered = []
    for block_states, row_starts, table in m._sweep_blocks:
        k = table.shape[1]
        assert row_starts.tolist() == list(range(0, table.size, k))
        for s, row in zip(block_states.tolist(), table.tolist()):
            saps = m.saps_at(s).tolist()
            assert row == saps + [saps[0]] * (k - len(saps))
        covered += block_states.tolist()
    assert sorted(covered) == list(range(n))
    assert sum(t.size for _, _, t in m._sweep_blocks) <= 2 * m.m
    if len(set(counts)) == 1:
        assert len(m._sweep_blocks) == 1


def test_skewed_layout_splits_into_blocks():
    # one state with 5000 SAPs beside 599 with one: a single (n, k) table would
    # hold 600 * 5000 entries
    counts = [5000] + [1] * 599
    states = np.repeat(np.arange(600), counts)
    m = MdpModel._from_arrays(600, 0.9, states, np.zeros(states.size), np.eye(600)[states])
    assert [t.shape for _, _, t in m._sweep_blocks] == [(599, 1), (1, 5000)]


# each entry point that reads the per-state SAP layout, as a function of the model
NO_SAP_ENTRIES = {
    "optimal_policy": optimal_policy,
    "verify_contraction": verify_contraction,
    "classic.optimal_policy": classic.optimal_policy,
    "enumerate_policies": lambda m: next(enumerate_policies(m)),
    "policy_count": policy_count,
    "lowest_index_policy": lowest_index_policy,
    "greedy_sweep": lambda m: kernels.greedy_sweep_model(m, m.gamma, np.zeros(m.n)),
}


@pytest.mark.parametrize("gamma", [0.9, 1.0])
@pytest.mark.parametrize("entry", NO_SAP_ENTRIES)
def test_every_entry_rejects_a_state_without_saps(entry, gamma):
    # n = 3: state 2 has no SAP; then states 1 and 2 have none; then a SAP is
    # attached to a state outside [0, 3), reported as validate_model reports it
    for states, violations in (
        ([0, 1, 0], ["state 2: no SAP attached"]),
        ([0, 0], ["state 1: no SAP attached", "state 2: no SAP attached"]),
        ([0, 1, 2, 5], ["sap 3: state 5 outside [0, 3)"]),
        ([-1, 0, 1, 2], ["sap 0: state -1 outside [0, 3)"]),
    ):
        rows = np.full((len(states), 3), 1 / 3)
        m = MdpModel._from_arrays(3, gamma, states, np.arange(len(states), dtype=float), rows)
        with pytest.raises(ValidationFailedError) as info:
            NO_SAP_ENTRIES[entry](m)
        assert info.value.violations == violations
        assert set(violations) <= set(validate_model(m))
