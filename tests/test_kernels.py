import numpy as np
from hypothesis import given, settings, strategies as st

from mdpgeom import kernels

from conftest import make_model


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


@st.composite
def sweep_cases(draw):
    """A model with 1-4 SAPs per state, listed in shuffled state order, plus (scale, v)."""
    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    states = draw(st.permutations([s for s in range(n) for _ in range(counts[s])]))
    # dyadic rewards, quarter probabilities, values and scales keep every q
    # exact, so the kernel and the loop must agree bit for bit; the few
    # distinct values make exact ties common
    rewards = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
    quarters = st.lists(st.integers(0, n - 1), min_size=4, max_size=4)
    saps = []
    for s in states:
        probs = np.bincount(draw(quarters), minlength=n) / 4.0
        saps.append((s, draw(rewards), probs))
    v = draw(st.lists(st.sampled_from([-2.0, 0.0, 0.25, 3.0]), min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    return make_model(n, 0.9, saps), scale, np.array(v)


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_matches_per_state_loop(case):
    model, scale, v = case
    maxq, greedy = kernels.greedy_sweep_model(model, scale, v)
    for s in range(model.n):
        best, best_id = -np.inf, -1
        for a, sap in enumerate(model.saps):
            if sap.state != s:
                continue
            q = sap.reward + scale * float(sap.probs @ v)
            if q > best:
                best, best_id = q, a
        assert maxq[s] == best
        assert greedy[s] == best_id
