import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mdpgeom import (
    ChainClassification,
    NotPrimitiveError,
    NotUnichainError,
    classify_chain,
    primitivity_certificate,
    stationary_distribution,
    unichain_by_invertibility,
)

from mdpgeom.chains import _classify, _levels

from conftest import random_stochastic


def deterministic_kernels(n):
    """All n^n deterministic transition functions as 0/1 kernels."""
    for image in itertools.product(range(n), repeat=n):
        p = np.zeros((n, n))
        for i, j in enumerate(image):
            p[i, j] = 1.0
        yield p


def oracle_classification(p):
    """Closed classes from scipy's strongly connected components.

    A component is closed iff no edge of the support leaves it.
    """
    support = p > 0.0
    _, label = connected_components(csr_matrix(support), directed=True, connection="strong")
    leaving = support & (label[:, None] != label[None, :])
    open_labels = set(label[leaving.any(axis=1)].tolist())
    closed = set(label.tolist()) - open_labels
    return ChainClassification(
        closed_class_count=len(closed),
        transient_states=frozenset(i for i in range(len(p)) if label[i] in open_labels),
        is_unichain=len(closed) == 1,
    )


@st.composite
def sparse_kernels(draw):
    """Kernels with n <= 12 and one to three uniform successors per state."""
    n = draw(st.integers(1, 12))
    p = np.zeros((n, n))
    for i in range(n):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        p[i, cols] = 1.0 / len(cols)
    return p


@st.composite
def kernel_stacks(draw):
    """Stacks of one to six kernels of one size n <= 8, reducible and multichain ones among them."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    stack = np.zeros((k, n, n))
    for p in stack:
        for i in range(n):
            cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            p[i, cols] = 1.0 / len(cols)
    return stack


def float_power_search(p):
    """The float search primitivity_certificate ran before it read the chain structure.

    Multiplies left to right up to the Wielandt bound; returns
    (exponent, omega), or None when no power within the bound is positive.
    """
    n = p.shape[0]
    power = p.copy()
    for exponent in range(1, n * n - 2 * n + 3):
        if np.all(power > 0.0):
            return exponent, float(power.min())
        power = power @ p
    return None


def certificate_or_none(p):
    try:
        cert = primitivity_certificate(p)
    except NotPrimitiveError:
        return None
    return cert.exponent, cert.omega


@st.composite
def random_kernels(draw):
    """Kernels with n <= 8: random weights on a random support, one entry per row at least."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1.0
        rows.append(np.array(weights) / sum(weights))
    return np.array(rows)


def long_paths(n, last_absorbing):
    """i -> i+1; the last state returns to 0 or is absorbing. Paths run to n-1 steps."""
    p = np.zeros((n, n))
    p[np.arange(n - 1), np.arange(1, n)] = 1.0
    p[n - 1, n - 1 if last_absorbing else 0] = 1.0
    return p


class TestClassifyChain:
    def test_identity_two_absorbing(self):
        cls = classify_chain(np.eye(2))
        assert cls.closed_class_count == 2
        assert not cls.is_unichain
        assert cls.transient_states == frozenset()

    def test_swap_cycle(self):
        cls = classify_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert cls.closed_class_count == 1
        assert cls.is_unichain
        assert cls.transient_states == frozenset()

    def test_absorbing_plus_feeder(self):
        cls = classify_chain(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert cls.is_unichain
        assert cls.closed_class_count == 1
        assert cls.transient_states == frozenset({1})
        assert all(type(s) is int for s in cls.transient_states)

    def test_two_blocks(self):
        p = np.zeros((4, 4))
        p[0, 1] = p[1, 0] = 1.0
        p[2, 3] = p[3, 2] = 1.0
        cls = classify_chain(p)
        assert cls.closed_class_count == 2
        assert not cls.is_unichain

    def test_transient_chain_into_cycle(self):
        # 3 -> 2 -> cycle{0,1}
        p = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        cls = classify_chain(p)
        assert cls.is_unichain
        assert cls.transient_states == frozenset({2, 3})

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            classify_chain(np.array([[0.5, 0.6], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            classify_chain(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            classify_chain(np.ones((2, 3)))

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [math.nan, 0.0], [0.5, math.nan]])
    def test_rejects_nan(self, row):
        # NaN compares false, so a check written as `p < 0` would let it through
        with pytest.raises(ValueError, match="NaN"):
            classify_chain(np.array([row, [0.0, 1.0]]))

    def test_infinite_row_sum_message(self):
        with pytest.raises(ValueError, match=r"^row 0 sums to inf, not 1$"):
            classify_chain(np.array([[math.inf, 0.0], [0.0, 1.0]]))

    def test_single_state(self):
        cls = classify_chain(np.array([[1.0]]))
        assert cls == ChainClassification(1, frozenset(), True)
        assert cls == oracle_classification(np.array([[1.0]]))

    def test_matches_oracle_on_deterministic_kernels(self):
        # 1 + 4 + 27 + 256 kernels
        for n in (1, 2, 3, 4):
            for p in deterministic_kernels(n):
                assert classify_chain(p) == oracle_classification(p)

    @given(sparse_kernels())
    def test_matches_oracle_on_sparse_kernels(self, p):
        assert classify_chain(p) == oracle_classification(p)

    @given(kernel_stacks())
    def test_stacked_closure_matches_each_kernel(self, stack):
        counts, recurrent = _classify(stack)
        for p, count, rec in zip(stack, counts.tolist(), recurrent):
            cls = classify_chain(p)
            assert count == cls.closed_class_count == oracle_classification(p).closed_class_count
            assert frozenset(np.flatnonzero(~rec).tolist()) == cls.transient_states
            assert (count == 1) == unichain_by_invertibility(p)

    def test_support_is_the_positive_entries(self):
        # a -1e-13 entry is no edge: 0 -> {0, 1}, 1 -> 2, 2 -> 0 is one closed class
        p = np.array([[0.5, 0.5 + 1e-13, -1e-13], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        count, recurrent = _classify(p)
        assert count == 1
        assert recurrent.tolist() == [True, True, True]

    def test_fortran_order_kernel(self):
        # the closure writes each diagonal through a view, whatever the layout
        p = np.asfortranarray([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert classify_chain(p) == ChainClassification(2, frozenset({0}), False)

    def test_stack_mixes_verdicts(self):
        # unichain, two absorbing states, and a reducible kernel with a transient state
        stack = np.array([[[0.5, 0.5], [1.0, 0.0]], np.eye(2), [[0.0, 1.0], [0.0, 1.0]]])
        counts, recurrent = _classify(stack)
        assert counts.tolist() == [1, 2, 1]
        assert recurrent.tolist() == [[True, True], [True, True], [False, True]]

    @pytest.mark.parametrize("last_absorbing", [False, True], ids=["cycle", "into-absorbing"])
    def test_paths_of_256_steps(self, last_absorbing):
        # the shortest path 0 -> 256 has 256 = 2^8 steps: eight squarings must all change reach
        p = long_paths(257, last_absorbing)
        cls = classify_chain(p)
        assert cls == oracle_classification(p)
        assert cls.closed_class_count == 1
        expected = frozenset(range(256)) if last_absorbing else frozenset()
        assert cls.transient_states == expected


def bfs_oracle(adj, start, barred):
    """Breadth-first distance from the states ``start`` masks along the edges of ``adj``,
    entering no state that ``barred`` masks; -1 where unreached."""
    n = len(start)
    level = [0 if start[i] else -1 for i in range(n)]
    queue = collections.deque(i for i in range(n) if start[i])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if adj[u][v] and level[v] < 0 and not barred[v]:
                level[v] = level[u] + 1
                queue.append(v)
    return level


@st.composite
def level_searches(draw):
    """(adj, start, barred) of ``_levels``: one (n, n) digraph or a (k, n, n) stack with
    n <= 8, one to three start rows per digraph, and no barred states, one barred mask
    for every row, or one per row."""
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    rows = (draw(st.integers(1, 3)),) if k is None else (k, draw(st.integers(1, 3)))

    def bits(shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool).reshape(shape)

    adj = bits((n, n) if k is None else (k, n, n)).astype(np.float64)
    barred = draw(st.sampled_from([False, (n,), rows + (n,)]))
    return adj, bits(rows + (n,)), barred if barred is False else bits(barred)


class TestLevels:
    @given(level_searches())
    def test_matches_a_python_breadth_first_search(self, search):
        adj, start, barred = search
        level = _levels(adj, start, barred)
        assert level.shape == start.shape and level.dtype == np.int64
        graphs = np.broadcast_to(adj if adj.ndim == 2 else adj[:, None], start.shape[:-1] + adj.shape[-2:])
        barred = np.broadcast_to(barred, start.shape)
        for index in np.ndindex(start.shape[:-1]):
            assert level[index].tolist() == bfs_oracle(graphs[index], start[index], barred[index])

    def test_a_barred_state_cuts_a_path(self):
        # a path 0 -> 1 -> ... -> 5, barred at 4: levels 0..3, then nothing
        adj = np.eye(6, k=1)
        assert _levels(adj, np.arange(6)[None] == 0).tolist() == [[0, 1, 2, 3, 4, 5]]
        assert _levels(adj, np.arange(6)[None] == 0, np.arange(6) == 4).tolist() == [[0, 1, 2, 3, -1, -1]]


class TestUnichainByInvertibility:
    def test_identity_singular(self):
        # I + E - I = E has rank 1
        assert unichain_by_invertibility(np.eye(2)) is False

    def test_swap_invertible(self):
        # I + E - P = [[2, 0], [0, 2]], determinant 4
        assert unichain_by_invertibility(np.array([[0.0, 1.0], [1.0, 0.0]])) is True

    def test_single_state(self):
        assert unichain_by_invertibility(np.array([[1.0]])) is True

    def test_agrees_with_classification_exhaustively(self):
        # all deterministic kernels for n = 2 and n = 3
        for n in (2, 3):
            for p in deterministic_kernels(n):
                assert classify_chain(p).is_unichain == unichain_by_invertibility(p)

    def test_agrees_on_random_kernels(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = random_stochastic(rng, n, sparsity=float(rng.uniform(0, 0.8)))
            assert classify_chain(p).is_unichain == unichain_by_invertibility(p)


class TestPrimitivityCertificate:
    def test_uniform_kernel(self):
        for n in (2, 4):
            cert = primitivity_certificate(np.full((n, n), 1.0 / n))
            assert cert.exponent == 1
            assert cert.omega == pytest.approx(1.0 / n)

    def test_swap_is_periodic(self):
        with pytest.raises(NotPrimitiveError):
            primitivity_certificate(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_two_state_example(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        cert = primitivity_certificate(p)
        # P^2 = [[0.75, 0.25], [0.5, 0.5]]
        assert cert.exponent == 2
        assert cert.omega == pytest.approx(0.25)

    def test_minimality_and_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            p = random_stochastic(rng, n, sparsity=float(rng.uniform(0, 0.6)))
            try:
                cert = primitivity_certificate(p)
            except NotPrimitiveError:
                continue
            assert cert.exponent <= n * n - 2 * n + 2
            power = np.linalg.matrix_power(p, cert.exponent)
            assert np.all(power >= cert.omega - 1e-15)
            if cert.exponent > 1:
                below = np.linalg.matrix_power(p, cert.exponent - 1)
                assert np.any(below == 0.0)

    def test_reducible_not_primitive(self):
        # absorbing state with an unreachable column stays zero forever
        with pytest.raises(NotPrimitiveError):
            primitivity_certificate(np.array([[1.0, 0.0], [1.0, 0.0]]))

    # the structural messages are raised before the first matrix product
    @pytest.mark.parametrize(
        "n, last_absorbing, message",
        [
            (257, False, "kernel has period 257"),
            (257, True, "kernel is not irreducible"),
            (600, True, "kernel is not irreducible"),
        ],
        ids=["cycle-257", "into-absorbing-257", "into-absorbing-600"],
    )
    def test_long_paths_decided_without_products(self, n, last_absorbing, message):
        # the float search needs n^2 - 2n + 2 products here (358,802 at n = 600)
        with pytest.raises(NotPrimitiveError, match=message):
            primitivity_certificate(long_paths(n, last_absorbing))

    def test_period_from_levels(self):
        # cycles of length 2 and 4 through state 0: period 2
        p = np.zeros((4, 4))
        p[0, 1] = p[0, 3] = 0.5
        p[1, 0] = p[2, 1] = p[3, 2] = 1.0
        with pytest.raises(NotPrimitiveError, match="period 2"):
            primitivity_certificate(p)
        # a self-loop anywhere makes it aperiodic
        p[2] = [0.0, 0.5, 0.5, 0.0]
        assert primitivity_certificate(p).exponent == float_power_search(p)[0]

    def test_matches_float_search_on_deterministic_kernels(self):
        for n in (1, 2, 3, 4):
            for p in deterministic_kernels(n):
                assert certificate_or_none(p) == float_power_search(p)

    def test_matches_float_search_on_random_kernels(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p = random_stochastic(rng, n, sparsity=float(rng.uniform(0, 0.9)))
            assert certificate_or_none(p) == float_power_search(p)

    def test_float_underflow_still_decided_by_float_search(self):
        # primitive support, but every path 0 -> 2 crosses two 1e-200 edges,
        # so that entry of every float power underflows to zero
        p = np.array([[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-200], [1.0, 0.0, 0.0]])
        assert float_power_search(p) is None
        with pytest.raises(NotPrimitiveError, match="Wielandt bound 5"):
            primitivity_certificate(p)

    @given(random_kernels())
    def test_matches_float_search(self, p):
        # exponent and omega bit for bit, or NotPrimitiveError on both routes
        assert certificate_or_none(p) == float_power_search(p)


class TestStationaryDistribution:
    def test_swap(self):
        mu = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_absorbing(self):
        mu = stationary_distribution(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(mu, [1.0, 0.0], atol=1e-12)

    def test_two_thirds(self):
        # balance: mu0 = 0.5 mu0 + mu1, normalized
        mu = stationary_distribution(np.array([[0.5, 0.5], [1.0, 0.0]]))
        np.testing.assert_allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_multichain_rejected(self):
        with pytest.raises(NotUnichainError):
            stationary_distribution(np.eye(2))

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = random_stochastic(rng, n)
            mu = stationary_distribution(p)
            assert np.max(np.abs(mu @ p - mu)) <= 1e-10
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(mu >= 0.0)
