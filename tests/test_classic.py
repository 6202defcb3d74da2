import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mdpgeom import (
    CriterionMismatchError,
    MdpError,
    MdpModel,
    NotUnichainError,
    Policy,
    classify_chain,
    enumerate_policies,
    evaluate_average,
    evaluate_discounted,
    optimal_policy,
    policy_kernel,
    policy_rewards,
    relative_value_iteration,
    span,
    stationary_distribution,
    value_iteration,
)
from mdpgeom import classic
from mdpgeom.classic import classical_advantages
from mdpgeom.errors import SingularMatrixError
from mdpgeom.model import policy_count

from conftest import best_start_gain, make_model, random_instance


def outcome(search, model):
    """What ``search`` returns, with the gain as hex, or the error it raises."""
    try:
        policy, unique, gain, skipped = search(model)
    except MdpError as exc:
        return type(exc), str(exc)
    return tuple(int(i) for i in policy), unique, gain.hex(), skipped


def oracle_search(model):
    result = classic.optimal_policy(model)
    return result.policy.choice, result.unique, result.gain, result.skipped_multichain


def geometric_search(model):
    result = optimal_policy(model)
    return result.policy.choice, result.unique, result.gain, result.skipped_multichain


# (n, SAPs per state) with at most 256 policies, so that the oracle stays quick
ORACLE_SIZES = [(n, k) for n in range(2, 8) for k in range(2, 6) if k**n <= 256]


def oracle_case(seed):
    """A gamma = 1 model whose size, sparsity and reward range follow from ``seed``."""
    rng = np.random.default_rng(seed)
    n, k = ORACLE_SIZES[rng.integers(len(ORACLE_SIZES))]
    sparsity = round(float(rng.uniform(0.0, 0.9)), 2)
    reward_range = [(-1.0, 1.0), (0.0, 1e3), (0.0, 1e6)][rng.integers(3)]
    return random_instance(seed, n, 1.0, k, sparsity, reward_range)


class TestEvaluateDiscounted:
    def test_selfloops(self, selfloop_model):
        v = evaluate_discounted(selfloop_model, Policy([0, 1])).values
        # geometric series 1 / (1 - gamma)
        np.testing.assert_allclose(v, [2.0, 0.0], atol=1e-12)

    def test_zero_rewards(self):
        m = make_model(2, 0.5, [(0, 0.0, [0, 1]), (1, 0.0, [1, 0])])
        np.testing.assert_allclose(
            evaluate_discounted(m, Policy([0, 1])).values, [0.0, 0.0], atol=1e-12
        )

    def test_swap_chain(self):
        # V0 = 2 + 0.5 V1, V1 = 0 + 0.5 V0  =>  V = (8/3, 4/3)
        m = make_model(2, 0.5, [(0, 2.0, [0, 1]), (1, 0.0, [1, 0])])
        oracle = np.linalg.solve(np.array([[1.0, -0.5], [-0.5, 1.0]]), np.array([2.0, 0.0]))
        v = evaluate_discounted(m, Policy([0, 1])).values
        np.testing.assert_allclose(v, oracle, atol=1e-12)
        np.testing.assert_allclose(v, [8.0 / 3.0, 4.0 / 3.0], atol=1e-12)

    def test_rejects_average(self, swap_model, swap_policy):
        with pytest.raises(CriterionMismatchError):
            evaluate_discounted(swap_model, swap_policy)

    def test_bellman_residual(self):
        for seed in range(10):
            m = random_instance(seed, n=5, gamma=0.85, saps_per_state=2)
            pi = next(iter(enumerate_policies(m)))
            v = evaluate_discounted(m, pi).values
            p, r = policy_kernel(m, pi), policy_rewards(m, pi)
            np.testing.assert_allclose(v, r + m.gamma * (p @ v), atol=1e-9)


class TestEvaluateAverage:
    def test_swap(self, swap_model, swap_policy):
        gb = evaluate_average(swap_model, swap_policy, anchor_state=1)
        assert gb.gain == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [1.0, 0.0], atol=1e-12)
        assert gb.bias[gb.anchor_state] == 0.0

    @pytest.mark.parametrize("anchor", [2, -1])
    def test_anchor_outside_states_rejected(self, swap_model, swap_policy, anchor):
        with pytest.raises(ValueError, match=rf"anchor state {anchor} outside \[0, 2\)"):
            evaluate_average(swap_model, swap_policy, anchor_state=anchor)

    def test_constant_rewards(self):
        m = make_model(2, 1.0, [(0, 4.0, [0, 1]), (1, 4.0, [1, 0])])
        gb = evaluate_average(m, Policy([0, 1]))
        assert gb.gain == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [0.0, 0.0], atol=1e-12)

    def test_absorbing_feeder(self):
        # kernel [[1,0],[1,0]], r = (1, 5): rho = 1; h2 = r2 - rho + h1 = 4
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 5.0, [1, 0])])
        gb = evaluate_average(m, Policy([0, 1]), anchor_state=0)
        assert gb.gain == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [0.0, 4.0], atol=1e-12)

    def test_multichain_rejected(self):
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        with pytest.raises(NotUnichainError):
            evaluate_average(m, Policy([0, 1]))

    def test_gain_matches_stationary(self):
        count = 0
        for seed in range(12):
            m = random_instance(seed + 20, n=4, gamma=1.0, saps_per_state=2, sparsity=0.3)
            pi = next(iter(enumerate_policies(m)))
            p = policy_kernel(m, pi)
            if not classify_chain(p).is_unichain:
                continue
            gb = evaluate_average(m, pi)
            mu = stationary_distribution(p)
            assert gb.gain == pytest.approx(float(mu @ policy_rewards(m, pi)), abs=1e-9)
            # Bellman: T h = h + rho 1
            h = gb.bias
            np.testing.assert_allclose(
                policy_rewards(m, pi) + p @ h, h + gb.gain, atol=1e-9
            )
            count += 1
        assert count >= 8

    @pytest.mark.parametrize("reward_hi", [1e6, 1e12])
    def test_residual_bound_scales_with_rewards(self, reward_hi):
        # every policy is unichain; at 1e6 the residual of one of them is
        # about 1.05e-9, which an absolute 1e-9 bound rejected
        m = random_instance(
            5, n=6, gamma=1.0, saps_per_state=3, sparsity=0.3, reward_range=(0.0, reward_hi)
        )
        result = optimal_policy(m)
        assert result.skipped_multichain == 0
        assert evaluate_average(m, result.policy).gain == result.gain


class TestValueIteration:
    def test_fixed_point_start(self):
        m = random_instance(1, n=4, gamma=0.8, saps_per_state=2)
        star = optimal_policy(m)
        pi, trace = value_iteration(m, v0=star.values)
        assert trace.converged
        assert len(trace.residual_spans) == 1
        assert trace.residual_spans[0] <= 1e-12
        assert pi == star.policy

    def test_single_sap_matches_evaluation(self):
        m = make_model(2, 0.5, [(0, 2.0, [0, 1]), (1, 0.0, [1, 0])])
        pi, trace = value_iteration(m, epsilon=1e-12)
        assert trace.converged
        v_exact = evaluate_discounted(m, Policy([0, 1])).values
        np.testing.assert_allclose(trace.iterates[-1], v_exact, atol=1e-10)

    def test_matches_enumeration_argmax(self):
        for seed in range(5):
            m = random_instance(seed + 40, n=2, gamma=0.9, saps_per_state=2)
            pi, _ = value_iteration(m, epsilon=1e-12)
            best = max(
                enumerate_policies(m),
                key=lambda p: tuple(evaluate_discounted(m, p).values),
            )
            v_vi = evaluate_discounted(m, pi).values
            v_best = evaluate_discounted(m, best).values
            np.testing.assert_allclose(v_vi, v_best, atol=1e-8)

    def test_difference_span_contracts(self):
        m = random_instance(5, n=5, gamma=0.9, saps_per_state=3)
        _, trace = value_iteration(m, v0=np.linspace(0, 1, 5), max_iters=60, epsilon=0.0)
        diffs = [
            trace.iterates[t + 1] - trace.iterates[t]
            for t in range(len(trace.iterates) - 1)
        ]
        for t in range(len(diffs) - 1):
            assert span(diffs[t + 1]) <= m.gamma * span(diffs[t]) + 1e-12


class TestRelativeValueIteration:
    def test_gain_matches_average_oracle(self):
        # aperiodic single-SAP chain: kernel [[0.5, 0.5], [1, 0]], r = (2, 0)
        m = make_model(2, 1.0, [(0, 2.0, [0.5, 0.5]), (1, 0.0, [1, 0])])
        pi, gb, trace = relative_value_iteration(m, epsilon=1e-10)
        assert trace.converged
        exact = evaluate_average(m, Policy([0, 1]))
        assert gb.gain == pytest.approx(exact.gain, abs=1e-8)
        np.testing.assert_allclose(gb.bias, exact.bias, atol=1e-7)

    def test_constant_rewards_one_step(self):
        m = make_model(2, 1.0, [(0, 3.0, [0, 1]), (1, 3.0, [1, 0])])
        _, gb, trace = relative_value_iteration(m)
        assert trace.converged
        assert len(trace.residual_spans) == 1
        assert gb.gain == pytest.approx(3.0, abs=1e-12)

    def test_periodic_kernel_reports_no_convergence(self, swap_model):
        # period-2 kernel: the residual span oscillates, which is the known
        # limitation that motivates the aperiodicity diagnostic
        _, _, trace = relative_value_iteration(swap_model, max_iters=300)
        assert not trace.converged
        assert len(trace.iterates) == 301

    def test_residual_spans_nonincreasing_tail(self):
        m = random_instance(9, n=4, gamma=1.0, saps_per_state=2)
        _, _, trace = relative_value_iteration(m, epsilon=1e-11)
        assert trace.converged
        tail = trace.residual_spans[len(trace.residual_spans) // 2 :]
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-12


class TestOptimalPolicy:
    def test_single_sap_per_state(self, swap_model):
        res = optimal_policy(swap_model)
        assert res.policy.as_tuple() == (0, 1)
        assert res.unique
        assert res.gain == pytest.approx(1.0, abs=1e-12)

    def test_average_enumeration_beats_selfloop(self, swap_plus_selfloop):
        # swap policy gain 1 beats the mixed policy's absorbing gain 0.5
        res = optimal_policy(swap_plus_selfloop)
        assert res.policy.as_tuple() == (0, 1)
        assert res.unique
        assert res.gain == pytest.approx(1.0, abs=1e-12)

    def test_discounted_matches_enumeration(self):
        for seed in range(6):
            m = random_instance(seed + 60, n=2, gamma=0.7, saps_per_state=2)
            res = optimal_policy(m)
            values = {
                pi.as_tuple(): evaluate_discounted(m, pi).values
                for pi in enumerate_policies(m)
            }
            v_star = values[res.policy.as_tuple()]
            for v in values.values():
                assert np.all(v_star >= v - 1e-9)

    def test_discounted_nonpositive_advantages(self):
        m = random_instance(71, n=5, gamma=0.9, saps_per_state=3)
        res = optimal_policy(m)
        adv = classical_advantages(m, res.values)
        assert np.max(adv) <= 1e-9

    def test_average_strict_gap_under_uniqueness(self):
        from mdpgeom import advantages, evaluate_policy

        m = random_instance(83, n=4, gamma=1.0, saps_per_state=2)
        res = optimal_policy(m)
        assert res.unique
        pv, _ = evaluate_policy(m, res.policy)
        adv = advantages(m, pv)
        member = np.zeros(m.m, dtype=bool)
        member[res.policy.choice] = True
        assert np.max(adv[~member]) <= -1e-9

    def test_duplicate_sap_not_unique(self):
        # two identical SAPs at s0: optimum cannot be unique
        m = make_model(
            2, 1.0, [(0, 2.0, [0, 1]), (0, 2.0, [0, 1]), (1, 0.0, [1, 0])]
        )
        res = optimal_policy(m)
        assert not res.unique

    def test_no_unichain_policy_raises(self):
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        with pytest.raises(NotUnichainError):
            optimal_policy(m)


class TestStackedEnumeration:
    """classic.optimal_policy at gamma = 1, the enumeration oracle, against mdpgeom.optimal_policy,
    which agrees with it except where the optimum is multichain."""

    @pytest.mark.parametrize("first", range(0, 2000, 250))
    def test_matches_per_policy_loop(self, first):
        kinds = set()
        for seed in range(first, first + 250):
            m = oracle_case(seed)
            expected = outcome(oracle_search, m)
            found = outcome(geometric_search, m)
            if found[:3] != expected[:3]:
                # enumeration ranks unichain policies only: where the optimum is multichain,
                # the geometric search raises, and enumeration raises for want of a unichain
                # policy or answers with one that some multichain policy beats
                assert found[0] is NotUnichainError and "optimum is multichain" in found[1], seed
                if len(expected) == 2:
                    assert expected[1] == "no unichain policy to optimize over at gamma = 1", seed
                else:
                    scale = max(1.0, float(np.abs(m.sap_rewards).max()))
                    assert best_start_gain(m) > float.fromhex(expected[2]) + 1e-9 * scale, seed
                kinds.add("multichain optimum")
            else:
                assert len(found) == 2 or found[3] == 0  # the geometric search enumerates nothing
            kinds.add("raises" if len(expected) == 2 else ("unique", expected[1], expected[3] > 0))
        # every batch meets raising models, ties, skipped multichain policies and multichain optima
        assert {"raises", ("unique", False, False), ("unique", True, True), "multichain optimum"} <= kinds

    @pytest.mark.parametrize("twins", [False, True], ids=["generated", "tied-across-chunks"])
    def test_more_policies_than_one_chunk(self, twins):
        m = random_instance(1, n=7, gamma=1.0, saps_per_state=4, sparsity=0.5)
        if twins:
            # state 0's four SAPs copy its first, so each gain is shared by policies
            # 4^6 = 4,096 apart in the enumeration
            first = m.saps[int(m.saps_at(0)[0])]
            m = MdpModel(m.n, [first if s.state == 0 else s for s in m.saps], m.gamma)
        assert policy_count(m) == 16_384
        expected = outcome(oracle_search, m)
        assert len(expected) == 4 and (twins or expected[3] > 0)  # some multichain skipped
        assert expected[1] is not twins  # unique without the copies, tied with them
        assert outcome(geometric_search, m)[:3] == expected[:3]

    @pytest.mark.parametrize("failing", [0, 1])  # the solve, or the residual check
    def test_first_failure_in_stack_order_raises(self, monkeypatch, failing):
        # a kernel's gain/bias evaluation fails when its solve is singular or
        # when its solution misses the residual bound
        def solve(a, b):
            if failing == 0:
                raise SingularMatrixError("pivot ratio below threshold")
            return np.array([0.0, 1.0, 5.0])  # h = (0, 1), rho = 5; the solution is (0, 0), 1

        monkeypatch.setattr(classic, "solve_checked", solve)
        expected = "needs a unichain kernel" if failing == 0 else "residual 4.500e+00 exceeds 1.000e-09"
        with pytest.raises(NotUnichainError, match=re.escape(expected)):
            classic._gain_bias(np.full((2, 2), 0.5), np.ones(2))

    def test_working_set_bounded_by_chunk(self):
        m = random_instance(2, n=8, gamma=1.0, saps_per_state=4, sparsity=0.3)
        every_kernel = policy_count(m) * m.n * m.n * 8  # 65,536 kernels: 32 MiB
        tracemalloc.start()
        try:
            classic.optimal_policy(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20 <= every_kernel / 4


def test_oracle_is_independent_of_the_geometric_route():
    # classic is the oracle the geometric route is checked against, so it may not import it
    tree = ast.parse(Path(classic.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            if node.module in (None, "mdpgeom"):  # from . import geometry
                imported.update(alias.name for alias in node.names)
    assert "kernels" in imported and "chains" in imported  # the walk sees both import forms
    assert not imported & {"geometry", "convergence", "cli", "reporting"}


def test_no_assert_in_the_package():
    # runtime checks raise typed errors: python -O strips assert statements
    package = Path(classic.__file__).parent
    modules = sorted(package.rglob("*.py"))
    asserting = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) > 10 and asserting == []
