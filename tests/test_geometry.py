import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from mdpgeom import (
    CriterionMismatchError,
    MdpError,
    MdpModel,
    NonFiniteRewardError,
    NotUnichainError,
    NumericalCheckError,
    Policy,
    Sap,
    action_vector,
    advantage,
    advantages,
    bias,
    classify_chain,
    enumerate_policies,
    evaluate_average,
    evaluate_discounted,
    evaluate_policy,
    gain,
    mdp_constant,
    normalize_rewards,
    optimal_policy,
    policy_kernel,
    policy_rewards,
    stationary_distribution,
    to_classical_values,
)

from mdpgeom import classic, geometry
from mdpgeom.classic import classical_advantages
from mdpgeom.generate import GeneratorSpec, generate_model
from mdpgeom.model import ENUMERATION_CAP, lowest_index_policy, policy_count

from conftest import best_start_gain, count_calls, make_model, random_instance


class TestActionVector:
    def test_swap_sap(self, swap_model):
        # n=2, gamma=1, C=2: SAP at s0 with probs (0, 1), reward 2
        av = action_vector(swap_model, 0)
        assert av.height == 2.0
        np.testing.assert_allclose(av.coeffs, [-1.0, 0.0], atol=1e-15)

    def test_selfloop_sap(self):
        m = make_model(2, 1.0, [(0, 0.0, [1, 0]), (1, 0.0, [1, 0])])
        av = action_vector(m, 0)
        # own-state coordinate (1*(1-1) - 1)/2, other (1*0 - 1)/2
        np.testing.assert_allclose(av.coeffs, [-0.5, -0.5], atol=1e-15)
        assert av.height == 0.0

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9, 1.0])
    def test_coefficient_sum_is_minus_one(self, gamma):
        for seed in range(5):
            m = random_instance(seed, n=4, gamma=gamma, saps_per_state=3, sparsity=0.3)
            for a in range(m.m):
                av = action_vector(m, a)
                assert abs(av.coeffs.sum() + 1.0) <= 1e-12

    def test_constant_c(self):
        assert mdp_constant(make_model(2, 1.0, [(0, 0, [0, 1]), (1, 0, [1, 0])])) == 2.0
        assert mdp_constant(make_model(2, 0.5, [(0, 0, [0, 1]), (1, 0, [1, 0])])) == 1.5
        # single state: C = gamma + (1 - gamma) = 1 at any gamma
        assert mdp_constant(make_model(1, 0.3, [(0, 0, [1.0])])) == 1.0


class TestEvaluatePolicy:
    def test_swap_average(self, swap_model, swap_policy):
        pv, consts = evaluate_policy(swap_model, swap_policy)
        np.testing.assert_allclose(pv.values, [2.0, 0.0], atol=1e-12)
        assert consts.C == 2.0
        assert consts.v_sigma == pytest.approx(2.0, abs=1e-12)
        assert pv.lead == 1.0

    def test_selfloops_discounted(self, selfloop_model):
        pv, consts = evaluate_policy(selfloop_model, Policy([0, 1]))
        np.testing.assert_allclose(pv.values, [2.0, -1.0], atol=1e-12)
        assert consts.C == 1.5
        assert consts.v_sigma == pytest.approx(1.0, abs=1e-12)

    def test_identity_kernel_not_unichain(self):
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        with pytest.raises(NotUnichainError):
            evaluate_policy(m, Policy([0, 1]))

    def test_defining_equation_residual(self):
        # (I + gamma E - gamma P)(v / C) = R must hold to solver accuracy
        for seed, gamma in [(0, 0.4), (1, 0.95), (2, 1.0)]:
            m = random_instance(seed, n=5, gamma=gamma, saps_per_state=2)
            pi = next(iter(enumerate_policies(m)))
            pv, consts = evaluate_policy(m, pi)
            n = m.n
            a = np.eye(n) + gamma * np.ones((n, n)) - gamma * policy_kernel(m, pi)
            r = policy_rewards(m, pi)
            assert np.max(np.abs(a @ (pv.values / consts.C) - r)) <= 1e-10 * (1 + np.max(np.abs(r)))

    def test_every_policy_evaluates_near_gamma_one(self):
        # at gamma = 1 - 1e-12 many of these kernels are multichain; the system stays
        # nonsingular, and the values pass the backward-error bound
        for seed in range(20):
            m = random_instance(seed, n=5, gamma=1 - 1e-12, saps_per_state=2, sparsity=0.7)
            for pi in enumerate_policies(m):
                pv, consts = evaluate_policy(m, pi)
                assert np.all(np.isfinite(to_classical_values(pv, consts, m).values))


class TestNonFiniteRewardGates:
    """A NaN or infinite reward on a SAP the policy uses is rejected, not solved into NaN."""

    CASES = [
        (evaluate_policy, 0.9),
        (evaluate_policy, 1.0),
        (evaluate_discounted, 0.9),
        (evaluate_average, 1.0),
    ]

    @staticmethod
    def model(gamma, reward):
        # SAP 1 carries the reward; policies (1, 2) and (0, 2) are both unichain
        return make_model(
            2, gamma, [(0, 1.0, [0.5, 0.5]), (0, reward, [0, 1]), (1, 0.0, [0.5, 0.5])]
        )

    @staticmethod
    def values(result):
        if isinstance(result, tuple):  # evaluate_policy: (PolicyVector, GeometryConstants)
            return result[0].values
        return result.bias if hasattr(result, "bias") else result.values

    @pytest.mark.parametrize("evaluate, gamma", CASES)
    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf], ids=repr)
    def test_used_sap_rejected(self, evaluate, gamma, reward):
        with pytest.raises(NonFiniteRewardError, match=f"sap 1: reward {reward!r} is not finite"):
            evaluate(self.model(gamma, reward), Policy([1, 2]))

    @pytest.mark.parametrize("evaluate, gamma", CASES)
    def test_unused_sap_still_evaluates(self, evaluate, gamma):
        finite = self.values(evaluate(self.model(gamma, 0.0), Policy([0, 2])))
        got = self.values(evaluate(self.model(gamma, math.nan), Policy([0, 2])))
        assert got.tobytes() == finite.tobytes()


class TestAdvantage:
    def test_own_sap_is_zero(self, swap_plus_selfloop):
        pv, _ = evaluate_policy(swap_plus_selfloop, Policy([0, 1]))
        assert advantage(swap_plus_selfloop, 0, pv) == pytest.approx(0.0, abs=1e-12)
        assert advantage(swap_plus_selfloop, 1, pv) == pytest.approx(0.0, abs=1e-12)

    def test_selfloop_deviation(self, swap_plus_selfloop):
        # r - rho + p.h - h(s0) with h = (1, 0), rho = 1: 0.5 - 1 + 1 - 1
        pv, _ = evaluate_policy(swap_plus_selfloop, Policy([0, 1]))
        assert advantage(swap_plus_selfloop, 2, pv) == pytest.approx(-0.5, abs=1e-12)

    def test_cross_sap_discounted(self):
        # gamma=0.5 self-loop model plus SAP at s1 jumping to s0 with r=0:
        # classical advantage r + gamma p.V - V(s1) = 0.5 * 2 - 0 = 1
        m = make_model(
            2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1]), (1, 0.0, [1, 0])]
        )
        pv, _ = evaluate_policy(m, Policy([0, 1]))
        assert advantage(m, 2, pv) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, swap_model):
        from mdpgeom.geometry import PolicyVector

        with pytest.raises(ValueError):
            advantage(swap_model, 0, PolicyVector(values=np.zeros(3)))

    def test_vectorized_matches_scalar(self):
        m = random_instance(3, n=4, gamma=0.7, saps_per_state=3)
        pi = next(iter(enumerate_policies(m)))
        pv, _ = evaluate_policy(m, pi)
        all_adv = advantages(m, pv)
        for a in range(m.m):
            assert all_adv[a] == pytest.approx(advantage(m, a, pv), abs=1e-12)


class TestClassicalFromNew:
    def test_selfloop_example(self, selfloop_model):
        pv, consts = evaluate_policy(selfloop_model, Policy([0, 1]))
        vv = to_classical_values(pv, consts, selfloop_model)
        np.testing.assert_allclose(vv.values, [2.0, 0.0], atol=1e-12)

    def test_zero_sigma_reduces_to_scaled(self):
        # antisymmetric rewards on two self-loops: V = (1, -1), sum 0, so v/C = V
        m = make_model(2, 0.5, [(0, 0.5, [1, 0]), (1, -0.5, [0, 1])])
        pv, consts = evaluate_policy(m, Policy([0, 1]))
        assert consts.v_sigma == pytest.approx(0.0, abs=1e-12)
        vv = to_classical_values(pv, consts, m)
        np.testing.assert_allclose(vv.values, pv.values / consts.C, atol=1e-12)

    def test_rejects_average(self, swap_model, swap_policy):
        pv, consts = evaluate_policy(swap_model, swap_policy)
        with pytest.raises(CriterionMismatchError):
            to_classical_values(pv, consts, swap_model)

    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_sum_relation(self, gamma):
        # (1 - gamma) * sum(V) = v_sigma
        for seed in range(10):
            m = random_instance(seed, n=4, gamma=gamma, saps_per_state=2)
            for pi in enumerate_policies(m):
                pv, consts = evaluate_policy(m, pi)
                v_classical = evaluate_discounted(m, pi).values
                assert (1 - gamma) * v_classical.sum() == pytest.approx(
                    consts.v_sigma, abs=1e-9 * (1 + abs(consts.v_sigma))
                )

    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_mean_deviation_relation(self, gamma):
        # V(s) - mean(V) = (v(s) - mean(v)) / C
        for seed in range(10):
            m = random_instance(seed + 50, n=5, gamma=gamma, saps_per_state=2)
            pi = next(iter(enumerate_policies(m)))
            pv, consts = evaluate_policy(m, pi)
            v_classical = evaluate_discounted(m, pi).values
            lhs = v_classical - v_classical.mean()
            rhs = (pv.values - pv.values.mean()) / consts.C
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestGainAndBias:
    def test_gain_examples(self, swap_model, swap_policy):
        _, consts = evaluate_policy(swap_model, swap_policy)
        assert gain(consts) == pytest.approx(1.0, abs=1e-12)

        zero = make_model(2, 1.0, [(0, 0.0, [0, 1]), (1, 0.0, [1, 0])])
        _, c0 = evaluate_policy(zero, Policy([0, 1]))
        assert gain(c0) == pytest.approx(0.0, abs=1e-12)

        single = make_model(1, 1.0, [(0, 3.0, [1.0])])
        _, c1 = evaluate_policy(single, Policy([0]))
        assert gain(c1) == pytest.approx(3.0, abs=1e-12)

    def test_gain_rejects_discounted(self, selfloop_model):
        _, consts = evaluate_policy(selfloop_model, Policy([0, 1]))
        with pytest.raises(CriterionMismatchError):
            gain(consts)

    def test_bias_anchoring(self, swap_model, swap_policy):
        pv, consts = evaluate_policy(swap_model, swap_policy)
        np.testing.assert_allclose(bias(pv, consts, 1).values, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(bias(pv, consts, 0).values, [0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("anchor", [2, -1])
    def test_bias_anchor_outside_states_rejected(self, swap_model, swap_policy, anchor):
        # a negative anchor is not read from the end of the vector
        pv, consts = evaluate_policy(swap_model, swap_policy)
        with pytest.raises(ValueError, match=rf"anchor state {anchor} outside \[0, 2\)"):
            bias(pv, consts, anchor)

    def test_bias_constant_values(self):
        m = make_model(2, 1.0, [(0, 1.0, [0, 1]), (1, 1.0, [1, 0])])
        pv, consts = evaluate_policy(m, Policy([0, 1]))
        np.testing.assert_allclose(bias(pv, consts, 0).values, [0.0, 0.0], atol=1e-12)

    def test_bias_bellman_identity(self):
        # T(v/C) = v/C + rho * 1 at gamma = 1
        for seed in range(10):
            m = random_instance(seed + 100, n=4, gamma=1.0, saps_per_state=2)
            for pi in enumerate_policies(m):
                p = policy_kernel(m, pi)
                if not classify_chain(p).is_unichain:
                    continue
                pv, consts = evaluate_policy(m, pi)
                h = pv.values / consts.C
                r = policy_rewards(m, pi)
                np.testing.assert_allclose(r + p @ h, h + gain(consts), atol=1e-9)

    def test_gain_matches_stationary(self):
        for seed in range(10):
            m = random_instance(seed + 200, n=5, gamma=1.0, saps_per_state=2)
            pi = next(iter(enumerate_policies(m)))
            p = policy_kernel(m, pi)
            if not classify_chain(p).is_unichain:
                continue
            _, consts = evaluate_policy(m, pi)
            mu = stationary_distribution(p)
            assert gain(consts) == pytest.approx(
                float(mu @ policy_rewards(m, pi)), abs=1e-9
            )


class TestAdvantageIdentities:
    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_matches_classical_oracle_discounted(self, gamma):
        for seed in range(10):
            m = random_instance(seed + 300, n=3, gamma=gamma, saps_per_state=2)
            for pi in enumerate_policies(m):
                pv, _ = evaluate_policy(m, pi)
                v = evaluate_discounted(m, pi).values
                oracle = (
                    m.sap_rewards + gamma * (m.sap_probs @ v) - v[m.sap_states]
                )
                np.testing.assert_allclose(advantages(m, pv), oracle, atol=1e-9)

    def test_matches_classical_oracle_average(self):
        for seed in range(10):
            m = random_instance(seed + 400, n=3, gamma=1.0, saps_per_state=2)
            for pi in enumerate_policies(m):
                if not classify_chain(policy_kernel(m, pi)).is_unichain:
                    continue
                pv, _ = evaluate_policy(m, pi)
                gb = evaluate_average(m, pi)
                oracle = (
                    m.sap_rewards
                    - gb.gain
                    + m.sap_probs @ gb.bias
                    - gb.bias[m.sap_states]
                )
                np.testing.assert_allclose(advantages(m, pv), oracle, atol=1e-9)


class TestOptimalPolicy:
    """Howard iteration on the geometric advantages at gamma < 1."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.7])
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99, 1 - 1e-6])
    def test_against_enumeration_over_the_classical_oracle(self, gamma, sparsity):
        for seed in range(100):
            m = random_instance(seed, n=5, gamma=gamma, saps_per_state=2, sparsity=sparsity)
            result = optimal_policy(m)
            v_star = evaluate_discounted(m, result.policy).values
            tol = 1e-9 * max(1.0, float(np.abs(v_star).max()))
            # the classical-advantage certificate
            assert classical_advantages(m, v_star).max() <= tol
            # value dominance over every enumerated policy, the best among them included
            values = np.array([evaluate_discounted(m, pi).values for pi in enumerate_policies(m)])
            assert np.all(v_star >= values - tol)

    @pytest.mark.parametrize("gamma", [0.5, 0.95, 1.0])
    def test_advantages_are_the_normalized_rewards(self, gamma):
        for seed in range(20):
            m = random_instance(seed, n=6, gamma=gamma, saps_per_state=3, sparsity=0.3)
            result = optimal_policy(m)
            normalized = normalize_rewards(m, result.policy).sap_rewards
            assert result.advantages.tobytes() == normalized.tobytes()

    def test_values_are_the_classical_values(self):
        for seed in range(20):
            m = random_instance(seed, n=6, gamma=0.95, saps_per_state=3, sparsity=0.3)
            result = optimal_policy(m)
            oracle = evaluate_discounted(m, result.policy).values
            np.testing.assert_allclose(result.values, oracle, rtol=1e-12)

    def test_agrees_with_the_classic_enumeration(self):
        # classic's discounted optimum enumerates policies, with no improvement loop
        for seed in range(30):
            m = random_instance(seed, n=5, gamma=0.9, saps_per_state=3, sparsity=0.3)
            ours, oracle = optimal_policy(m), classic.optimal_policy(m)
            assert ours.policy == oracle.policy
            assert ours.unique == oracle.unique

    def test_unique_from_the_advantage_gap(self):
        # duplicate SAPs at s0: the optimum cannot be unique
        m = make_model(2, 0.9, [(0, 2.0, [0, 1]), (0, 2.0, [0, 1]), (1, 0.0, [1, 0])])
        result = optimal_policy(m)
        assert result.policy.as_tuple() == (0, 2)
        assert not result.unique
        assert geometry._gap(result.advantages, result.policy) <= 1e-9

    def test_non_finite_reward_before_any_solve(self, monkeypatch):
        m = make_model(2, 0.9, [(0, 1.0, [0, 1]), (0, math.nan, [1, 0]), (1, 0.0, [1, 0])])
        monkeypatch.setattr(geometry, "evaluate_policy", None)  # never reached
        with pytest.raises(NonFiniteRewardError, match="sap 1"):
            optimal_policy(m)


def dual_lp_gain(model):
    """The optimal gain from the average-reward dual LP (Puterman 1994, section 8.8):
    the best reward rate over stationary state-action frequencies."""
    flow = (model.sap_states == np.arange(model.n)[:, None]) - model.sap_probs.T
    a_eq = np.vstack([flow, np.ones(model.m)])
    b_eq = np.zeros(model.n + 1)
    b_eq[-1] = 1.0
    res = linprog(-model.sap_rewards, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def search_outcome(search, model):
    """(policy, unique, gain hex) of a gamma = 1 search, or the type of the error it raises."""
    try:
        result = search(model)
    except MdpError as exc:
        return type(exc)
    return result.policy.as_tuple(), result.unique, result.gain.hex()


def with_copies_at_state_0(model):
    """``model`` with every SAP at state 0 a copy of its first: each policy's gain is tied
    with the policies that differ from it at state 0 alone."""
    first = model.saps[int(model.saps_at(0)[0])]
    return MdpModel(model.n, [first if sap.state == 0 else sap for sap in model.saps], model.gamma)


def transient_states(model, pi):
    return classify_chain(policy_kernel(model, pi)).transient_states


# the models of the n = 5, 2-SAP, sparsity 0.7 spec at seeds 0-399 whose gamma = 1 optimum is
# multichain although some policy is unichain: enumeration, which ranks unichain policies only,
# answers with a policy that a multichain one beats
MULTICHAIN_OPTIMA = [
    3, 14, 47, 48, 73, 79, 86, 91, 92, 98, 115, 122, 125, 137, 147, 157, 158, 159, 185, 189,
    193, 209, 215, 224, 233, 246, 256, 259, 263, 281, 289, 297, 300, 316, 333, 334, 339, 343, 358, 392,
]


class TestAverageOptimum:
    """Howard iteration on the geometric advantages at gamma = 1: optimal when it ends, unique
    unless the gap is small or the support graph admits a tie."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 5),
        saps=st.integers(1, 3),
        sparsity=st.floats(0.0, 0.6),
        exponent=st.integers(-20, 40),
    )
    # 0,3,7,11 and 1,3,7,11 tie exactly, state 0 transient in both; enumeration's gains differ
    # by 2.4e-5 of 5.3e10 in rounding, and its absolute 1e-9 window counts that as a win
    @example(seed=590126, n=4, saps=3, sparsity=0.58, exponent=36)
    def test_agrees_with_enumeration(self, seed, n, saps, sparsity, exponent):
        m = random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity)
        # a power of two scales every reward, gain and advantage exactly
        m = MdpModel(n, [Sap(s.state, s.reward * 2.0**exponent, s.probs) for s in m.saps], 1.0)
        ours, oracle = search_outcome(optimal_policy, m), search_outcome(classic.optimal_policy, m)
        if ours == oracle:
            return
        tol = 1e-9 * max(1.0, float(np.abs(m.sap_rewards).max()))
        if ours is NotUnichainError:
            # a multichain optimum, which enumeration does not rank
            assert best_start_gain(m) > float.fromhex(oracle[2]) + tol
            return
        # an exact tie that rounding splits in enumeration: ours is not unique, and both answers
        # are policies that share one recurrent class and its SAPs and differ at most at states
        # transient under both, which ties their gains exactly
        mine, theirs = Policy(ours[0]), Policy(oracle[0])
        transient = transient_states(m, mine)
        assert transient_states(m, theirs) == transient
        assert set(np.flatnonzero(mine.choice != theirs.choice).tolist()) <= transient
        assert abs(float.fromhex(ours[2]) - float.fromhex(oracle[2])) <= tol
        recurrent = [s for s in range(n) if s not in transient]
        ties = [
            pi for pi in enumerate_policies(m)
            if transient_states(m, pi) == transient and np.array_equal(pi.choice[recurrent], mine.choice[recurrent])
        ]
        assert not ours[1] and len(ties) > 1

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 5),
        saps=st.integers(1, 3),
        sparsity=st.floats(0.0, 0.7),
    )
    def test_optimal_when_it_returns(self, seed, n, saps, sparsity):
        m = random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity)
        try:
            result = optimal_policy(m)
        except NotUnichainError:
            return  # a multichain optimum
        scale = max(1.0, float(np.abs(m.sap_rewards).max()))
        assert result.gain >= dual_lp_gain(m) - 1e-9 * scale
        gap = geometry._gap(result.advantages, result.policy)
        assert gap > 1e-9 or not result.unique
        # a tie keeps the optimum's gain but not its bias where it differs, so its own
        # advantages may be positive; a unique result is where Howard's loop ended
        assert result.advantages.max() <= 1e-12 * scale or not result.unique

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 5),
        saps=st.integers(1, 3),
        sparsity=st.floats(0.0, 0.7),
    )
    def test_unique_optimum_leaves_no_positive_normalized_reward(self, seed, n, saps, sparsity):
        m = random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity)
        try:
            result = optimal_policy(m)
        except NotUnichainError:
            return  # a multichain optimum
        assume(result.unique)
        own = result.advantages[result.policy.choice[m.sap_states]]  # each SAP's state's pi* SAP
        assert np.all(result.advantages - own <= 1e-12)

    def test_tied_optimum_may_leave_positive_normalized_rewards(self):
        # 0,3,7,11 ties other optima that share its recurrent class and SAPs there; it keeps
        # their gain but not their bias on the states where it differs
        m = random_instance(590126, n=4, gamma=1.0, saps_per_state=3, sparsity=0.58)
        m = m._with_rewards(m.sap_rewards * 2.0**36)
        result = optimal_policy(m)
        assert result.policy.as_tuple() == (0, 3, 7, 11)
        assert not result.unique
        assert result.advantages.max() == pytest.approx(1.12e11, rel=1e-3)

    @pytest.mark.parametrize("reward_hi", [1e6, 1e12])
    def test_agrees_at_large_rewards(self, reward_hi):
        # the models of generate --reward-hi 1e6 and 1e12; seeds 23 and 41 have tied optima
        for seed in [*range(16), 23, 41]:
            m = random_instance(seed, n=6, gamma=1.0, saps_per_state=3, sparsity=0.3, reward_range=(0.0, reward_hi))
            found = search_outcome(optimal_policy, m)
            assert found == search_outcome(classic.optimal_policy, m), seed
            assert found[1] is (seed not in (23, 41))

    def test_never_enumerates(self, monkeypatch):
        calls = count_calls(monkeypatch, [(classic, "optimal_policy")])
        for seed in range(200):
            m = random_instance(seed, n=6, gamma=1.0, saps_per_state=3, sparsity=0.3)
            assert optimal_policy(m).skipped_multichain == 0
            # tied with the policies that differ at state 0
            result = optimal_policy(with_copies_at_state_0(m))
            assert not result.unique and result.skipped_multichain == 0
        assert calls["optimal_policy"] == 0

    @pytest.mark.parametrize("seed", MULTICHAIN_OPTIMA)
    def test_multichain_optimum_raises(self, seed):
        m = generate_model(GeneratorSpec(n=5, saps_per_state=2, gamma=1.0, sparsity=0.7, seed=seed)).model
        with pytest.raises(NotUnichainError, match="optimum is multichain"):
            optimal_policy(m)
        answer = classic.optimal_policy(m)
        assert best_start_gain(m) > answer.gain + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_beyond_the_enumeration_cap(self, seed):
        m = random_instance(seed, n=10, gamma=1.0, saps_per_state=4, sparsity=0.3)
        assert policy_count(m) == 4**10 > ENUMERATION_CAP
        result = optimal_policy(m)
        assert result.unique
        scale = max(1.0, float(np.abs(m.sap_rewards).max()))
        assert abs(result.gain - dual_lp_gain(m)) <= 1e-9 * scale
        assert result.advantages.max() <= 1e-12  # the loop's switching tolerance

    def test_tie_beyond_the_cap_is_not_unique(self):
        m = with_copies_at_state_0(random_instance(0, n=10, gamma=1.0, saps_per_state=4, sparsity=0.3))
        result = optimal_policy(m)
        assert not result.unique
        assert result.policy.choice[0] == m.saps_at(0)[0]  # ties go to the lowest index
        assert abs(result.gain - dual_lp_gain(m)) <= 1e-9 * max(1.0, float(np.abs(m.sap_rewards).max()))

    def test_multichain_start_is_repaired(self):
        # every state's first SAP is a self-loop, so the starting policy has ten closed classes
        m = random_instance(0, n=10, gamma=1.0, saps_per_state=4, sparsity=0.3)
        saps = [
            Sap(s.state, s.reward, np.eye(10)[s.state]) if i == m.saps_at(s.state)[0] else s
            for i, s in enumerate(m.saps)
        ]
        m = MdpModel(10, saps, 1.0)
        assert classify_chain(policy_kernel(m, lowest_index_policy(m))).closed_class_count == 10
        result = optimal_policy(m)
        assert abs(result.gain - dual_lp_gain(m)) <= 1e-9 * max(1.0, float(np.abs(m.sap_rewards).max()))

    def test_unichain_optimum_behind_a_multichain_start(self):
        # the start, a self-loop at each state, has two closed classes; moving state 0 into
        # state 1 earns 1 from both states, 1e-7 more than the self-loop at state 0 earns,
        # which the discounted optimum still prefers at gamma = 1 - 1e-6
        m = make_model(2, 1.0, [(0, 1.0 - 1e-7, [1, 0]), (0, 0.0, [0, 1]), (1, 1.0, [0, 1])])
        result = optimal_policy(m)
        assert (result.policy.as_tuple(), result.unique, result.gain) == ((1, 2), True, 1.0)
        assert search_outcome(optimal_policy, m) == search_outcome(classic.optimal_policy, m)

    def test_multichain_optimum_needs_a_better_class(self):
        # the self-loop at state 0 earns 2, but no unichain policy can use it
        m = make_model(2, 1.0, [(0, 2.0, [1, 0]), (0, 0.0, [0, 1]), (1, 1.0, [0, 1])])
        with pytest.raises(NotUnichainError, match="optimum is multichain: a policy earns 2 .* more than 1$"):
            optimal_policy(m)
        # two states that no SAP leaves: every policy has two closed classes
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1]), (1, 0.5, [0, 1])])
        with pytest.raises(NotUnichainError, match="optimum is multichain: no policy is unichain"):
            optimal_policy(m)

    def test_numerical_failure_is_not_a_multichain_optimum(self):
        # unichain, as state 0 leaks into state 1, but too little for the shifted solve's pivot test
        m = make_model(2, 1.0, [(0, 0.0, [1 - 1e-13, 1e-13]), (1, 1.0, [0, 1])])
        assert classify_chain(policy_kernel(m, lowest_index_policy(m))).is_unichain
        with pytest.raises(NumericalCheckError, match="could not evaluate a unichain policy"):
            optimal_policy(m)

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("seed", range(3))
    def test_at_useful_n(self, n, seed):
        m = random_instance(seed, n=n, gamma=1.0, saps_per_state=3, sparsity=0.9)
        result = optimal_policy(m)
        assert abs(result.gain - dual_lp_gain(m)) <= 1e-9 * max(1.0, float(np.abs(m.sap_rewards).max()))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 100),
    saps=st.integers(1, 4),
    gamma=st.sampled_from([0.5, 0.95, 1.0]),
    k=st.sampled_from([1, 2, 7]),
)
def test_stack_matches_each_policy(seed, n, saps, gamma, k):
    # _evaluate and _advantages take a (k, n) stack of policies at once; each row has
    # the bits of evaluate_policy and advantages of its policy alone
    m = random_instance(seed % 1000, n=n, gamma=gamma, saps_per_state=saps, sparsity=0.3)
    rng = np.random.default_rng(seed)
    saps_by_state = m.sap_states.argsort(kind="stable").reshape(n, saps)
    choices = saps_by_state[np.arange(n), rng.integers(saps, size=(k, n))]
    if gamma == 1.0:  # the shifted system is singular for a multichain kernel
        choices = choices[[classify_chain(policy_kernel(m, Policy(c))).is_unichain for c in choices]]
        assume(choices.size)
    v = mdp_constant(m) * geometry._evaluate(m, choices)
    adv = geometry._advantages(m, v)
    for row, row_adv, c in zip(v, adv, choices):
        pv, consts = evaluate_policy(m, Policy(c))
        assert row.tobytes() == pv.values.tobytes()
        assert row_adv.tobytes() == advantages(m, pv).tobytes()


# to first order x(1 - eps) - x(1) = eps * A^-1 (E - P) x(1), with A = I + E - P on pi*'s kernel
# at gamma = 1, so the property's bounds scale with eps * |A^-1| * |x(1)| (max norms). Over 15,000
# models of its domain, x moved by at most 0.94 and the advantages by at most 1.90 of that scale;
# K leaves a margin of 2.1 over the larger.
NEAR_ONE_K = 4.0


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 6),
    saps=st.integers(2, 3),
    sparsity=st.floats(0.0, 0.5),
    k=st.floats(4.0, 12.0),
)
def test_gamma_near_one_matches_gamma_one(seed, n, saps, sparsity, k):
    # the same rewards and rows at gamma = 1 - eps and at 1, for a unique unichain optimum at 1
    # whose gap leaves room for a move of order eps: the same policy, and x and the advantages
    # within K times the first-order scale
    eps = 10.0**-k
    m = random_instance(seed, n=n, gamma=1.0, saps_per_state=saps, sparsity=sparsity)
    try:
        at_one = optimal_policy(m)
    except NotUnichainError:
        assume(False)
    assume(at_one.unique and geometry._gap(at_one.advantages, at_one.policy) >= 1e3 * eps)
    near = optimal_policy(MdpModel(n, m.saps, 1.0 - eps))
    assert np.array_equal(near.policy.choice, at_one.policy.choice)
    x_one = at_one.policy_vector.values / at_one.constants.C
    x_near = near.policy_vector.values / near.constants.C
    a_inv = np.linalg.inv(np.eye(n) + 1.0 - policy_kernel(m, at_one.policy))
    scale = eps * np.abs(a_inv).sum(axis=1).max() * np.abs(x_one).max()
    assert np.abs(x_near - x_one).max() <= NEAR_ONE_K * scale
    assert np.abs(near.advantages - at_one.advantages).max() <= NEAR_ONE_K * scale


def search_digest(spec, seeds):
    """SHA-256 of ``optimal_policy``'s output on the models of ``spec`` at ``seeds``: policy,
    uniqueness, gain, V*, advantages, policy vector and v_sigma, each as its exact bits."""
    digest = hashlib.sha256()
    for seed in seeds:
        result = optimal_policy(generate_model(dataclasses.replace(spec, seed=seed)).model)
        for part in (
            result.policy.choice.astype("<i8").tobytes(),
            b"unique" if result.unique else b"not unique",
            (result.gain.hex() if result.gain is not None else "-").encode(),
            result.values.astype("<f8").tobytes() if result.values is not None else b"-",
            result.advantages.astype("<f8").tobytes(),
            result.policy_vector.values.astype("<f8").tobytes(),
            result.constants.v_sigma.hex().encode(),
        ):
            digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            GeneratorSpec(n=6, saps_per_state=3, gamma=1.0, sparsity=0.3),
            "b524a774bcf26a0364fc40fbdae977b763abac27eee6854b9e9a0d2ee37e47d3",
        ),
        (
            GeneratorSpec(n=12, saps_per_state=4, gamma=0.95, sparsity=0.7),
            "d2b8472cf30a28c553b0eec6c7ef335474012725477f4c9e54b453ae04491ea3",
        ),
        (
            GeneratorSpec(n=30, saps_per_state=4, gamma=0.99, sparsity=0.9),
            "0cac5068b44cc8438555074657c6276305548d8274dc23a61b9ec5ce677c84c7",
        ),
    ],
    ids=["sweep-avg", "sweep-disc", "pipeline-n30"],
)
def test_search_bits_are_pinned(spec, expected):
    # the benchmark's specs (pipeline-large at n = 30): a change to the search
    # that moves any bit of its output moves this digest
    assert search_digest(spec, range(50)) == expected


class TestNormalize:
    def test_member_rewards_zero(self, swap_plus_selfloop):
        norm = normalize_rewards(swap_plus_selfloop, Policy([0, 1]))
        assert abs(norm.saps[0].reward) <= 1e-10
        assert abs(norm.saps[1].reward) <= 1e-10
        assert norm.saps[2].reward == pytest.approx(-0.5, abs=1e-12)

    def test_structure_preserved(self, swap_plus_selfloop):
        norm = normalize_rewards(swap_plus_selfloop, Policy([0, 1]))
        assert norm.n == swap_plus_selfloop.n
        assert norm.gamma == swap_plus_selfloop.gamma
        for old, new in zip(swap_plus_selfloop.saps, norm.saps):
            assert old.state == new.state
            assert np.array_equal(old.probs, new.probs)

    def test_shares_the_transition_rows(self):
        # the normalized model holds new rewards over the same, uncopied rows
        m = random_instance(3, n=50, gamma=0.95, saps_per_state=4, sparsity=0.3)
        norm = normalize_rewards(m, lowest_index_policy(m))
        assert np.shares_memory(norm.sap_probs, m.sap_probs)
        assert not np.shares_memory(norm.sap_rewards, m.sap_rewards)

    def test_idempotent(self, swap_plus_selfloop):
        pi = Policy([0, 1])
        once = normalize_rewards(swap_plus_selfloop, pi)
        twice = normalize_rewards(once, pi)
        for a, b in zip(once.saps, twice.saps):
            assert b.reward == pytest.approx(a.reward, abs=1e-10)

    def test_advantages_preserved_across_policies(self):
        m = random_instance(17, n=3, gamma=1.0, saps_per_state=2)
        from mdpgeom import optimal_policy

        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        for pi in enumerate_policies(m):
            if not classify_chain(policy_kernel(m, pi)).is_unichain:
                continue
            pv_orig, _ = evaluate_policy(m, pi)
            pv_norm, _ = evaluate_policy(norm, pi)
            np.testing.assert_allclose(
                advantages(m, pv_orig), advantages(norm, pv_norm), atol=1e-9
            )

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 5),
        saps=st.integers(1, 3),
        gamma=st.sampled_from([0.5, 0.9, 0.999, 1 - 1e-9, 1.0]),
        sparsity=st.sampled_from([0.0, 0.5]),
        picks=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    )
    def test_normalization_preserves_every_advantage(self, seed, n, saps, gamma, sparsity, picks):
        # the advantage of every SAP with respect to every evaluable policy is the
        # same in the normalized model, whichever evaluable policy it is normalized against
        m = random_instance(seed, n=n, gamma=gamma, saps_per_state=saps, sparsity=sparsity)
        star = Policy([m.saps_at(s)[picks[s] % saps] for s in range(n)])
        pi = Policy([m.saps_at(s)[picks[5 + s] % saps] for s in range(n)])
        try:
            norm = normalize_rewards(m, star)
            pv, _ = evaluate_policy(m, pi)
        except NotUnichainError:
            assume(False)
        adv = advantages(m, pv)
        adv_norm = advantages(norm, evaluate_policy(norm, pi)[0])
        np.testing.assert_allclose(adv_norm, adv, rtol=0, atol=1e-10 * max(1.0, np.abs(adv).max()))

    def test_greedy_argmax_preserved(self):
        m = random_instance(23, n=4, gamma=0.8, saps_per_state=3)
        from mdpgeom import optimal_policy

        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        pv_o, _ = evaluate_policy(m, star)
        pv_n, _ = evaluate_policy(norm, star)
        adv_o, adv_n = advantages(m, pv_o), advantages(norm, pv_n)
        for s in range(m.n):
            ids = m.saps_at(s)
            assert ids[np.argmax(adv_o[ids])] == ids[np.argmax(adv_n[ids])]
