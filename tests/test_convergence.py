import math

import numpy as np
import pytest

from mdpgeom import (
    AssumptionViolatedError,
    Policy,
    advantages,
    contraction_constants,
    evaluate_policy,
    normalize_rewards,
    optimal_policy,
    product_expansion_check,
    run_vi,
    span,
    suboptimality_gap,
    verify_contraction,
    vi_step,
)

from mdpgeom import classic, convergence, geometry, kernels, model

from conftest import make_model, random_instance, random_stochastic


class TestViStep:
    def test_single_sap_swap_from_zero(self, swap_model):
        # v1(s) = C * max_a(r + p.v0/C - v0_sum/C) = C * r = (4, 0)
        v1, greedy = vi_step(swap_model, np.zeros(2))
        np.testing.assert_allclose(v1, [4.0, 0.0], atol=1e-12)
        assert greedy.as_tuple() == (0, 1)

    def test_fixed_point_on_normalized(self, swap_plus_selfloop):
        star = Policy([0, 1])
        norm = normalize_rewards(swap_plus_selfloop, star)
        pv, _ = evaluate_policy(norm, star)
        # the evaluated values of the optimal policy in the normalized model
        v_star = pv.values
        np.testing.assert_allclose(v_star, 0.0, atol=1e-12)
        v_next, greedy = vi_step(norm, v_star)
        np.testing.assert_allclose(v_next, v_star, atol=1e-12)
        assert greedy == star

    def test_greedy_is_advantage_argmax(self):
        from mdpgeom.geometry import PolicyVector

        m = random_instance(4, n=4, gamma=0.6, saps_per_state=3)
        v = np.linspace(-1, 2, 4)
        _, greedy = vi_step(m, v)
        adv = advantages(m, PolicyVector(values=v))
        for s in range(m.n):
            ids = m.saps_at(s)
            assert greedy.choice[s] == ids[np.argmax(adv[ids])]

    def test_zero_start_stays_at_zero_on_normalized(self):
        m = random_instance(6, n=4, gamma=1.0, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v = np.zeros(4)
        for _ in range(5):
            v, _ = vi_step(norm, v)
            assert np.max(v) <= 1e-12


class TestRunVi:
    def test_constant_v0_terminates_immediately(self, swap_model):
        run = run_vi(swap_model, np.full(2, 3.0), steps=50)
        assert run.spans == [0.0]
        assert run.ratios == []
        assert run.early_stopped
        assert len(run.greedy) == 1  # greedy at the recorded final iterate

    def test_discounted_ratios_bounded_by_gamma_on_normalized(self):
        m = random_instance(8, n=5, gamma=0.8, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v0 = np.zeros(5)
        v0[0] = 1.0
        run = run_vi(norm, v0, steps=25)
        assert len(run.ratios) >= 10
        for r in run.ratios:
            if r is not None:
                assert r <= m.gamma + 1e-12

    def test_average_spans_strictly_decrease_on_dense_model(self):
        # sparsity 0 gives entrywise-positive SAP rows, hence strict decrease
        m = random_instance(12, n=4, gamma=1.0, saps_per_state=2, sparsity=0.0)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        v0 = np.zeros(4)
        v0[0] = 1.0
        run = run_vi(norm, v0, steps=40)
        spans = run.spans
        for a, b in zip(spans, spans[1:]):
            assert b < a or b == 0.0

    def test_trace_lengths_consistent(self):
        m = random_instance(13, n=3, gamma=0.5, saps_per_state=2)
        run = run_vi(m, np.array([1.0, 0.0, 0.0]), steps=7)
        assert len(run.spans) == len(run.greedy)
        assert len(run.ratios) == len(run.spans) - 1


class TestSuboptimalityGap:
    def test_swap_plus_selfloop(self, swap_plus_selfloop):
        assert suboptimality_gap(swap_plus_selfloop, Policy([0, 1])) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_no_alternatives_is_infinite(self, swap_model):
        assert suboptimality_gap(swap_model, Policy([0, 1])) == math.inf


class TestContractionConstants:
    def test_uniform_kernel_certificate(self):
        # optimal kernel entrywise 1/2: exponent 1, omega 1/2
        m = make_model(
            2,
            1.0,
            [(0, 1.0, [0.5, 0.5]), (0, 0.0, [1, 0]), (1, 0.5, [0.5, 0.5])],
        )
        star = optimal_policy(m).policy
        assert star.as_tuple() == (0, 2)
        norm = normalize_rewards(m, star)
        run = run_vi(norm, np.array([1.0, 0.0]), steps=1)
        consts = contraction_constants(norm, star, run.spans)
        assert consts.exponent == 1
        assert consts.omega == pytest.approx(0.5, abs=1e-12)
        assert consts.delta > 0

    def test_periodic_kernel_flagged(self, swap_plus_selfloop):
        star = Policy([0, 1])
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(swap_plus_selfloop, star, [1.0, 0.5])
        assert err.value.diagnostic == "aperiodicity"

    def test_multichain_kernel_flagged(self):
        m = make_model(2, 0.5, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(m, Policy([0, 1]), [1.0])
        assert err.value.diagnostic == "unichain"

    def test_zero_gap_flagged(self):
        # duplicate optimal SAP: the non-member copy has advantage 0
        m = make_model(
            2,
            0.5,
            [(0, 1.0, [0.5, 0.5]), (0, 1.0, [0.5, 0.5]), (1, 0.0, [0.5, 0.5])],
        )
        with pytest.raises(AssumptionViolatedError) as err:
            contraction_constants(m, Policy([0, 2]), [1.0, 0.5])
        assert err.value.diagnostic == "uniqueness"

    def test_early_convergence_leaves_phi_undefined(self):
        m = random_instance(21, n=3, gamma=0.5, saps_per_state=2)
        star = optimal_policy(m).policy
        norm = normalize_rewards(m, star)
        consts = contraction_constants(norm, star, [0.0])  # span hit zero at once
        assert consts.converged_early
        assert consts.phi is None and consts.tau is None


class TestVerifyContraction:
    def test_non_unique_reports_without_verdict(self):
        m = make_model(
            2, 1.0, [(0, 2.0, [0, 1]), (0, 2.0, [0, 1]), (1, 0.0, [1, 0])]
        )
        report = verify_contraction(m)
        assert not report.diagnostics.unique
        assert report.bound_satisfied is None
        assert report.constants is None
        assert report.span_trace  # informational trace still recorded

    def test_periodic_optimal_kernel_informational(self, swap_model):
        report = verify_contraction(swap_model)
        assert report.diagnostics.unichain
        assert not report.diagnostics.aperiodic
        assert report.bound_satisfied is None
        assert report.exponent is None

    def test_discounted_random_model_bound_holds(self):
        m = random_instance(31, n=5, gamma=0.5, saps_per_state=2, reward_range=(-0.3, 0.3))
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        assert report.constants is not None
        if not (report.constants.degenerate or report.converged_early):
            assert report.bound_satisfied is True
            assert report.constants.tau < 1.0
        assert report.sanity_bound_satisfied is True

    def test_average_reward_model_converges(self):
        m = random_instance(37, n=4, gamma=1.0, saps_per_state=2, sparsity=0.2)
        report = verify_contraction(m, trace_steps=300)
        assert report.diagnostics.all_pass
        assert report.span_trace[-1] <= 1e-9
        assert tuple(report.greedy_policies[-1]) == report.pi_star

    def test_v0_defaults_to_first_basis_vector(self):
        m = random_instance(41, n=4, gamma=0.9, saps_per_state=2)
        report = verify_contraction(m)
        assert report.v0 == (1.0, 0.0, 0.0, 0.0)
        assert report.span_trace[0] == 1.0

    def test_no_unichain_policy_reports_instead_of_crashing(self):
        # both states absorbing under the only policy: nothing to optimize at gamma=1
        m = make_model(2, 1.0, [(0, 1.0, [1, 0]), (1, 0.0, [0, 1])])
        report = verify_contraction(m)
        assert report.pi_star is None
        assert not report.diagnostics.unichain
        assert report.bound_satisfied is None
        assert report.span_trace


def _count_calls(monkeypatch, bindings):
    """Wrap each (module, name) binding; return a dict of calls by function name."""
    calls = {}
    for module, name in bindings:
        fn = getattr(module, name)
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCounts:
    """Each fact about the optimal policy is computed once per pipeline run."""

    @pytest.mark.parametrize(
        "m",
        [
            random_instance(31, n=5, gamma=0.5, saps_per_state=3),
            random_instance(37, n=4, gamma=1.0, saps_per_state=2, sparsity=0.2),
        ],
        ids=["discounted", "average"],
    )
    def test_verify_contraction(self, monkeypatch, m):
        calls = _count_calls(
            monkeypatch,
            [
                (convergence, "classify_chain"),
                (convergence, "primitivity_certificate"),
                (convergence, "evaluate_policy"),
                (geometry, "evaluate_policy"),
                (classic, "evaluate_discounted"),
                (model, "check_policy"),
            ],
        )
        report = verify_contraction(m)
        assert report.diagnostics.all_pass
        assert calls["classify_chain"] == 1
        assert calls["primitivity_certificate"] == 1
        # once for the normalized rewards, once for the normalized model's gap
        assert calls["evaluate_policy"] == 2
        # one check per evaluation, plus one for pi*'s kernel; enumeration checks nothing
        assert calls["check_policy"] == calls["evaluate_policy"] + calls["evaluate_discounted"] + 1

    def test_howard_evaluates_once_per_iteration(self, monkeypatch):
        m = random_instance(3, n=8, gamma=0.95, saps_per_state=3)
        calls = _count_calls(
            monkeypatch, [(classic, "evaluate_discounted"), (kernels, "greedy_sweep_model")]
        )
        classic.optimal_policy(m)
        assert calls["greedy_sweep_model"] == 3  # two improvements, then no change
        assert calls["evaluate_discounted"] == calls["greedy_sweep_model"]


class TestProductExpansion:
    def test_single_matrix(self):
        # (P - E) - P = -E has identical rows
        rng = np.random.default_rng(0)
        assert product_expansion_check([random_stochastic(rng, 3)])

    def test_two_random_3x3(self):
        rng = np.random.default_rng(1)
        mats = [random_stochastic(rng, 3) for _ in range(2)]
        assert product_expansion_check(mats)

    def test_five_random_4x4(self):
        rng = np.random.default_rng(2)
        mats = [random_stochastic(rng, 4) for _ in range(5)]
        assert product_expansion_check(mats)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            product_expansion_check([np.array([[0.5, 0.6], [1.0, 0.0]])])
        with pytest.raises(ValueError):
            product_expansion_check([])
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            product_expansion_check([random_stochastic(rng, 2), random_stochastic(rng, 3)])

    def test_rows_actually_identical(self):
        rng = np.random.default_rng(4)
        mats = [random_stochastic(rng, 3) for _ in range(3)]
        e = np.ones((3, 3))
        shifted = mats[0] - e
        plain = mats[0].copy()
        for m in mats[1:]:
            shifted = shifted @ (m - e)
            plain = plain @ m
        e_prime = shifted - plain
        assert np.max(np.abs(e_prime - e_prime[0])) <= 1e-12
